/**
 * @file
 * Programming-model demo: drive a Remote Indexed Gather through the
 * verbs-style host API (Section 5.4) on a hand-assembled two-node
 * "cluster" - two NetSparse SNICs joined by one switch - posting
 * IBV_WR_RIG work requests and polling the completion queue.
 */

#include <cstdio>
#include <vector>

#include "host/verbs.hh"
#include "net/switch.hh"
#include "net/topology.hh"
#include "sim/event_queue.hh"
#include "snic/snic.hh"
#include "sparse/partition.hh"

using namespace netsparse;

int
main()
{
    EventQueue eq;
    ProtocolParams proto;

    // Two nodes: node 0 gathers, node 1 serves. The properties are
    // split in two equal row ranges: idxs below 2048 live on node 0,
    // the rest on node 1.
    const std::uint32_t num_props = 4096;
    const Partition1D owners = Partition1D::equalRows(num_props, 2);

    SnicConfig scfg;
    ConcatConfig concat;
    concat.proto = proto;
    concat.delay = 200 * ticks::ns;
    Snic snic0(eq, scfg, concat, 0, 0, owners, num_props, "snic0");
    Snic snic1(eq, scfg, concat, 1, 0, owners, num_props, "snic1");

    Switch sw(eq, SwitchConfig{}, 0, "tor");

    LinkConfig lc; // 400 Gbps, 450 ns
    Link down0(eq, lc, proto, &snic0, 0, "tor->n0");
    Link down1(eq, lc, proto, &snic1, 0, "tor->n1");
    Link up0(eq, lc, proto, &sw, 0, "n0->tor");
    Link up1(eq, lc, proto, &sw, 1, "n1->tor");
    sw.attachPort(0, &down0, true);
    sw.attachPort(1, &down1, true);
    sw.setRouteFn([](NodeId dest) { return dest; });
    snic0.attachEgress(&up0);
    snic1.attachEgress(&up1);

    // The application's idx list: 700 of node 1's properties, some
    // repeatedly.
    std::vector<std::uint32_t> idxs;
    for (std::uint32_t i = 0; i < 2000; ++i)
        idxs.push_back(owners.begin(1) + i % 700);

    RigQueuePair qp(eq, snic0);
    IbvSendWr wr;
    wr.wrId = 42;
    wr.opcode = IbvWrOpcode::Rig;
    wr.rig.idxList = idxs.data();
    wr.rig.numIdxs = idxs.size();
    wr.rig.propBytes = 64; // K = 16

    if (!qp.postSend(wr)) {
        std::fprintf(stderr, "no free RIG unit\n");
        return 1;
    }
    std::printf("posted IBV_WR_RIG: %zu idxs, 64 B properties\n",
                idxs.size());

    eq.run();

    IbvWc wc;
    if (!qp.pollCq(wc) || wc.status != IbvWc::Status::Success) {
        std::fprintf(stderr, "gather failed\n");
        return 1;
    }
    RigClientStats st = snic0.aggregateClientStats();
    std::printf("completion for wr %llu after %.2f us\n",
                (unsigned long long)wc.wrId, ticks::toNs(eq.now()) / 1e3);
    std::printf("  PRs issued %llu, filtered %llu, coalesced %llu "
                "(700 unique idxs)\n",
                (unsigned long long)st.prsIssued,
                (unsigned long long)st.filtered,
                (unsigned long long)st.coalesced);
    return 0;
}
