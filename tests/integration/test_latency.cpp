/**
 * @file
 * Latency validation: the paper's Table 5 quotes 2.4 us intra-rack and
 * 5.4 us inter-rack round trips (450 ns links, 300 ns switch hops).
 * A single-property gather through a hand-built two-rack cluster must
 * land in that neighborhood once the fixed SNIC-side costs (doorbell,
 * DMA, concatenation delay, host-memory fetch) are added.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "host/verbs.hh"
#include "net/switch.hh"
#include "snic/snic.hh"

using namespace netsparse;

namespace {

/** node 0 under ToR A, node 1 under ToR B, one spine between. */
struct TwoRackWorld
{
    EventQueue eq;
    ProtocolParams proto;
    std::unique_ptr<Snic> snic0, snic1;
    std::unique_ptr<Switch> torA, torB, spine;
    std::vector<std::unique_ptr<Link>> links;

    Link *
    link(PacketSink *sink, std::uint32_t port, const char *name)
    {
        links.push_back(std::make_unique<Link>(eq, LinkConfig{}, proto,
                                               sink, port, name));
        return links.back().get();
    }

    TwoRackWorld()
    {
        SnicConfig scfg;
        scfg.numRigUnits = 2;
        ConcatConfig concat;
        concat.proto = proto;
        concat.delay = 227 * ticks::ns; // 500 cycles at 2.2 GHz
        // Node 1 owns idxs [2048, 4096).
        Partition1D owners = Partition1D::equalRows(4096, 2);
        snic0 = std::make_unique<Snic>(eq, scfg, concat, 0, 0, owners,
                                       4096, "s0");
        snic1 = std::make_unique<Snic>(eq, scfg, concat, 1, 0, owners,
                                       4096, "s1");

        SwitchConfig tor_cfg;
        tor_cfg.netsparseEnabled = true;
        tor_cfg.concat.proto = proto;
        tor_cfg.concat.delay = 62 * ticks::ns + 500; // 125 cy at 2 GHz
        tor_cfg.cache.totalBytes = 1 << 20;
        torA = std::make_unique<Switch>(eq, tor_cfg, 0, "torA");
        torB = std::make_unique<Switch>(eq, tor_cfg, 1, "torB");
        spine = std::make_unique<Switch>(eq, SwitchConfig{}, 2, "spine");

        // torA: port 0 host0, port 1 up. torB: port 0 host1, port 1 up.
        // spine: port 0 -> torA, port 1 -> torB.
        torA->attachPort(0, link(snic0.get(), 0, "a->h0"), true);
        torA->attachPort(1, link(spine.get(), 0, "a->sp"), false);
        torB->attachPort(0, link(snic1.get(), 0, "b->h1"), true);
        torB->attachPort(1, link(spine.get(), 1, "b->sp"), false);
        spine->attachPort(0, link(torA.get(), 1, "sp->a"), false);
        spine->attachPort(1, link(torB.get(), 1, "sp->b"), false);

        torA->setRouteFn([](NodeId d) -> std::uint32_t {
            return d == 0 ? 0 : 1;
        });
        torB->setRouteFn([](NodeId d) -> std::uint32_t {
            return d == 1 ? 0 : 1;
        });
        spine->setRouteFn([](NodeId d) -> std::uint32_t { return d; });
        torA->configureForKernel(64);
        torB->configureForKernel(64);

        snic0->attachEgress(link(torA.get(), 0, "h0->a"));
        snic1->attachEgress(link(torB.get(), 0, "h1->b"));
    }
};

} // namespace

TEST(Latency, SinglePropertyInterRackGather)
{
    TwoRackWorld w;
    std::vector<std::uint32_t> idx{2048}; // homed on node 1, other rack
    RigQueuePair qp(w.eq, *w.snic0);
    IbvSendWr wr;
    wr.rig.idxList = idx.data();
    wr.rig.numIdxs = 1;
    wr.rig.propBytes = 64;
    ASSERT_TRUE(qp.postSend(wr));
    w.eq.run();
    IbvWc wc;
    ASSERT_TRUE(qp.pollCq(wc));
    EXPECT_EQ(wc.status, IbvWc::Status::Success);

    // Wire path (Table 5): 6 link crossings x 450 ns + 2 ToR hops
    // (300 ns + 8 ns cache) + 1 spine hop (300 ns) = 3.6 us one pair
    // of directions; SNIC-side fixed costs: doorbell 200 ns + idx DMA
    // 216 ns + NIC concat 227 ns each way + ToR concat 62 ns x4 +
    // server fetch ~516 ns + response DMA + completion ~400 ns.
    double us = ticks::toNs(w.eq.now()) / 1e3;
    EXPECT_GT(us, 4.0);
    EXPECT_LT(us, 8.0);
}

TEST(Latency, CacheHitHalvesTheRoundTrip)
{
    TwoRackWorld w;
    std::vector<std::uint32_t> idx{2048};

    // First gather by node 0 warms torA's Property Cache.
    {
        RigQueuePair qp(w.eq, *w.snic0);
        IbvSendWr wr;
        wr.rig.idxList = idx.data();
        wr.rig.numIdxs = 1;
        wr.rig.propBytes = 64;
        ASSERT_TRUE(qp.postSend(wr));
        w.eq.run();
        IbvWc wc;
        ASSERT_TRUE(qp.pollCq(wc));
    }
    Tick first = w.eq.now();
    EXPECT_EQ(w.torA->cacheInserts(), 1u);

    // A second gather for the same idx must be served by torA: clear
    // node 0's filter (fresh "iteration" on the same switch state).
    w.snic0->configureForKernel();
    Tick start = w.eq.now();
    {
        RigQueuePair qp(w.eq, *w.snic0);
        IbvSendWr wr;
        wr.rig.idxList = idx.data();
        wr.rig.numIdxs = 1;
        wr.rig.propBytes = 64;
        ASSERT_TRUE(qp.postSend(wr));
        w.eq.run();
        IbvWc wc;
        ASSERT_TRUE(qp.pollCq(wc));
    }
    Tick second = w.eq.now() - start;
    EXPECT_EQ(w.torA->cacheHits(), 1u);
    // The served read never crossed the spine: markedly faster.
    EXPECT_LT(second, first * 3 / 4);
}
