/** @file Tests for the verbs-style host API and the host driver. */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "host/host_node.hh"
#include "host/verbs.hh"
#include "net/switch.hh"
#include "sim/event_queue.hh"
#include "snic/snic.hh"

using namespace netsparse;

namespace {

/** The first of node 1's idxs: the 2^16 idxs split in two equal rows. */
constexpr std::uint32_t kRemote = 1u << 15;

/** Two SNICs joined by one plain switch; idxs >= kRemote -> node 1. */
struct TwoNodeWorld
{
    EventQueue eq;
    ProtocolParams proto;
    SnicConfig scfg;
    std::unique_ptr<Snic> snic0, snic1;
    std::unique_ptr<Switch> sw;
    std::unique_ptr<Link> down0, down1, up0, up1;

    explicit TwoNodeWorld(std::uint32_t num_units = 4)
    {
        scfg.numRigUnits = num_units;
        ConcatConfig concat;
        concat.proto = proto;
        concat.delay = 100 * ticks::ns;
        Partition1D owners = Partition1D::equalRows(1 << 16, 2);
        snic0 = std::make_unique<Snic>(eq, scfg, concat, 0, 0, owners,
                                       1 << 16, "snic0");
        snic1 = std::make_unique<Snic>(eq, scfg, concat, 1, 0, owners,
                                       1 << 16, "snic1");
        sw = std::make_unique<Switch>(eq, SwitchConfig{}, 0, "sw");
        down0 = std::make_unique<Link>(eq, LinkConfig{}, proto,
                                       snic0.get(), 0, "d0");
        down1 = std::make_unique<Link>(eq, LinkConfig{}, proto,
                                       snic1.get(), 0, "d1");
        up0 = std::make_unique<Link>(eq, LinkConfig{}, proto, sw.get(), 0,
                                     "u0");
        up1 = std::make_unique<Link>(eq, LinkConfig{}, proto, sw.get(), 1,
                                     "u1");
        sw->attachPort(0, down0.get(), true);
        sw->attachPort(1, down1.get(), true);
        sw->setRouteFn([](NodeId dest) -> std::uint32_t { return dest; });
        snic0->attachEgress(up0.get());
        snic1->attachEgress(up1.get());
    }
};

} // namespace

TEST(Verbs, RigWorkRequestCompletesSuccessfully)
{
    TwoNodeWorld w;
    std::vector<std::uint32_t> idxs{kRemote, kRemote + 1, kRemote + 2,
                                    kRemote + 1, kRemote + 3};
    RigQueuePair qp(w.eq, *w.snic0);
    IbvSendWr wr;
    wr.wrId = 77;
    wr.opcode = IbvWrOpcode::Rig;
    wr.rig.idxList = idxs.data();
    wr.rig.numIdxs = idxs.size();
    wr.rig.propBytes = 64;
    ASSERT_TRUE(qp.postSend(wr));
    EXPECT_EQ(qp.outstanding(), 1u);

    w.eq.run();
    IbvWc wc;
    ASSERT_TRUE(qp.pollCq(wc));
    EXPECT_EQ(wc.wrId, 77u);
    EXPECT_EQ(wc.status, IbvWc::Status::Success);
    EXPECT_EQ(qp.outstanding(), 0u);
    EXPECT_FALSE(qp.pollCq(wc));

    // 4 unique remote idxs issued; the repeated kRemote + 1 coalesced.
    RigClientStats st = w.snic0->aggregateClientStats();
    EXPECT_EQ(st.prsIssued, 4u);
    EXPECT_EQ(st.coalesced, 1u);
    EXPECT_EQ(st.responses, 4u);
}

TEST(Verbs, RdmaReadOpcodeIsAOneIdxRig)
{
    TwoNodeWorld w;
    std::vector<std::uint32_t> idx{kRemote + 4};
    RigQueuePair qp(w.eq, *w.snic0);
    IbvSendWr wr;
    wr.wrId = 1;
    wr.opcode = IbvWrOpcode::RdmaRead;
    wr.rig.idxList = idx.data();
    wr.rig.numIdxs = 1;
    wr.rig.propBytes = 4;
    ASSERT_TRUE(qp.postSend(wr));
    w.eq.run();
    IbvWc wc;
    ASSERT_TRUE(qp.pollCq(wc));
    EXPECT_EQ(wc.status, IbvWc::Status::Success);
}

TEST(Verbs, PostSendFailsWhenAllUnitsBusy)
{
    TwoNodeWorld w(4); // 2 client units
    std::vector<std::uint32_t> idxs(100, kRemote);
    RigQueuePair qp(w.eq, *w.snic0);
    IbvSendWr wr;
    wr.rig.idxList = idxs.data();
    wr.rig.numIdxs = idxs.size();
    wr.rig.propBytes = 64;
    EXPECT_TRUE(qp.postSend(wr));
    EXPECT_TRUE(qp.postSend(wr));
    EXPECT_FALSE(qp.postSend(wr)); // both client units occupied
    w.eq.run();
    // After completion, posting works again.
    EXPECT_TRUE(qp.postSend(wr));
    w.eq.run();
    // All three commands completed, and each left one completion.
    IbvWc wc;
    std::uint32_t completions = 0;
    while (qp.pollCq(wc))
        ++completions;
    EXPECT_EQ(completions, 3u);
}

TEST(Verbs, CompletionHandlerFires)
{
    TwoNodeWorld w;
    std::vector<std::uint32_t> idxs{kRemote};
    RigQueuePair qp(w.eq, *w.snic0);
    int notifications = 0;
    qp.setCompletionHandler([&] { ++notifications; });
    IbvSendWr wr;
    wr.rig.idxList = idxs.data();
    wr.rig.numIdxs = 1;
    wr.rig.propBytes = 64;
    ASSERT_TRUE(qp.postSend(wr));
    w.eq.run();
    EXPECT_EQ(notifications, 1);
}

TEST(HostNode, DrivesWholeStreamAcrossBatches)
{
    TwoNodeWorld w;
    HostConfig hcfg;
    hcfg.batchSize = 16;
    std::vector<std::uint32_t> stream;
    for (int i = 0; i < 100; ++i)
        stream.push_back(kRemote + i % 13); // remote
    HostNode host(w.eq, hcfg, *w.snic0, std::move(stream), 64);
    host.start();
    w.eq.run();
    EXPECT_TRUE(host.done());
    EXPECT_EQ(host.failures(), 0u);
    EXPECT_EQ(host.commandsIssued(), 7u); // ceil(100 / 16)
    RigClientStats st = w.snic0->aggregateClientStats();
    EXPECT_EQ(st.idxsProcessed, 100u);
    // All 13 unique idxs fetched, everything else filtered/coalesced.
    EXPECT_EQ(st.responses, st.prsIssued);
    EXPECT_GE(st.prsIssued, 13u);
    EXPECT_EQ(st.prsIssued + st.filtered + st.coalesced, 100u);
}

TEST(HostNode, EmptyStreamFinishesInstantly)
{
    TwoNodeWorld w;
    HostNode host(w.eq, {}, *w.snic0, {}, 64);
    host.start();
    EXPECT_TRUE(host.done());
    EXPECT_EQ(host.finishTick(), 0u);
}

TEST(HostNode, AutoBatchSizingKeepsUnitsBusy)
{
    TwoNodeWorld w(8); // 4 client units
    HostConfig hcfg;   // batchSize = 0 -> auto
    std::vector<std::uint32_t> stream(100000, kRemote);
    HostNode host(w.eq, hcfg, *w.snic0, std::move(stream), 64);
    host.start();
    w.eq.run();
    EXPECT_TRUE(host.done());
    // Auto sizing targets ~2 batches per client unit.
    EXPECT_GE(host.commandsIssued(), 4u);
}
