/**
 * @file
 * Fault-injection tests for the recovery paths: the watchdog (Section
 * 7.1: a lossy link eats packets, the RIG watchdog detects the stalled
 * operation, discards partial results and reports failure to the host)
 * and the reliable-PR layer (retransmission, NACK-refetch and duplicate
 * suppression turn the same faults into successful completions).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "host/verbs.hh"
#include "net/switch.hh"
#include "snic/snic.hh"

using namespace netsparse;

namespace {

/** @p n distinct idxs homed on node 1: the 4096 idxs split in two
 *  equal rows, so node 1 owns [2048, 4096). */
std::vector<std::uint32_t>
remoteIdxs(std::uint32_t n)
{
    std::vector<std::uint32_t> idxs(n);
    for (std::uint32_t i = 0; i < n; ++i)
        idxs[i] = 2048 + i;
    return idxs;
}

struct FaultWorld
{
    EventQueue eq;
    ProtocolParams proto;
    std::unique_ptr<Snic> snic0, snic1;
    std::unique_ptr<Switch> sw;
    std::unique_ptr<Link> down0, down1, up0, up1;

    explicit FaultWorld(Tick watchdog, RetryPolicy retry = {})
    {
        SnicConfig scfg;
        scfg.numRigUnits = 2;
        scfg.rigUnit.watchdogTimeout = watchdog;
        scfg.rigUnit.retry = retry;
        ConcatConfig concat;
        concat.proto = proto;
        concat.delay = 100 * ticks::ns;
        Partition1D owners = Partition1D::equalRows(4096, 2);
        snic0 = std::make_unique<Snic>(eq, scfg, concat, 0, 0, owners,
                                       4096, "s0");
        snic1 = std::make_unique<Snic>(eq, scfg, concat, 1, 0, owners,
                                       4096, "s1");
        sw = std::make_unique<Switch>(eq, SwitchConfig{}, 0, "sw");
        down0 = std::make_unique<Link>(eq, LinkConfig{}, proto,
                                       snic0.get(), 0, "d0");
        down1 = std::make_unique<Link>(eq, LinkConfig{}, proto,
                                       snic1.get(), 0, "d1");
        up0 = std::make_unique<Link>(eq, LinkConfig{}, proto, sw.get(), 0,
                                     "u0");
        up1 = std::make_unique<Link>(eq, LinkConfig{}, proto, sw.get(), 1,
                                     "u1");
        // All four links carry injectors; tests script faults on them
        // (zero rates: nothing fires unless scripted).
        for (Link *l : {down0.get(), down1.get(), up0.get(), up1.get()})
            l->configureFaults(FaultConfig{});
        sw->attachPort(0, down0.get(), true);
        sw->attachPort(1, down1.get(), true);
        sw->setRouteFn([](NodeId dest) -> std::uint32_t { return dest; });
        snic0->attachEgress(up0.get());
        snic1->attachEgress(up1.get());
    }

    IbvWc
    runGather(const std::vector<std::uint32_t> &idxs)
    {
        RigQueuePair qp(eq, *snic0);
        IbvSendWr wr;
        wr.wrId = 1;
        wr.rig.idxList = idxs.data();
        wr.rig.numIdxs = idxs.size();
        wr.rig.propBytes = 64;
        EXPECT_TRUE(qp.postSend(wr));
        eq.run();
        IbvWc wc;
        EXPECT_TRUE(qp.pollCq(wc));
        return wc;
    }
};

/** A short-fuse retry policy for unit-scale worlds. */
RetryPolicy
fastRetry(Tick timeout = 10 * ticks::us, std::uint32_t max_retries = 6)
{
    RetryPolicy p;
    p.enabled = true;
    p.timeout = timeout;
    p.maxRetries = max_retries;
    return p;
}

} // namespace

TEST(FaultInjection, LostReadPacketTripsTheWatchdog)
{
    FaultWorld w(50 * ticks::us);
    // Lose every read packet leaving node 0.
    w.up0->faults()->scriptDrop(
        [](const Packet &p) { return p.type == PrType::Read; });
    IbvWc wc = w.runGather(remoteIdxs(3));
    EXPECT_EQ(wc.status, IbvWc::Status::WatchdogTimeout);
    EXPECT_EQ(w.snic0->aggregateClientStats().watchdogFailures, 1u);
    EXPECT_GT(w.up0->packetsDropped(), 0u);
}

TEST(FaultInjection, LostResponsePacketTripsTheWatchdog)
{
    FaultWorld w(50 * ticks::us);
    w.down0->faults()->scriptDrop(
        [](const Packet &p) { return p.type == PrType::Response; });
    IbvWc wc = w.runGather(remoteIdxs(3));
    EXPECT_EQ(wc.status, IbvWc::Status::WatchdogTimeout);
}

TEST(FaultInjection, PartialLossStillFailsTheWholeOperation)
{
    FaultWorld w(50 * ticks::us);
    int count = 0;
    // Only the first read packet is lost; its PRs never complete.
    w.up0->faults()->scriptDrop([&](const Packet &p) {
        return p.type == PrType::Read && count++ == 0;
    });
    IbvWc wc = w.runGather(remoteIdxs(5));
    EXPECT_EQ(wc.status, IbvWc::Status::WatchdogTimeout);
    // Some responses may have arrived before the failure; they are
    // either applied or discarded, but the op still reports failure.
}

TEST(FaultInjection, CleanNetworkNeverTimesOut)
{
    FaultWorld w(50 * ticks::us);
    IbvWc wc = w.runGather(remoteIdxs(5));
    EXPECT_EQ(wc.status, IbvWc::Status::Success);
    EXPECT_EQ(w.snic0->aggregateClientStats().watchdogFailures, 0u);
}

TEST(FaultInjection, UnitIsReusableAfterAFailure)
{
    FaultWorld w(20 * ticks::us);
    bool lossy = true;
    w.up0->faults()->scriptDrop([&](const Packet &p) {
        return lossy && p.type == PrType::Read;
    });
    IbvWc wc = w.runGather(remoteIdxs(2));
    EXPECT_EQ(wc.status, IbvWc::Status::WatchdogTimeout);

    // Heal the network; the same unit executes the retry successfully.
    lossy = false;
    IbvWc wc2 = w.runGather(remoteIdxs(2));
    EXPECT_EQ(wc2.status, IbvWc::Status::Success);
}

// --- Reliable-PR transport: the same faults, but the gather succeeds ---

TEST(FaultInjection, RetransmissionRecoversLostReads)
{
    FaultWorld w(0, fastRetry());
    int count = 0;
    // The first read packet is lost; its PRs come back via retransmit.
    w.up0->faults()->scriptDrop([&](const Packet &p) {
        return p.type == PrType::Read && count++ == 0;
    });
    IbvWc wc = w.runGather(remoteIdxs(5));
    EXPECT_EQ(wc.status, IbvWc::Status::Success);
    RigClientStats cs = w.snic0->aggregateClientStats();
    EXPECT_GT(cs.retransmits, 0u);
    EXPECT_EQ(cs.retriesExhausted, 0u);
    EXPECT_EQ(cs.responses, 5u);
}

TEST(FaultInjection, RetransmissionRecoversLostResponses)
{
    FaultWorld w(0, fastRetry());
    int count = 0;
    w.down0->faults()->scriptDrop([&](const Packet &p) {
        return p.type == PrType::Response && count++ == 0;
    });
    IbvWc wc = w.runGather(remoteIdxs(3));
    EXPECT_EQ(wc.status, IbvWc::Status::Success);
    EXPECT_GT(w.snic0->aggregateClientStats().retransmits, 0u);
}

TEST(FaultInjection, CorruptResponseIsNackedAndRefetched)
{
    FaultWorld w(0, fastRetry());
    int count = 0;
    w.down0->faults()->scriptCorrupt(
        [&](const Packet &) { return count++ == 0; });
    IbvWc wc = w.runGather(remoteIdxs(3));
    EXPECT_EQ(wc.status, IbvWc::Status::Success);
    RigClientStats cs = w.snic0->aggregateClientStats();
    EXPECT_EQ(cs.corruptDropped, 1u);
    EXPECT_EQ(cs.nacks, 1u);
    EXPECT_EQ(w.down0->faults()->stats().corruptedPrs, 1u);
    // Every property was eventually applied exactly once.
    EXPECT_EQ(cs.responses, 3u);
}

TEST(FaultInjection, RetryBudgetExhaustionFailsTheCommand)
{
    FaultWorld w(0, fastRetry(5 * ticks::us, 2));
    // A black-hole network: every read is lost, forever.
    w.up0->faults()->scriptDrop(
        [](const Packet &p) { return p.type == PrType::Read; });
    IbvWc wc = w.runGather(remoteIdxs(3));
    EXPECT_EQ(wc.status, IbvWc::Status::WatchdogTimeout);
    RigClientStats cs = w.snic0->aggregateClientStats();
    EXPECT_GT(cs.retriesExhausted, 0u);
    EXPECT_GT(cs.retransmits, 0u);
}

TEST(FaultInjection, DuplicateResponsesAreSuppressed)
{
    // Retry fires faster than the round trip, so the original response
    // races its retransmitted twin; the loser must be suppressed and
    // the property applied exactly once. A batch large enough that the
    // command is still live when the twins land makes the suppression
    // observable (after completion they would count as stale instead).
    FaultWorld w(0, fastRetry(500 * ticks::ns, 20));
    IbvWc wc = w.runGather(remoteIdxs(2048));
    EXPECT_EQ(wc.status, IbvWc::Status::Success);
    RigClientStats cs = w.snic0->aggregateClientStats();
    EXPECT_GT(cs.retransmits, 0u);
    EXPECT_GT(cs.duplicatesSuppressed, 0u);
    EXPECT_EQ(cs.responses, 2048u);
}

TEST(FaultInjection, RandomDropsRecoverUnderRetry)
{
    FaultWorld w(0, fastRetry());
    FaultConfig fc;
    fc.dropRate = 0.3;
    fc.seed = 7;
    w.up0->configureFaults(fc);
    w.down0->configureFaults(fc);
    IbvWc wc = w.runGather(remoteIdxs(8));
    EXPECT_EQ(wc.status, IbvWc::Status::Success);
    EXPECT_EQ(w.snic0->aggregateClientStats().responses, 8u);
}

TEST(FaultInjection, LinkDownWindowDelaysButCompletes)
{
    FaultWorld w(0, fastRetry());
    FaultConfig fc;
    fc.linkDownRate = 0.5; // the first sends open a down window
    fc.linkDownTicks = 2 * ticks::us;
    fc.seed = 3;
    w.up0->configureFaults(fc);
    IbvWc wc = w.runGather(remoteIdxs(3));
    EXPECT_EQ(wc.status, IbvWc::Status::Success);
    const auto &fs = w.up0->faults()->stats();
    if (fs.downWindows > 0) {
        EXPECT_GT(fs.linkDownDrops, 0u);
        EXPECT_GT(w.snic0->aggregateClientStats().retransmits, 0u);
    }
}
