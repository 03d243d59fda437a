/** @file Tests for the PR concatenation hardware (Section 6.1). */

#include <gtest/gtest.h>

#include <vector>

#include "concat/concatenator.hh"
#include "sim/rng.hh"

using namespace netsparse;

namespace {

PropertyRequest
readPr(PropIdx idx, NodeId src = 0)
{
    PropertyRequest pr;
    pr.type = PrType::Read;
    pr.src = src;
    pr.idx = idx;
    pr.propBytes = 64;
    pr.payloadBytes = 0;
    return pr;
}

PropertyRequest
responsePr(PropIdx idx, std::uint32_t payload, NodeId src = 0)
{
    PropertyRequest pr = readPr(idx, src);
    pr.type = PrType::Response;
    pr.propBytes = payload;
    pr.payloadBytes = payload;
    pr.checksum = propertyChecksum(idx);
    return pr;
}

struct Harness
{
    EventQueue eq;
    std::vector<Packet> out;
    ConcatConfig cfg;

    explicit Harness(ConcatConfig c) : cfg(c) {}

    Concatenator
    make()
    {
        return Concatenator(eq, cfg,
                            [this](Packet &&p) { out.push_back(std::move(p)); });
    }
};

} // namespace

TEST(Concatenator, FillsToMtuThenFlushes)
{
    ConcatConfig cfg;
    cfg.delay = 1 * ticks::us;
    Harness h(cfg);
    auto cc = h.make();

    // Read PRs are 18 B; the payload capacity is 1500-62 = 1438 B, so
    // 79 PRs fit (1422 B) and the eager check flushes right there.
    for (int i = 0; i < 79; ++i)
        cc.push(readPr(i), 5);
    ASSERT_EQ(h.out.size(), 1u);
    EXPECT_EQ(h.out[0].prs.size(), 79u);
    EXPECT_TRUE(h.out[0].concatenated);
    EXPECT_EQ(h.out[0].dest, 5u);
    EXPECT_LE(h.out[0].wireBytes(), cfg.proto.mtuBytes);
    EXPECT_EQ(cc.flushesByFill(), 1u);
    EXPECT_EQ(cc.pendingPrs(), 0u);
}

TEST(Concatenator, ExpiryFlushesPartialQueue)
{
    ConcatConfig cfg;
    cfg.delay = 500 * ticks::ns;
    Harness h(cfg);
    auto cc = h.make();

    cc.push(readPr(1), 3);
    cc.push(readPr(2), 3);
    EXPECT_TRUE(h.out.empty());
    EXPECT_EQ(cc.pendingPrs(), 2u);

    h.eq.run();
    ASSERT_EQ(h.out.size(), 1u);
    EXPECT_EQ(h.out[0].prs.size(), 2u);
    EXPECT_EQ(cc.flushesByExpiry(), 1u);
    // The PRs waited at most the configured delay.
    EXPECT_LE(cc.prWaitTicks().max(), static_cast<double>(cfg.delay));
}

TEST(Concatenator, ExpirationUsesFirstArrivalTime)
{
    ConcatConfig cfg;
    cfg.delay = 1000;
    Harness h(cfg);
    auto cc = h.make();
    cc.push(readPr(1), 0);
    // A later PR does not extend the deadline.
    h.eq.schedule(600, [&] { cc.push(readPr(2), 0); });
    h.eq.run();
    ASSERT_EQ(h.out.size(), 1u);
    EXPECT_EQ(h.eq.now(), 1000u);
    EXPECT_EQ(h.out[0].prs.size(), 2u);
}

TEST(Concatenator, SeparateQueuesPerTypeAndDest)
{
    ConcatConfig cfg;
    cfg.delay = 100;
    Harness h(cfg);
    auto cc = h.make();
    cc.push(readPr(1), 1);
    cc.push(readPr(2), 2);
    cc.push(responsePr(3, 64), 1);
    h.eq.run();
    ASSERT_EQ(h.out.size(), 3u);
    // Same-dest read and response were not mixed.
    for (const auto &p : h.out)
        for (const auto &pr : p.prs)
            EXPECT_EQ(pr.type, p.type);
}

TEST(Concatenator, DisabledModeEmitsSoloPackets)
{
    ConcatConfig cfg;
    cfg.enabled = false;
    Harness h(cfg);
    auto cc = h.make();
    cc.push(readPr(1), 7);
    cc.push(responsePr(2, 64), 7);
    ASSERT_EQ(h.out.size(), 2u);
    EXPECT_FALSE(h.out[0].concatenated);
    // Solo read packet: 50 + 10 + 18 = 78 bytes.
    EXPECT_EQ(h.out[0].wireBytes(), 78u);
    EXPECT_EQ(h.out[1].wireBytes(), 142u);
    EXPECT_TRUE(h.eq.empty()); // no timers armed
}

TEST(Concatenator, ZeroDelayFlushesImmediately)
{
    ConcatConfig cfg;
    cfg.delay = 0;
    Harness h(cfg);
    auto cc = h.make();
    cc.push(readPr(1), 4);
    ASSERT_EQ(h.out.size(), 1u);
    EXPECT_TRUE(h.out[0].concatenated);
    EXPECT_EQ(h.out[0].prs.size(), 1u);
}

TEST(Concatenator, LargeResponsesPackByPayload)
{
    // 512 B responses: 530 B per PR, capacity 1438 -> 2 per packet.
    ConcatConfig cfg;
    cfg.delay = 100;
    Harness h(cfg);
    auto cc = h.make();
    for (int i = 0; i < 5; ++i)
        cc.push(responsePr(i, 512), 9);
    h.eq.run();
    ASSERT_EQ(h.out.size(), 3u);
    EXPECT_EQ(h.out[0].prs.size(), 2u);
    EXPECT_EQ(h.out[1].prs.size(), 2u);
    EXPECT_EQ(h.out[2].prs.size(), 1u);
    for (const auto &p : h.out)
        EXPECT_LE(p.wireBytes(), cfg.proto.mtuBytes);
}

TEST(Concatenator, OversizedPrPanics)
{
    ConcatConfig cfg;
    Harness h(cfg);
    auto cc = h.make();
    EXPECT_THROW(cc.push(responsePr(1, 2000), 0), std::logic_error);
}

TEST(Concatenator, EqOccupancyIsBoundedByActiveQueues)
{
    ConcatConfig cfg;
    cfg.delay = 10 * ticks::us;
    Harness h(cfg);
    auto cc = h.make();
    const std::uint32_t dests = 50;
    for (NodeId d = 0; d < dests; ++d)
        cc.push(readPr(d), d);
    // One EQ entry per non-empty CQ, as in the hardware design.
    EXPECT_EQ(cc.maxEqOccupancy(), dests);
    h.eq.run();
    EXPECT_EQ(cc.packetsEmitted(), dests);
}

TEST(Concatenator, FlushAllDrainsEverything)
{
    ConcatConfig cfg;
    cfg.delay = 1 * ticks::s; // would otherwise wait forever
    Harness h(cfg);
    auto cc = h.make();
    cc.push(readPr(1), 0);
    cc.push(readPr(2), 1);
    cc.flushAll();
    EXPECT_EQ(h.out.size(), 2u);
    EXPECT_EQ(cc.pendingPrs(), 0u);
    h.eq.run(); // stale timers find newer generations and do nothing
    EXPECT_EQ(h.out.size(), 2u);
}

/** A flushed CQ keeps capacity for its own last packet, never a
 *  larger buffer released elsewhere. */
TEST(Concatenator, HeldCapacityFollowsTheLastPacket)
{
    ConcatConfig cfg;
    cfg.delay = 1 * ticks::s;
    Harness h(cfg);
    auto cc = h.make();
    std::vector<PropertyRequest> big;
    big.reserve(1024);
    recyclePrBuffer(std::move(big));
    for (int i = 0; i < 3; ++i)
        cc.push(readPr(i), 0);
    cc.flushAll();
    ASSERT_EQ(h.out.size(), 1u);
    EXPECT_EQ(cc.heldBufferBytes(), 3 * sizeof(PropertyRequest));
}

TEST(Concatenator, StatsAverages)
{
    ConcatConfig cfg;
    cfg.delay = 100;
    Harness h(cfg);
    auto cc = h.make();
    for (int i = 0; i < 10; ++i)
        cc.push(readPr(i), 0);
    h.eq.run();
    EXPECT_EQ(cc.prsPushed(), 10u);
    EXPECT_EQ(cc.packetsEmitted(), 1u);
    EXPECT_DOUBLE_EQ(cc.prsPerPacket().mean(), 10.0);
}

TEST(Concatenator, VirtualizedModeRecyclesPhysicalQueues)
{
    ConcatConfig cfg;
    cfg.delay = 10 * ticks::us;
    cfg.virtualized = true;
    cfg.physicalCqBytes = 128;
    cfg.numPhysicalCqs = 4;
    Harness h(cfg);
    auto cc = h.make();

    // Five destinations each need one physical CQ; the fifth push must
    // evict (flush) the fullest virtual CQ to free a block.
    cc.push(readPr(0), 0);
    cc.push(readPr(1), 0); // dest 0 now the fullest (36 B)
    cc.push(readPr(2), 1);
    cc.push(readPr(3), 2);
    cc.push(readPr(4), 3);
    EXPECT_TRUE(h.out.empty());
    cc.push(readPr(5), 4);
    ASSERT_EQ(h.out.size(), 1u);
    EXPECT_EQ(h.out[0].dest, 0u);
    EXPECT_EQ(h.out[0].prs.size(), 2u);
    h.eq.run();
    // Everything eventually leaves.
    std::size_t total = 0;
    for (auto &p : h.out)
        total += p.prs.size();
    EXPECT_EQ(total, 6u);
}

TEST(Concatenator, VirtualizedFillsLikeMtuQueues)
{
    ConcatConfig cfg;
    cfg.delay = 10 * ticks::us;
    cfg.virtualized = true;
    cfg.physicalCqBytes = 128;
    cfg.numPhysicalCqs = 64;
    Harness h(cfg);
    auto cc = h.make();
    for (int i = 0; i < 79; ++i)
        cc.push(readPr(i), 5);
    ASSERT_EQ(h.out.size(), 1u);
    EXPECT_EQ(h.out[0].prs.size(), 79u);
}

TEST(Deconcatenate, ReturnsAllPrs)
{
    Packet p;
    p.dest = 3;
    p.type = PrType::Read;
    p.concatenated = true;
    p.prs.push_back(readPr(1));
    p.prs.push_back(readPr(2));
    auto prs = deconcatenate(std::move(p));
    ASSERT_EQ(prs.size(), 2u);
    EXPECT_EQ(prs[0].idx, 1u);
    EXPECT_EQ(prs[1].idx, 2u);
}

TEST(Concatenator, RandomStreamNeverExceedsMtu)
{
    // Property test: random mixes of PR types, sizes and destinations
    // never produce an oversized packet and never lose a PR.
    ConcatConfig cfg;
    cfg.delay = 300 * ticks::ns;
    Harness h(cfg);
    auto cc = h.make();
    Rng rng(99);
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
        NodeId dest = static_cast<NodeId>(rng.uniformInt(0, 15));
        if (rng.uniform() < 0.5) {
            cc.push(readPr(i), dest);
        } else {
            std::uint32_t payload = 4u << rng.uniformInt(0, 7); // 4..512
            cc.push(responsePr(i, payload), dest);
        }
        if (rng.uniform() < 0.01)
            h.eq.runUntil(h.eq.now() + 1 * ticks::us);
    }
    h.eq.run();
    std::size_t total = 0;
    for (const auto &p : h.out) {
        EXPECT_LE(p.wireBytes(), cfg.proto.mtuBytes);
        for (const auto &pr : p.prs) {
            EXPECT_EQ(pr.type, p.type);
        }
        total += p.prs.size();
    }
    EXPECT_EQ(total, static_cast<std::size_t>(n));
    EXPECT_EQ(cc.prsPushed(), static_cast<std::uint64_t>(n));
}
