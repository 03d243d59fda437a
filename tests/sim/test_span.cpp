/**
 * @file
 * Unit tests for the span-tracing primitives: the deterministic
 * sampling hash, the SpanParams capture-mode logic, the flight
 * recorder's loss-free tail pruning and bounded retire records, the
 * shard-partition invariance of buildSpanRun, the critical-path tiling
 * property, and
 * TraceWriter::derivedPath (the per-point/per-shard file naming the
 * sweep and shard engines use).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/critical_path.hh"
#include "sim/span.hh"
#include "sim/trace.hh"

using namespace netsparse;

TEST(SpanId, DeterministicNonZeroAndIdentityKeyed)
{
    std::uint64_t a = spanIdFor(1, 0, 3, 0, 41);
    EXPECT_EQ(a, spanIdFor(1, 0, 3, 0, 41));
    EXPECT_NE(a, 0u);
    // Every identity field participates in the hash.
    EXPECT_NE(a, spanIdFor(2, 0, 3, 0, 41));
    EXPECT_NE(a, spanIdFor(1, 1, 3, 0, 41));
    EXPECT_NE(a, spanIdFor(1, 0, 4, 0, 41));
    EXPECT_NE(a, spanIdFor(1, 0, 3, 1, 41));
    EXPECT_NE(a, spanIdFor(1, 0, 3, 0, 42));
}

TEST(SpanId, SamplingRateIsApproximatelyOneInN)
{
    SpanParams p;
    p.sampleEvery = 16;
    int sampled = 0;
    const int total = 20000;
    for (int req = 0; req < total; ++req)
        if (p.sampled(spanIdFor(kSpanSeed, 0, req % 32, 0,
                                static_cast<std::uint32_t>(req))))
            ++sampled;
    // 1/16 of 20000 = 1250; allow a generous band for hash variance.
    EXPECT_GT(sampled, total / 16 / 2);
    EXPECT_LT(sampled, total / 16 * 2);
}

TEST(SpanParams, ModesAndThresholds)
{
    SpanParams off;
    EXPECT_FALSE(off.enabled());
    EXPECT_EQ(off.sampleThreshold(), 0u);

    SpanParams all;
    all.sampleEvery = 1;
    EXPECT_TRUE(all.enabled());
    EXPECT_FALSE(all.recordAll());
    EXPECT_EQ(all.sampleThreshold(), ~0ull);
    EXPECT_TRUE(all.sampled(~0ull));

    SpanParams tail;
    tail.tailKeep = 4;
    EXPECT_TRUE(tail.enabled());
    EXPECT_TRUE(tail.recordAll());
    EXPECT_FALSE(tail.sampled(1)); // no sampling knob -> never sampled
}

namespace {

SpanRetire
mkRetire(std::uint64_t id, Tick issue, Tick retire,
         std::uint16_t tenant = 0)
{
    SpanRetire r;
    r.spanId = id;
    r.issueTick = issue;
    r.retireTick = retire;
    r.tenant = tenant;
    r.src = 0;
    r.reqId = static_cast<std::uint32_t>(id);
    return r;
}

} // namespace

TEST(SpanBuffer, TailKeepPrunesEverythingOutsideTopK)
{
    SpanParams p;
    p.tailKeep = 2;
    SpanBuffer buf(p);
    // Five spans with totals 10, 20, ..., 50.
    for (std::uint64_t id = 1; id <= 5; ++id) {
        buf.record(id, SpanStage::Issue, 0, 0);
        buf.retire(mkRetire(id, 0, id * 10));
    }
    // Top-2 by total: ids 5 (50) and 4 (40). Id 5 also ends last, so
    // it is the tenant finisher; 1 and 2 were evicted and pruned
    // (3 got displaced from the heap but was never re-checked until
    // eviction, so the count is the evicted ones).
    EXPECT_NE(buf.eventsOf(5), nullptr);
    EXPECT_NE(buf.eventsOf(4), nullptr);
    EXPECT_EQ(buf.eventsOf(1), nullptr);
    EXPECT_EQ(buf.eventsOf(2), nullptr);
    EXPECT_GE(buf.prunedSpans(), 2u);
    EXPECT_EQ(buf.recorded(), 5u);
    // Only the two survivors keep their retire records.
    EXPECT_EQ(buf.records().size(), 2u);
    EXPECT_STREQ(buf.keptAs(5), "tail");
    EXPECT_STREQ(buf.keptAs(4), "tail");
    EXPECT_EQ(buf.keptAs(3), nullptr);
    EXPECT_TRUE(buf.isFinisher(5));
    EXPECT_FALSE(buf.isFinisher(4));
}

TEST(SpanBuffer, TailModeHoldsAtMostTopKPlusFinisherRecords)
{
    const std::uint32_t k = 8;
    SpanParams p;
    p.tailKeep = k;
    SpanBuffer buf(p);
    std::uint64_t state = 12345;
    for (std::uint64_t id = 1; id <= 10000; ++id) {
        state = splitmix64(state);
        Tick issue = id * 10;
        buf.record(id, SpanStage::Issue, 0, issue);
        buf.retire(mkRetire(id, issue, issue + state % 5000,
                            static_cast<std::uint16_t>(id % 3)));
        ASSERT_LE(buf.records().size(), k + 3) << id;
    }
    EXPECT_EQ(buf.recorded(), 10000u);
    // Every surviving record still has its events, and nothing else
    // does.
    for (const auto &r : buf.records())
        EXPECT_NE(buf.eventsOf(r.first), nullptr);
    EXPECT_EQ(buf.prunedSpans(), 10000u - buf.records().size());
}

TEST(SpanBuffer, FinisherSurvivesPruningEvenWithTinyLatency)
{
    SpanParams p;
    p.tailKeep = 1;
    SpanBuffer buf(p);
    buf.record(10, SpanStage::Issue, 0, 0);
    buf.retire(mkRetire(10, 0, 1000)); // the big one
    buf.record(11, SpanStage::Issue, 0, 0);
    buf.retire(mkRetire(11, 2000, 2001)); // tiny, but retires last
    // 11 lost the top-1 heap slot to 10 but is the tenant finisher,
    // so its events must not be pruned.
    EXPECT_NE(buf.eventsOf(10), nullptr);
    EXPECT_NE(buf.eventsOf(11), nullptr);
    EXPECT_STREQ(buf.keptAs(11), "finisher");
}

TEST(SpanRun, MergeIsInvariantToHowBuffersPartitionTheRun)
{
    SpanParams p;
    p.tailKeep = 2;
    p.tailThreshold = 35;

    // The same execution recorded once into one buffer and once split
    // across two (events on the "remote" shard, retire on the owner).
    auto record = [&](SpanBuffer &issueSide, SpanBuffer &hopSide) {
        for (std::uint64_t id = 1; id <= 6; ++id) {
            issueSide.record(id, SpanStage::Issue, 0, id);
            hopSide.record(id, SpanStage::LinkTx, 1, id + 1, 2);
            issueSide.record(id, SpanStage::Retire, 0, id * 10);
            issueSide.retire(mkRetire(id, id, id * 10,
                                      id % 2 ? 0 : 1));
        }
    };
    SpanBuffer whole(p);
    record(whole, whole);
    SpanBuffer left(p), right(p);
    record(left, right);

    SpanRun a, b;
    a.params = b.params = p;
    buildSpanRun(a, {&whole});
    buildSpanRun(b, {&left, &right});

    ASSERT_EQ(a.spans.size(), b.spans.size());
    for (std::size_t i = 0; i < a.spans.size(); ++i) {
        EXPECT_EQ(a.spans[i].info.spanId, b.spans[i].info.spanId);
        EXPECT_EQ(a.spans[i].kept, b.spans[i].kept);
        EXPECT_EQ(a.spans[i].finisher, b.spans[i].finisher);
        EXPECT_EQ(a.spans[i].events.size(), b.spans[i].events.size());
    }
    // Selection: threshold keeps 40/50/60 (ids 4,5,6); top-2 of the
    // rest adds 30 and 20 (ids 3,2); finishers 6 (tenant 1) and 5
    // (tenant 0) are already kept.
    EXPECT_EQ(a.spans.size(), 5u);
    EXPECT_EQ(a.spans.front().info.spanId, 6u); // largest total first
    EXPECT_TRUE(a.spans.front().finisher);
}

TEST(CriticalPath, SegmentsTileTheSpanExactly)
{
    // issue at 100; NIC egress at 150; wire 150..180; pipe 200..210;
    // retire at 400. Waits fill 100..150, 180..200 and 210..400.
    std::vector<CpEvent> events = {
        {100, 0, 0, "issue"},   {150, 0, 1, "nicEgress"},
        {150, 30, 2, "linkTx"}, {200, 10, 3, "switchPipe"},
        {400, 0, 0, "retire"},
    };
    CriticalPath cp = computeCriticalPath(100, 400, events);
    EXPECT_EQ(cp.attributedTicks(), cp.totalTicks());
    ASSERT_EQ(cp.segments.size(), 5u);
    EXPECT_TRUE(cp.segments[0].wait); // 100..150 waiting for the NIC
    EXPECT_EQ(cp.segments[0].ticks(), 50);
    EXPECT_FALSE(cp.segments[1].wait); // 150..180 on the wire
    EXPECT_EQ(cp.segments[1].stage, "linkTx");
    EXPECT_TRUE(cp.segments[4].wait); // 210..400 waiting to retire
    EXPECT_EQ(cp.segments[4].ticks(), 190);
}

TEST(CriticalPath, PreIssueEventsClampToZeroWidth)
{
    // A failed first attempt burned wire time before the accepted
    // attempt's issue tick; it must not break the tiling.
    std::vector<CpEvent> events = {
        {10, 30, 5, "linkTx"}, // earlier attempt, entirely pre-issue
        {100, 0, 0, "issue"},  {120, 10, 2, "linkTx"},
        {200, 0, 0, "retire"},
    };
    CriticalPath cp = computeCriticalPath(100, 200, events);
    EXPECT_EQ(cp.attributedTicks(), cp.totalTicks());
    for (const CpSegment &s : cp.segments) {
        EXPECT_GE(s.start, 100);
        EXPECT_LE(s.end, 200);
    }
}

TEST(TraceWriter, DerivedPathKeepsTheExtensionLast)
{
    EXPECT_EQ(TraceWriter::derivedPath("run.json", "point3"),
              "run.point3.json");
    EXPECT_EQ(TraceWriter::derivedPath("out/dir/run.json", "shard1"),
              "out/dir/run.shard1.json");
    // Dots in directory names must not be mistaken for extensions.
    EXPECT_EQ(TraceWriter::derivedPath("v1.2/trace", "point0"),
              "v1.2/trace.point0");
    EXPECT_EQ(TraceWriter::derivedPath("trace", "point0"),
              "trace.point0");
    EXPECT_EQ(TraceWriter::derivedPath("a.b/c.d.json", "p"),
              "a.b/c.d.p.json");
}
