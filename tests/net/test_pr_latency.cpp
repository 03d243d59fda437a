/**
 * @file
 * The PR lifecycle stamp board (net/pr_latency.hh): stamps are kept per
 * attempt, the accepted attempt's stamps reach its tenant's latency
 * collector and its slice's average, an answered reqId or a failed
 * command leaves nothing behind, and how nodes sit on shards does not
 * change what the board reports.
 */

#include <gtest/gtest.h>

#include <vector>

#include "net/pr_latency.hh"

using namespace netsparse;

namespace {

PropertyRequest
attemptOf(std::uint32_t reqId, std::uint8_t attempt,
          std::uint16_t srcTid = 0)
{
    PropertyRequest pr;
    pr.src = 7;
    pr.srcTid = srcTid;
    pr.tenant = 1;
    pr.reqId = reqId;
    pr.attempt = attempt;
    return pr;
}

/** True when @p a and @p b hold the same samples in every stage. */
bool
sameStages(const PrLatencyStats &a, const PrLatencyStats &b)
{
    for (const Histogram PrLatencyStats::*stage :
         {&PrLatencyStats::nicNs, &PrLatencyStats::requestNetNs,
          &PrLatencyStats::cacheNs, &PrLatencyStats::remoteNs,
          &PrLatencyStats::responseNetNs, &PrLatencyStats::totalNs})
        for (std::size_t i = 0; i < (a.*stage).numBuckets(); ++i)
            if ((a.*stage).bucket(i) != (b.*stage).bucket(i))
                return false;
    return a.responses == b.responses && a.cacheServed == b.cacheServed;
}

/** Eight nodes, all on shard 0. */
const std::vector<std::uint32_t> oneShard(8, 0);

} // namespace

TEST(StampBoard, StampsFollowTheAcceptedAttempt)
{
    const Tick ns = ticks::ns;
    StampBoard board(oneShard, 2, 1);
    board.issue(attemptOf(4, 0), 100 * ns);
    board.stampEgress(attemptOf(4, 0), 150 * ns);
    board.issue(attemptOf(4, 1), 300 * ns);
    board.stampEgress(attemptOf(4, 1), 320 * ns);
    board.stampTorIngress(attemptOf(4, 0), 400 * ns);

    // The first attempt answered first: its stamps, not the latest,
    // reach tenant 1's collector and node 7's tenant-1 slice.
    board.accept(attemptOf(4, 0), 1, 1000 * ns);
    PrLatencyStats want;
    want.record(PrStamps{100 * ns, 150 * ns, 400 * ns}, attemptOf(4, 0),
                1000 * ns);
    EXPECT_TRUE(sameStages(board.latency(1), want));
    EXPECT_EQ(board.latency(0).responses, 0u);
    EXPECT_EQ(board.totalNs(7, 1).count(), 1u);
    EXPECT_DOUBLE_EQ(board.totalNs(7, 1).mean(), 900.0);
    EXPECT_EQ(board.totalNs(7, 0).count(), 0u);

    // Both attempts left the board: the retransmit's copy, still in
    // the fabric, and a second answer to either find nothing.
    board.stampTorIngress(attemptOf(4, 1), 500 * ns);
    board.accept(attemptOf(4, 1), 1, 1100 * ns);
    board.accept(attemptOf(4, 0), 1, 1200 * ns);
    EXPECT_TRUE(sameStages(board.latency(1), want));
    EXPECT_EQ(board.totalNs(7, 1).count(), 1u);
}

TEST(StampBoard, GrowsWithTheAttemptsInFlightAndDropsAFailedClient)
{
    const Tick ns = ticks::ns;
    StampBoard board(oneShard, 2, 2);
    const std::uint32_t n = 5000; // several doublings past the start
    for (std::uint32_t r = 0; r < n; ++r) {
        board.issue(attemptOf(r, 0, 0), (10 + r) * ns);
        board.issue(attemptOf(r, 0, 1), (20 + r) * ns);
    }

    board.dropClient(1, 7, 0);
    for (std::uint32_t r = 0; r < n; ++r) {
        board.accept(attemptOf(r, 0, 1), 0, (1020 + r) * ns);
        board.accept(attemptOf(r, 0, 0), 0, (1010 + r) * ns);
    }
    // Client 1 kept every issue tick; the dropped client 0 has none.
    EXPECT_EQ(board.latency(1).responses, n);
    const Average &total = board.totalNs(7, 1);
    EXPECT_EQ(total.count(), n);
    EXPECT_DOUBLE_EQ(total.min(), 1000.0);
    EXPECT_DOUBLE_EQ(total.max(), 1000.0);

    // Every answered reqId left the board.
    for (std::uint32_t r = 0; r < n; ++r)
        board.accept(attemptOf(r, 0, 1), 0, (2020 + r) * ns);
    EXPECT_EQ(board.latency(1).responses, n);
    EXPECT_EQ(total.count(), n);
}

TEST(StampBoard, ShardLayoutDoesNotChangeWhatItReports)
{
    // The same responses, from every node and both tenants, on a board
    // whose nodes all sit on one shard and on one that splits them.
    const Tick ns = ticks::ns;
    StampBoard one(oneShard, 2, 1);
    StampBoard two({0, 0, 0, 1, 1, 1, 0, 1}, 2, 1);
    for (StampBoard *board : {&one, &two}) {
        for (std::uint32_t r = 0; r < 64; ++r) {
            PropertyRequest pr = attemptOf(r, 0);
            pr.src = r % 8;
            pr.tenant = r % 3 == 0 ? 1 : 0;
            pr.servedByCache = r % 5 == 0;
            pr.fetchTick = (700 + 13 * r) * ns;
            board->issue(pr, (100 + r) * ns);
            board->stampEgress(pr, (150 + 2 * r) * ns);
            board->stampTorIngress(pr, (400 + 3 * r) * ns);
            board->accept(pr, 0, (1000 + 17 * r) * ns);
        }
    }
    for (std::uint32_t t = 0; t < 2; ++t) {
        EXPECT_GT(one.latency(t).responses, 0u);
        EXPECT_TRUE(sameStages(one.latency(t), two.latency(t))) << t;
        for (NodeId n = 0; n < 8; ++n) {
            const Average &a = one.totalNs(n, t), &b = two.totalNs(n, t);
            EXPECT_EQ(a.count(), b.count());
            EXPECT_EQ(a.sum(), b.sum());
            EXPECT_EQ(a.min(), b.min());
            EXPECT_EQ(a.max(), b.max());
        }
    }
}

TEST(PrLatencyStats, RecordsTheStagesBetweenStamps)
{
    PrStamps s;
    s.issueTick = 1000 * ticks::ns;
    s.egressTick = 1100 * ticks::ns;
    s.torIngressTick = 1400 * ticks::ns;
    PropertyRequest resp;
    resp.type = PrType::Response;
    resp.fetchTick = 2400 * ticks::ns;

    PrLatencyStats lat;
    lat.record(s, resp, 3000 * ticks::ns);
    EXPECT_EQ(lat.responses, 1u);
    EXPECT_EQ(lat.totalNs.totalSamples(), 1u);
    EXPECT_EQ(lat.remoteNs.totalSamples(), 1u);
    EXPECT_EQ(lat.cacheNs.totalSamples(), 0u);

    // An attempt that never reached the board records nothing.
    EXPECT_FALSE(lat.record(PrStamps{}, resp, 4000 * ticks::ns));
    EXPECT_EQ(lat.responses, 1u);
}
