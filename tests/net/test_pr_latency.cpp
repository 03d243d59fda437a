/**
 * @file
 * The PR lifecycle stamp board (net/pr_latency.hh): stamps are kept per
 * attempt, the accepted attempt's stamps reach the latency collector,
 * and an answered reqId or a failed command leaves nothing behind.
 */

#include <gtest/gtest.h>

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

} // namespace

TEST(StampBoard, StampsFollowTheAcceptedAttempt)
{
    StampBoard board;
    board.issue(attemptOf(4, 0), 100);
    board.stampEgress(attemptOf(4, 0), 150);
    board.issue(attemptOf(4, 1), 300);
    board.stampEgress(attemptOf(4, 1), 320);
    board.stampTorIngress(attemptOf(4, 0), 400);
    EXPECT_EQ(board.size(), 2u);

    // The first attempt answered first: its stamps, not the latest.
    PrStamps s = board.accept(attemptOf(4, 0), 1);
    EXPECT_EQ(s.issueTick, 100u);
    EXPECT_EQ(s.egressTick, 150u);
    EXPECT_EQ(s.torIngressTick, 400u);
    EXPECT_EQ(board.size(), 0u);

    // The retransmit's copy is still in the fabric: its later stamps
    // and its duplicate answer find nothing.
    board.stampTorIngress(attemptOf(4, 1), 500);
    EXPECT_EQ(board.size(), 0u);
    EXPECT_EQ(board.accept(attemptOf(4, 1), 1).issueTick, 0u);
}

TEST(StampBoard, GrowsWithTheAttemptsInFlightAndDropsAFailedClient)
{
    StampBoard board;
    const std::uint32_t n = 5000; // several doublings past the start
    for (std::uint32_t r = 0; r < n; ++r) {
        board.issue(attemptOf(r, 0, 0), 10 + r);
        board.issue(attemptOf(r, 0, 1), 20 + r);
    }
    EXPECT_EQ(board.size(), 2u * n);

    board.dropClient(1, 7, 0);
    EXPECT_EQ(board.size(), n);
    for (std::uint32_t r = 0; r < n; ++r) {
        EXPECT_EQ(board.accept(attemptOf(r, 0, 1), 0).issueTick, 20 + r);
        EXPECT_EQ(board.accept(attemptOf(r, 0, 0), 0).issueTick, 0u);
    }
    EXPECT_EQ(board.size(), 0u);
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
    EXPECT_DOUBLE_EQ(lat.totalAvgNs.mean(), 2000.0);

    // An attempt that never reached the board records nothing.
    lat.record(PrStamps{}, resp, 4000 * ticks::ns);
    EXPECT_EQ(lat.responses, 1u);
}
