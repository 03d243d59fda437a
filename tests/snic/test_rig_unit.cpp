/** @file Tests for the RIG units driven through a mock SNIC context. */

#include <gtest/gtest.h>

#include <vector>

#include "snic/rig_unit.hh"

using namespace netsparse;

namespace {

/**
 * A scripted SnicContext: captures PRs, controllable backpressure. The
 * idxs are split over 4 nodes in equal rows: with 1024 idxs, node n
 * owns [256n, 256n + 256), and node 0 (this one) holds idxs < 256.
 */
class MockCtx : public SnicContext
{
  public:
    MockCtx(EventQueue &eq, std::uint64_t num_idxs)
        : eq_(eq), owners_(Partition1D::equalRows(
                       static_cast<std::uint32_t>(num_idxs), 4)),
          filter_(num_idxs), pcie_(eq, {})
    {}

    NodeId selfNode() const override { return 0; }
    const Partition1D &owners() const override { return owners_; }

    void
    sendPr(PropertyRequest &&pr, NodeId dest) override
    {
        sent.push_back({std::move(pr), dest, eq_.now()});
    }

    bool txBackpressured() const override { return backpressured; }
    IdxFilter &idxFilter() override { return filter_; }
    PcieModel &pcie() override { return pcie_; }

    struct Sent
    {
        PropertyRequest pr;
        NodeId dest;
        Tick when;
    };

    std::vector<Sent> sent;
    bool backpressured = false;

  private:
    EventQueue &eq_;
    Partition1D owners_;
    IdxFilter filter_;
    PcieModel pcie_;
};

/** Build a response for a captured read PR. */
PropertyRequest
respond(const PropertyRequest &read)
{
    PropertyRequest r = read;
    r.type = PrType::Response;
    r.payloadBytes = r.propBytes;
    r.checksum = propertyChecksum(r.idx);
    return r;
}

struct ClientHarness
{
    EventQueue eq;
    MockCtx ctx{eq, 1024};
    RigUnitConfig cfg;
    int completions = 0;
    bool lastSuccess = false;

    RigCommand
    command(const std::vector<std::uint32_t> &idxs)
    {
        RigCommand cmd;
        cmd.idxs = idxs.data();
        cmd.count = idxs.size();
        cmd.propBytes = 64;
        cmd.onComplete = [this](bool ok) {
            ++completions;
            lastSuccess = ok;
        };
        return cmd;
    }
};

} // namespace

TEST(RigClient, IssuesFiltersAndCoalesces)
{
    ClientHarness h;
    RigClientUnit unit(h.eq, h.cfg, h.ctx, 3);
    // Pre-fetched idx 258 (filter bit set); idx 2 is local (< 256);
    // idx 257 repeats (coalesced).
    h.ctx.idxFilter().set(258);
    std::vector<std::uint32_t> idxs{257, 258, 2, 257, 513};
    unit.start(h.command(idxs));
    h.eq.run();

    const auto &st = unit.stats();
    EXPECT_EQ(st.prsIssued, 2u); // 257 and 513
    EXPECT_EQ(st.filtered, 1u);  // 258
    EXPECT_EQ(st.localIdxs, 1u); // 2
    EXPECT_EQ(st.coalesced, 1u); // second 257
    EXPECT_EQ(st.idxsProcessed, idxs.size());
    ASSERT_EQ(h.ctx.sent.size(), 2u);

    const auto &pr = h.ctx.sent[0].pr;
    EXPECT_EQ(pr.type, PrType::Read);
    EXPECT_EQ(pr.src, 0u);
    EXPECT_EQ(pr.srcTid, 3u);
    EXPECT_EQ(pr.idx, 257u);
    EXPECT_EQ(pr.propBytes, 64u);
    EXPECT_EQ(h.ctx.sent[0].dest, 1u); // 257 is in node 1's rows

    // Still waiting for responses.
    EXPECT_TRUE(unit.busy());
    EXPECT_EQ(h.completions, 0);

    unit.onResponse(respond(h.ctx.sent[0].pr));
    unit.onResponse(respond(h.ctx.sent[1].pr));
    h.eq.run();
    EXPECT_EQ(h.completions, 1);
    EXPECT_TRUE(h.lastSuccess);
    EXPECT_FALSE(unit.busy());
    // The fetched idxs are now published in the filter.
    EXPECT_TRUE(h.ctx.idxFilter().test(257));
    EXPECT_TRUE(h.ctx.idxFilter().test(513));
}

TEST(RigClient, EmptyCommandCompletesImmediately)
{
    ClientHarness h;
    RigClientUnit unit(h.eq, h.cfg, h.ctx, 0);
    std::vector<std::uint32_t> idxs;
    unit.start(h.command(idxs));
    h.eq.run();
    EXPECT_EQ(h.completions, 1);
    EXPECT_TRUE(h.lastSuccess);
}

TEST(RigClient, AllLocalCompletesWithoutTraffic)
{
    ClientHarness h;
    RigClientUnit unit(h.eq, h.cfg, h.ctx, 0);
    std::vector<std::uint32_t> idxs{0, 1, 2, 3};
    unit.start(h.command(idxs));
    h.eq.run();
    EXPECT_EQ(h.completions, 1);
    EXPECT_TRUE(h.ctx.sent.empty());
    EXPECT_EQ(unit.stats().localIdxs, 4u);
}

TEST(RigClient, StallsOnFullPendingTableAndResumes)
{
    ClientHarness h;
    h.cfg.pendingCapacity = 2;
    RigClientUnit unit(h.eq, h.cfg, h.ctx, 0);
    std::vector<std::uint32_t> idxs{256, 512, 768, 257};
    unit.start(h.command(idxs));
    h.eq.run();
    // Only two PRs fit in the pending table.
    EXPECT_EQ(h.ctx.sent.size(), 2u);
    EXPECT_GE(unit.stats().pendingStalls, 1u);

    unit.onResponse(respond(h.ctx.sent[0].pr));
    h.eq.run();
    EXPECT_EQ(h.ctx.sent.size(), 3u);

    unit.onResponse(respond(h.ctx.sent[1].pr));
    h.eq.run();
    EXPECT_EQ(h.ctx.sent.size(), 4u);

    unit.onResponse(respond(h.ctx.sent[2].pr));
    unit.onResponse(respond(h.ctx.sent[3].pr));
    h.eq.run();
    EXPECT_EQ(h.completions, 1);
    EXPECT_TRUE(h.lastSuccess);
}

TEST(RigClient, BackpressureRetriesLater)
{
    ClientHarness h;
    h.ctx.backpressured = true;
    RigClientUnit unit(h.eq, h.cfg, h.ctx, 0);
    std::vector<std::uint32_t> idxs{256, 512};
    unit.start(h.command(idxs));
    // Run a little: nothing can be sent.
    h.eq.runUntil(2 * ticks::us);
    EXPECT_TRUE(h.ctx.sent.empty());
    EXPECT_GE(unit.stats().txStalls, 1u);

    h.ctx.backpressured = false;
    h.eq.runUntil(4 * ticks::us);
    EXPECT_EQ(h.ctx.sent.size(), 2u);
}

TEST(RigClient, WatchdogFailsLostOperations)
{
    ClientHarness h;
    h.cfg.watchdogTimeout = 10 * ticks::us;
    RigClientUnit unit(h.eq, h.cfg, h.ctx, 0);
    std::vector<std::uint32_t> idxs{256, 512};
    unit.start(h.command(idxs));
    h.eq.run(); // responses never arrive
    EXPECT_EQ(h.completions, 1);
    EXPECT_FALSE(h.lastSuccess);
    EXPECT_EQ(unit.stats().watchdogFailures, 1u);
    EXPECT_FALSE(unit.busy());

    // A late response is recognized as stale, not delivered.
    ASSERT_GE(h.ctx.sent.size(), 1u);
    unit.onResponse(respond(h.ctx.sent[0].pr));
    EXPECT_EQ(unit.stats().staleResponses, 1u);
}

TEST(RigClient, WatchdogDoesNotFireOnSuccess)
{
    ClientHarness h;
    h.cfg.watchdogTimeout = 1 * ticks::ms;
    RigClientUnit unit(h.eq, h.cfg, h.ctx, 0);
    std::vector<std::uint32_t> idxs{256};
    unit.start(h.command(idxs));
    h.eq.runUntil(5 * ticks::us);
    ASSERT_EQ(h.ctx.sent.size(), 1u);
    unit.onResponse(respond(h.ctx.sent[0].pr));
    h.eq.run(); // runs past the watchdog deadline
    EXPECT_EQ(h.completions, 1);
    EXPECT_TRUE(h.lastSuccess);
    EXPECT_EQ(unit.stats().watchdogFailures, 0u);
}

TEST(RigClient, StaleResponseCannotRetireTheNextCommandsPending)
{
    // Regression: a late response from a watchdog-failed command carries
    // an idx the *next* command also requested. It must be rejected on
    // its stale reqId range, not retire the new command's pending entry
    // (which would complete the new command with a phantom response).
    ClientHarness h;
    h.cfg.watchdogTimeout = 10 * ticks::us;
    RigClientUnit unit(h.eq, h.cfg, h.ctx, 0);
    std::vector<std::uint32_t> idxs{257};
    unit.start(h.command(idxs));
    h.eq.run(); // no response; the watchdog fails the command
    EXPECT_EQ(h.completions, 1);
    EXPECT_FALSE(h.lastSuccess);
    ASSERT_EQ(h.ctx.sent.size(), 1u);
    PropertyRequest old_response = respond(h.ctx.sent[0].pr);

    // The retry asks for the same idx; a fresh PR (new reqId) goes out.
    unit.start(h.command(idxs));
    h.eq.runUntil(h.eq.now() + 2 * ticks::us);
    ASSERT_EQ(h.ctx.sent.size(), 2u);
    EXPECT_NE(h.ctx.sent[1].pr.reqId, old_response.reqId);

    // The zombie response from the dead command arrives now.
    unit.onResponse(old_response);
    EXPECT_EQ(unit.stats().staleResponses, 1u);
    EXPECT_TRUE(unit.busy()); // it must NOT have completed the command
    EXPECT_EQ(h.completions, 1);

    // Only the new command's own response finishes it.
    unit.onResponse(respond(h.ctx.sent[1].pr));
    h.eq.runUntil(h.eq.now() + 2 * ticks::us);
    EXPECT_EQ(h.completions, 2);
    EXPECT_TRUE(h.lastSuccess);
}

TEST(RigClient, WatchdogResetLeavesNoStaleChunkEvent)
{
    // Regression: the watchdog fires while a scheduleChunk retry event
    // is still in flight (tx backpressure keeps rescheduling). The next
    // command must start its own chunk immediately; the stale event must
    // neither suppress it nor fire into the new command.
    ClientHarness h;
    h.cfg.watchdogTimeout = 10 * ticks::us;
    h.cfg.txRetryInterval = 100 * ticks::us; // stale event far out
    h.ctx.backpressured = true;
    RigClientUnit unit(h.eq, h.cfg, h.ctx, 0);
    std::vector<std::uint32_t> idxs{256, 512};
    unit.start(h.command(idxs));
    h.eq.runUntil(15 * ticks::us); // chunk stalls on tx; watchdog fires
    EXPECT_EQ(h.completions, 1);
    EXPECT_FALSE(h.lastSuccess);
    EXPECT_TRUE(h.ctx.sent.empty());

    // Network heals; the host retries straight away.
    h.ctx.backpressured = false;
    unit.start(h.command(idxs));
    h.eq.runUntil(20 * ticks::us);
    // Both PRs issued promptly -- not at the stale event's 100 us mark.
    ASSERT_EQ(h.ctx.sent.size(), 2u);
    unit.onResponse(respond(h.ctx.sent[0].pr));
    unit.onResponse(respond(h.ctx.sent[1].pr));
    h.eq.run();
    EXPECT_EQ(h.completions, 2);
    EXPECT_TRUE(h.lastSuccess);
    EXPECT_EQ(unit.stats().watchdogFailures, 1u);
}

TEST(RigClient, RetransmitBackoffDoublesAndExhaustsBudget)
{
    ClientHarness h;
    h.cfg.retry.enabled = true;
    h.cfg.retry.timeout = 10 * ticks::us;
    h.cfg.retry.backoff = 2.0;
    h.cfg.retry.maxRetries = 3;
    RigClientUnit unit(h.eq, h.cfg, h.ctx, 0);
    std::vector<std::uint32_t> idxs{256};
    unit.start(h.command(idxs));
    h.eq.run(); // responses never arrive; the budget runs dry

    const auto &st = unit.stats();
    EXPECT_EQ(st.retransmits, 3u);
    EXPECT_EQ(st.retriesExhausted, 1u);
    EXPECT_EQ(h.completions, 1);
    EXPECT_FALSE(h.lastSuccess);

    // 1 original + 3 retransmits, all carrying the same reqId.
    ASSERT_EQ(h.ctx.sent.size(), 4u);
    for (const auto &s : h.ctx.sent)
        EXPECT_EQ(s.pr.reqId, h.ctx.sent[0].pr.reqId);

    // Exponential backoff: each gap doubles the previous one.
    Tick d1 = h.ctx.sent[1].when - h.ctx.sent[0].when;
    Tick d2 = h.ctx.sent[2].when - h.ctx.sent[1].when;
    Tick d3 = h.ctx.sent[3].when - h.ctx.sent[2].when;
    EXPECT_EQ(d1, 10 * ticks::us);
    EXPECT_EQ(d2, 2 * d1);
    EXPECT_EQ(d3, 2 * d2);
}

TEST(RigClient, DuplicateResponseIsSuppressed)
{
    ClientHarness h;
    h.cfg.retry.enabled = true;
    RigClientUnit unit(h.eq, h.cfg, h.ctx, 0);
    std::vector<std::uint32_t> idxs{256, 512};
    unit.start(h.command(idxs));
    h.eq.runUntil(5 * ticks::us);
    ASSERT_EQ(h.ctx.sent.size(), 2u);

    // The same response lands twice (original + retransmit twin).
    unit.onResponse(respond(h.ctx.sent[0].pr));
    unit.onResponse(respond(h.ctx.sent[0].pr));
    EXPECT_EQ(unit.stats().duplicatesSuppressed, 1u);
    EXPECT_EQ(unit.stats().responses, 1u);

    unit.onResponse(respond(h.ctx.sent[1].pr));
    h.eq.run();
    EXPECT_EQ(h.completions, 1);
    EXPECT_TRUE(h.lastSuccess);
    EXPECT_EQ(unit.stats().responses, 2u);
}

TEST(RigClient, CorruptResponseIsNackedAndRefetchedBypassingCache)
{
    ClientHarness h;
    h.cfg.retry.enabled = true;
    RigClientUnit unit(h.eq, h.cfg, h.ctx, 0);
    std::vector<std::uint32_t> idxs{256};
    unit.start(h.command(idxs));
    h.eq.runUntil(5 * ticks::us);
    ASSERT_EQ(h.ctx.sent.size(), 1u);

    PropertyRequest bad = respond(h.ctx.sent[0].pr);
    bad.checksum ^= 1;
    unit.onResponse(bad); // with retry on: NACK + refetch, no panic
    EXPECT_EQ(unit.stats().corruptDropped, 1u);
    EXPECT_EQ(unit.stats().nacks, 1u);
    EXPECT_TRUE(unit.busy());

    // The refetch reuses the reqId and asks the network to bypass the
    // (potentially poisoned) Property Cache.
    ASSERT_EQ(h.ctx.sent.size(), 2u);
    EXPECT_EQ(h.ctx.sent[1].pr.reqId, h.ctx.sent[0].pr.reqId);
    EXPECT_TRUE(h.ctx.sent[1].pr.bypassCache);
    EXPECT_FALSE(h.ctx.sent[0].pr.bypassCache);

    unit.onResponse(respond(h.ctx.sent[1].pr));
    h.eq.run();
    EXPECT_EQ(h.completions, 1);
    EXPECT_TRUE(h.lastSuccess);
}

TEST(RigClient, CorruptResponsePanics)
{
    ClientHarness h;
    RigClientUnit unit(h.eq, h.cfg, h.ctx, 0);
    std::vector<std::uint32_t> idxs{256};
    unit.start(h.command(idxs));
    h.eq.run();
    ASSERT_EQ(h.ctx.sent.size(), 1u);
    PropertyRequest bad = respond(h.ctx.sent[0].pr);
    bad.checksum ^= 1;
    EXPECT_THROW(unit.onResponse(bad), std::logic_error);
}

TEST(RigClient, ThroughputIsOneIdxPerCycle)
{
    // 2200 local idxs at 2.2 GHz take ~1 us of pipeline time (plus the
    // initial DMA fill), exercising the chunked cycle accounting.
    ClientHarness h;
    RigClientUnit unit(h.eq, h.cfg, h.ctx, 0);
    std::vector<std::uint32_t> idxs(2200, 0); // all local
    unit.start(h.command(idxs));
    h.eq.run();
    EXPECT_EQ(h.completions, 1);
    // Initial DMA fill (16 ns serialization + 200 ns latency), 2200
    // cycles of pipeline, one more PCIe crossing for the completion.
    Tick expected = 216 * ticks::ns + 1 * ticks::us + 200 * ticks::ns;
    EXPECT_NEAR(static_cast<double>(h.eq.now()),
                static_cast<double>(expected), 60e3 /* 60 ns */);
}

TEST(RigServer, TurnsReadsIntoChecksummedResponses)
{
    EventQueue eq;
    MockCtx ctx(eq, 1024);
    RigUnitConfig cfg;
    RigServerUnit server(eq, cfg, ctx, 16);

    PropertyRequest read;
    read.type = PrType::Read;
    read.src = 2;
    read.srcTid = 5;
    read.idx = 77;
    read.reqId = 9;
    read.propBytes = 128;
    server.handleRead(std::move(read));
    eq.run();

    ASSERT_EQ(ctx.sent.size(), 1u);
    const auto &resp = ctx.sent[0].pr;
    EXPECT_EQ(ctx.sent[0].dest, 2u); // back to the requester
    EXPECT_EQ(resp.type, PrType::Response);
    EXPECT_EQ(resp.src, 2u);
    EXPECT_EQ(resp.srcTid, 5u); // requester's tid survives
    EXPECT_EQ(resp.reqId, 9u);
    EXPECT_EQ(resp.payloadBytes, 128u);
    EXPECT_EQ(resp.checksum, propertyChecksum(77));
    EXPECT_EQ(server.stats().readsServed, 1u);
    EXPECT_EQ(server.stats().bytesFetched, 128u);
}

TEST(RigServer, ResponsesPayHostFetchLatency)
{
    EventQueue eq;
    MockCtx ctx(eq, 1024);
    RigUnitConfig cfg;
    RigServerUnit server(eq, cfg, ctx, 16);
    PropertyRequest read;
    read.type = PrType::Read;
    read.src = 1;
    read.idx = 3;
    read.propBytes = 64;
    server.handleRead(std::move(read));
    eq.run();
    // At least PCIe latency + memory latency before the response.
    EXPECT_GE(eq.now(), 300 * ticks::ns);
}
