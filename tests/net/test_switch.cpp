/** @file Tests for the switch model and its NetSparse ToR extensions. */

#include <gtest/gtest.h>

#include <vector>

#include "net/switch.hh"

using namespace netsparse;

namespace {

struct RecordingSink : PacketSink
{
    struct Arrival
    {
        Packet pkt;
        Tick when;
    };

    explicit RecordingSink(EventQueue &eq) : eq(eq) {}

    void
    receivePacket(Packet &&pkt, std::uint32_t) override
    {
        arrivals.push_back({std::move(pkt), eq.now()});
    }

    EventQueue &eq;
    std::vector<Arrival> arrivals;
};

PropertyRequest
readPr(PropIdx idx, NodeId src)
{
    PropertyRequest pr;
    pr.type = PrType::Read;
    pr.src = src;
    pr.idx = idx;
    pr.propBytes = 64;
    return pr;
}

PropertyRequest
responsePr(PropIdx idx, NodeId src)
{
    PropertyRequest pr = readPr(idx, src);
    pr.type = PrType::Response;
    pr.payloadBytes = pr.propBytes;
    pr.checksum = propertyChecksum(idx);
    return pr;
}

Packet
packetOf(PropertyRequest pr, NodeId dest)
{
    Packet p;
    p.src = pr.src;
    p.dest = dest;
    p.type = pr.type;
    p.concatenated = true;
    p.prs.push_back(std::move(pr));
    return p;
}

/**
 * A ToR with hosts 0 and 1 on ports 0/1 and an uplink on port 2.
 * "Node 9" lives beyond the uplink.
 */
struct TorHarness
{
    EventQueue eq;
    RecordingSink host0{eq}, host1{eq}, spine{eq};
    SwitchConfig cfg;
    std::unique_ptr<Switch> sw;
    std::unique_ptr<Link> l0, l1, lup;

    explicit TorHarness(bool netsparse, Tick concat_delay = 100)
    {
        cfg.netsparseEnabled = netsparse;
        cfg.concat.delay = concat_delay;
        cfg.cache.totalBytes = 1 << 20;
        sw = std::make_unique<Switch>(eq, cfg, 0, "tor");
        const ProtocolParams &proto = cfg.concat.proto;
        l0 = std::make_unique<Link>(eq, LinkConfig{}, proto, &host0, 0,
                                    "d0");
        l1 = std::make_unique<Link>(eq, LinkConfig{}, proto, &host1, 0,
                                    "d1");
        lup = std::make_unique<Link>(eq, LinkConfig{}, proto, &spine, 0,
                                     "up");
        sw->attachPort(0, l0.get(), true);
        sw->attachPort(1, l1.get(), true);
        sw->attachPort(2, lup.get(), false);
        sw->setRouteFn([](NodeId dest) -> std::uint32_t {
            return dest <= 1 ? dest : 2;
        });
        sw->configureForKernel(64);
    }
};

} // namespace

TEST(Switch, PlainForwardingAddsPipelineLatency)
{
    TorHarness h(false);
    h.sw->receivePacket(packetOf(readPr(5, 0), 1), 0);
    h.eq.run();
    ASSERT_EQ(h.host1.arrivals.size(), 1u);
    // 300 ns pipeline + 80 B wire (62+18) + 450 ns link.
    Tick wire = Bandwidth::fromGbps(400).serialize(80);
    EXPECT_EQ(h.host1.arrivals[0].when,
              300 * ticks::ns + wire + 450 * ticks::ns);
    EXPECT_EQ(h.sw->packetsForwarded(), 1u);
}

TEST(Switch, NetSparseTorReconcatenatesAcrossSources)
{
    // Two read packets from different hosts to the same remote node
    // merge into one packet in the middle pipe (cross-node concat).
    TorHarness h(true, 1 * ticks::us);
    h.sw->receivePacket(packetOf(readPr(100, 0), 9), 0);
    h.sw->receivePacket(packetOf(readPr(101, 1), 9), 1);
    h.eq.run();
    ASSERT_EQ(h.spine.arrivals.size(), 1u);
    EXPECT_EQ(h.spine.arrivals[0].pkt.prs.size(), 2u);
    EXPECT_EQ(h.spine.arrivals[0].pkt.dest, 9u);
}

TEST(Switch, ResponseEnteringRackPopulatesCache)
{
    TorHarness h(true);
    // A response from the spine (port 2) to host 0: gets cached.
    h.sw->receivePacket(packetOf(responsePr(42, 0), 0), 2);
    h.eq.run();
    ASSERT_EQ(h.host0.arrivals.size(), 1u);
    EXPECT_EQ(h.sw->cacheInserts(), 1u);

    // A later read from host 1 for the same idx is served by the ToR:
    // it comes back as a response and never reaches the spine.
    h.sw->receivePacket(packetOf(readPr(42, 1), 9), 1);
    h.eq.run();
    EXPECT_EQ(h.sw->cacheHits(), 1u);
    EXPECT_EQ(h.sw->prsServedByCache(), 1u);
    EXPECT_TRUE(h.spine.arrivals.empty());
    ASSERT_EQ(h.host1.arrivals.size(), 1u);
    const Packet &resp = h.host1.arrivals[0].pkt;
    EXPECT_EQ(resp.type, PrType::Response);
    ASSERT_EQ(resp.prs.size(), 1u);
    EXPECT_EQ(resp.prs[0].idx, 42u);
    EXPECT_EQ(resp.prs[0].payloadBytes, 64u);
    EXPECT_EQ(resp.prs[0].checksum, propertyChecksum(42));
    EXPECT_EQ(resp.prs[0].src, 1u); // delivered to the right requester
}

TEST(Switch, ReadMissesContinueToTheSpine)
{
    TorHarness h(true);
    h.sw->receivePacket(packetOf(readPr(7, 0), 9), 0);
    h.eq.run();
    EXPECT_EQ(h.sw->cacheLookups(), 1u);
    EXPECT_EQ(h.sw->cacheHits(), 0u);
    ASSERT_EQ(h.spine.arrivals.size(), 1u);
    EXPECT_EQ(h.spine.arrivals[0].pkt.type, PrType::Read);
}

TEST(Switch, IntraRackTrafficSkipsTheCache)
{
    TorHarness h(true);
    // host0 -> host1 read (both local): no lookup.
    h.sw->receivePacket(packetOf(readPr(7, 0), 1), 0);
    // response host1 -> host0 (local home): no insert.
    h.sw->receivePacket(packetOf(responsePr(7, 0), 0), 1);
    h.eq.run();
    EXPECT_EQ(h.sw->cacheLookups(), 0u);
    EXPECT_EQ(h.sw->cacheInserts(), 0u);
    EXPECT_EQ(h.host0.arrivals.size(), 1u);
    EXPECT_EQ(h.host1.arrivals.size(), 1u);
}

TEST(Switch, ResponsesLeavingRackAreNotCached)
{
    TorHarness h(true);
    // A response generated by host 0 for a remote requester (node 9).
    h.sw->receivePacket(packetOf(responsePr(3, 9), 9), 0);
    h.eq.run();
    EXPECT_EQ(h.sw->cacheInserts(), 0u);
    EXPECT_EQ(h.spine.arrivals.size(), 1u);
}

TEST(Switch, MixedHitAndMissSplitsThePacket)
{
    TorHarness h(true, 200);
    // Prime the cache with idx 50.
    h.sw->receivePacket(packetOf(responsePr(50, 0), 0), 2);
    h.eq.run();
    // One packet with two reads: idx 50 hits, idx 51 misses.
    Packet p = packetOf(readPr(50, 1), 9);
    p.prs.push_back(readPr(51, 1));
    h.sw->receivePacket(std::move(p), 1);
    h.eq.run();
    ASSERT_EQ(h.spine.arrivals.size(), 1u);
    EXPECT_EQ(h.spine.arrivals[0].pkt.prs.size(), 1u);
    EXPECT_EQ(h.spine.arrivals[0].pkt.prs[0].idx, 51u);
    // host1 got the served response (plus the earlier primer went to
    // host0).
    ASSERT_EQ(h.host1.arrivals.size(), 1u);
    EXPECT_EQ(h.host1.arrivals[0].pkt.type, PrType::Response);
}

TEST(Switch, CacheLatencyDelaysTheMiddlePipe)
{
    TorHarness h_plain(false);
    TorHarness h_ns(true, 0);
    h_plain.sw->receivePacket(packetOf(readPr(5, 0), 1), 0);
    h_ns.sw->receivePacket(packetOf(readPr(5, 0), 1), 0);
    h_plain.eq.run();
    h_ns.eq.run();
    // 16 cycles at 2 GHz = 8 ns extra.
    EXPECT_EQ(h_ns.host1.arrivals[0].when -
                  h_plain.host1.arrivals[0].when,
              8u * ticks::ns);
}

TEST(Switch, UnconfiguredNetSparseSwitchPanics)
{
    EventQueue eq;
    SwitchConfig cfg;
    cfg.netsparseEnabled = true;
    Switch sw(eq, cfg, 0, "tor");
    RecordingSink sink(eq);
    Link l(eq, {}, cfg.concat.proto, &sink, 0, "l");
    sw.attachPort(0, &l, true);
    sw.setRouteFn([](NodeId) -> std::uint32_t { return 0; });
    sw.receivePacket(packetOf(readPr(1, 0), 0), 0);
    EXPECT_THROW(eq.run(), std::logic_error);
}
