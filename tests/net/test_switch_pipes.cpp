/**
 * @file
 * Multi-pipe switch tests: a ToR with 8 ports (2 pipes of 4) under the
 * per-pipe Property Cache organization of Figure 8, checking pipe
 * selection, capacity splitting, and the read/response pipe pairing.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/switch.hh"

using namespace netsparse;

namespace {

struct RecordingSink : PacketSink
{
    void
    receivePacket(Packet &&pkt, std::uint32_t) override
    {
        packets.push_back(std::move(pkt));
    }

    std::vector<Packet> packets;
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
 * 8-port ToR: hosts 0-3 on ports 0-3 (pipe 0), uplinks on ports 4-7
 * (pipe 1). Remote nodes 10+u route to uplink 4+u%4... we route every
 * remote node n to uplink 4 + (n % 4).
 */
struct MultiPipeHarness
{
    EventQueue eq;
    SwitchConfig cfg;
    std::unique_ptr<Switch> sw;
    std::vector<std::unique_ptr<RecordingSink>> sinks;
    std::vector<std::unique_ptr<Link>> links;

    explicit MultiPipeHarness(bool per_pipe, bool verify = false)
    {
        cfg.netsparseEnabled = true;
        cfg.cacheLayout =
            per_pipe ? CacheLayout::PerPipe : CacheLayout::Shared;
        cfg.verifyResponses = verify;
        cfg.concat.delay = 100;
        cfg.cache.totalBytes = 1 << 20;
        sw = std::make_unique<Switch>(eq, cfg, 0, "tor");
        for (std::uint32_t p = 0; p < 8; ++p) {
            sinks.push_back(std::make_unique<RecordingSink>());
            // Appending, not "p" + std::string: GCC 12 at -O3 warns
            // falsely (-Wrestrict) on a literal prepended to a temporary.
            std::string name = "p";
            name += std::to_string(p);
            links.push_back(std::make_unique<Link>(
                eq, LinkConfig{}, cfg.concat.proto, sinks.back().get(), 0,
                name));
            sw->attachPort(p, links.back().get(), p < 4);
        }
        sw->setRouteFn([](NodeId dest) -> std::uint32_t {
            return dest < 4 ? dest : 4 + dest % 4;
        });
        sw->configureForKernel(64);
    }
};

} // namespace

TEST(SwitchPipes, PerPipeModeCreatesOneCachePerPipe)
{
    MultiPipeHarness h(true);
    EXPECT_EQ(h.sw->numPipes(), 2u);
    // Capacity split across pipes.
    EXPECT_EQ(h.sw->pipeCache(0).capacityEntries(),
              (1u << 20) / 2 / 64);
}

TEST(SwitchPipes, SharedModeUsesOneFullSizeArray)
{
    MultiPipeHarness h(false);
    EXPECT_EQ(h.sw->numPipes(), 1u);
    EXPECT_EQ(h.sw->pipeCache(0).capacityEntries(), (1u << 20) / 64);
}

TEST(SwitchPipes, PerPipeHitNeedsMatchingPorts)
{
    MultiPipeHarness h(true);
    // Response to host 1 enters from uplink 5 -> deposits in pipe 1.
    h.sw->receivePacket(packetOf(responsePr(42, 1), 1), 5);
    h.eq.run();
    EXPECT_EQ(h.sw->cacheInserts(), 1u);

    // Read from host 2 whose home routes through uplink 5 (pipe 1,
    // same as the deposit): hit.
    // Home node must satisfy 4 + n%4 == 5 -> n % 4 == 1, e.g. n = 9.
    h.sw->receivePacket(packetOf(readPr(42, 2), 9), 2);
    h.eq.run();
    EXPECT_EQ(h.sw->cacheHits(), 1u);
    EXPECT_EQ(h.sw->prsServedByCache(), 1u);
}

TEST(SwitchPipes, SharedModeHitsAcrossPorts)
{
    MultiPipeHarness h(false);
    h.sw->receivePacket(packetOf(responsePr(7, 0), 0), 5);
    h.eq.run();
    // Read egressing via a *different* uplink still hits: one array.
    h.sw->receivePacket(packetOf(readPr(7, 3), 10), 3); // uplink 6
    h.eq.run();
    EXPECT_EQ(h.sw->cacheHits(), 1u);
}

TEST(SwitchPipes, ReadsAndResponsesConcatenateInTheirOwnPipes)
{
    MultiPipeHarness h(true);
    // Two reads from different hosts, same home -> same uplink pipe,
    // merged into one packet.
    h.sw->receivePacket(packetOf(readPr(100, 0), 8), 0);
    h.sw->receivePacket(packetOf(readPr(101, 1), 8), 1);
    h.eq.run();
    auto &uplink_sink = *h.sinks[4 + 8 % 4];
    ASSERT_EQ(uplink_sink.packets.size(), 1u);
    EXPECT_EQ(uplink_sink.packets[0].prs.size(), 2u);
}

TEST(SwitchPipes, CacheServedReadSkipsTheUplinkEntirely)
{
    MultiPipeHarness h(true);
    h.sw->receivePacket(packetOf(responsePr(50, 0), 0), 4);
    h.eq.run();
    std::size_t uplink_packets_before = 0;
    for (int p = 4; p < 8; ++p)
        uplink_packets_before += h.sinks[p]->packets.size();

    // Host 1 reads idx 50 from home 8 (uplink 4, pipe 1): served.
    h.sw->receivePacket(packetOf(readPr(50, 1), 8), 1);
    h.eq.run();
    std::size_t uplink_packets_after = 0;
    for (int p = 4; p < 8; ++p)
        uplink_packets_after += h.sinks[p]->packets.size();
    EXPECT_EQ(uplink_packets_after, uplink_packets_before);
    ASSERT_FALSE(h.sinks[1]->packets.empty());
    EXPECT_EQ(h.sinks[1]->packets.back().type, PrType::Response);
}

TEST(SwitchPipes, CorruptResponseIsNotCachedWhenVerifying)
{
    MultiPipeHarness h(true, /*verify=*/true);
    PropertyRequest bad = responsePr(42, 1);
    bad.checksum ^= 1; // corrupted on the wire upstream of the ToR
    h.sw->receivePacket(packetOf(bad, 1), 5);
    h.eq.run();
    // The poisoned payload never enters the Property Cache, but the
    // response is still forwarded so the RIG client can NACK it.
    EXPECT_EQ(h.sw->poisonRejected(), 1u);
    EXPECT_EQ(h.sw->cacheInserts(), 0u);
    ASSERT_FALSE(h.sinks[1]->packets.empty());
    EXPECT_EQ(h.sinks[1]->packets.back().type, PrType::Response);

    // A later read for the same idx must miss (nothing was cached).
    h.sw->receivePacket(packetOf(readPr(42, 2), 9), 2);
    h.eq.run();
    EXPECT_EQ(h.sw->cacheHits(), 0u);
}

TEST(SwitchPipes, BypassCacheReadSkipsTheLookup)
{
    MultiPipeHarness h(true);
    // Seed the pipe-1 cache with idx 50 (deposit via uplink 4).
    h.sw->receivePacket(packetOf(responsePr(50, 0), 0), 4);
    h.eq.run();
    EXPECT_EQ(h.sw->cacheInserts(), 1u);

    // A NACK-refetch read carries bypassCache: it must go to the home
    // node even though the cache holds the idx (the copy is suspect).
    PropertyRequest refetch = readPr(50, 1);
    refetch.bypassCache = true;
    h.sw->receivePacket(packetOf(refetch, 8), 1); // home 8 -> uplink 4
    h.eq.run();
    EXPECT_EQ(h.sw->cacheBypasses(), 1u);
    EXPECT_EQ(h.sw->cacheHits(), 0u);
    EXPECT_EQ(h.sw->prsServedByCache(), 0u);
    ASSERT_FALSE(h.sinks[4]->packets.empty());
    EXPECT_EQ(h.sinks[4]->packets.back().type, PrType::Read);
}

TEST(SwitchPipes, ClusterRunsWithPerPipeCaches)
{
    // End-to-end sanity of per-pipe mode is covered by the cluster
    // integration tests; here verify reconfiguration keeps both pipes.
    MultiPipeHarness h(true);
    h.sw->configureForKernel(16);
    EXPECT_EQ(h.sw->numPipes(), 2u);
    EXPECT_EQ(h.sw->pipeCache(1).lineBytes(), 16u);
}
