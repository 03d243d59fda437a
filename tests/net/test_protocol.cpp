/** @file Tests for the 2-layer NetSparse wire protocol (Figure 6). */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/link.hh"
#include "net/protocol.hh"
#include "net/switch.hh"
#include "snic/rig_unit.hh"

using namespace netsparse;

namespace {

PropertyRequest
pr(PrType type, std::uint32_t payload)
{
    PropertyRequest p;
    p.type = type;
    p.payloadBytes = payload;
    p.propBytes = payload ? payload : 64;
    return p;
}

/** A traced retransmitted read with every identity field set. */
PropertyRequest
tracedRead(PropIdx idx)
{
    PropertyRequest p;
    p.type = PrType::Read;
    p.src = 0;
    p.srcTid = 5;
    p.tenant = 3;
    p.reqId = 77;
    p.attempt = 2;
    p.traced = true;
    p.idx = idx;
    p.propBytes = 64;
    return p;
}

/** The identity a span id and a stamp-board key are computed from. */
void
expectSameIdentity(const PropertyRequest &resp, const PropertyRequest &read)
{
    EXPECT_EQ(resp.type, PrType::Response);
    EXPECT_EQ(resp.tenant, read.tenant);
    EXPECT_EQ(resp.src, read.src);
    EXPECT_EQ(resp.srcTid, read.srcTid);
    EXPECT_EQ(resp.reqId, read.reqId);
    EXPECT_EQ(resp.attempt, read.attempt);
    EXPECT_EQ(resp.traced, read.traced);
    EXPECT_EQ(resp.idx, read.idx);
}

/** The SNIC services a server RIG unit needs, and nothing else. */
class ServerCtx : public SnicContext
{
  public:
    explicit ServerCtx(EventQueue &eq) : filter_(64), pcie_(eq, {}) {}

    NodeId selfNode() const override { return 1; }
    NodeId ownerOf(PropIdx) const override { return 1; }
    void sendPr(PropertyRequest &&, NodeId) override {}
    bool txBackpressured() const override { return false; }
    IdxFilter &idxFilter() override { return filter_; }
    PcieModel &pcie() override { return pcie_; }

  private:
    IdxFilter filter_;
    PcieModel pcie_;
};

struct RecordingSink : PacketSink
{
    void
    receivePacket(Packet &&pkt, std::uint32_t) override
    {
        packets.push_back(std::move(pkt));
    }

    std::vector<Packet> packets;
};

} // namespace

/**
 * Both places that turn a read into its response - the home node's
 * server unit and a ToR Property Cache hit - rewrite the PR in place,
 * keeping what span ids and lifecycle stamps are keyed by.
 */
TEST(Protocol, ResponseRewriteKeepsSpanIdentity)
{
    EventQueue eq;
    ServerCtx ctx(eq);
    RigServerUnit server(eq, RigUnitConfig{}, ctx, 16);
    PropertyRequest served = tracedRead(9);
    Tick fetched = server.prepareRead(served);
    expectSameIdentity(served, tracedRead(9));
    EXPECT_EQ(served.fetchTick, fetched);
    EXPECT_FALSE(served.servedByCache);

    // A 2-port ToR: host 0 below port 0, everything else up port 1.
    SwitchConfig cfg;
    cfg.netsparseEnabled = true;
    cfg.concat.delay = 100;
    cfg.cache.totalBytes = 1 << 20;
    Switch tor(eq, cfg, 0, "tor");
    std::vector<std::unique_ptr<RecordingSink>> sinks;
    std::vector<std::unique_ptr<Link>> links;
    for (std::uint32_t p = 0; p < 2; ++p) {
        sinks.push_back(std::make_unique<RecordingSink>());
        links.push_back(std::make_unique<Link>(
            eq, LinkConfig{}, cfg.proto, sinks.back().get(), 0, "link"));
        tor.attachPort(p, links.back().get(), p == 0);
    }
    tor.setRouteFn([](NodeId dest) -> std::uint32_t {
        return dest == 0 ? 0 : 1;
    });
    tor.configureForKernel(64);

    // The response entering the rack fills the cache; the read leaving
    // it then hits and comes back down as a response.
    Packet fill;
    fill.dest = 0;
    fill.type = PrType::Response;
    fill.concatenated = true;
    fill.prs.push_back(served);
    tor.receivePacket(std::move(fill), 1);
    eq.run();
    Packet read;
    read.src = 0;
    read.dest = 1;
    read.type = PrType::Read;
    read.concatenated = true;
    read.spanned = true;
    read.prs.push_back(tracedRead(9));
    tor.receivePacket(std::move(read), 0);
    eq.run();

    ASSERT_EQ(tor.prsServedByCache(), 1u);
    ASSERT_EQ(sinks[0]->packets.size(), 2u);
    const Packet &hit = sinks[0]->packets.back();
    ASSERT_EQ(hit.prs.size(), 1u);
    expectSameIdentity(hit.prs[0], tracedRead(9));
    EXPECT_TRUE(hit.prs[0].servedByCache);
    EXPECT_TRUE(hit.spanned);
}

TEST(Protocol, PaperHeaderArithmetic)
{
    // Section 6.1.1: without concatenation a PR packet needs
    // 50+10+18 = 78 B of headers; with concatenation, N PRs share
    // 50+12 B and add 18 B each.
    ProtocolParams proto;
    EXPECT_EQ(proto.soloWireBytes(pr(PrType::Read, 0)), 78u);
    EXPECT_EQ(proto.concatBaseBytes(), 62u);
    EXPECT_EQ(proto.prWireBytes(pr(PrType::Read, 0)), 18u);
    EXPECT_EQ(proto.prWireBytes(pr(PrType::Response, 64)), 82u);
}

TEST(Protocol, ConcatenatedPacketWireBytes)
{
    ProtocolParams proto;
    Packet pkt;
    pkt.concatenated = true;
    pkt.type = PrType::Response;
    for (int i = 0; i < 5; ++i)
        pkt.prs.push_back(pr(PrType::Response, 64));
    // 62 + 5 * (18 + 64).
    EXPECT_EQ(pkt.wireBytes(proto), 62u + 5u * 82u);
    EXPECT_EQ(pkt.payloadBytes(), 5u * 64u);
}

TEST(Protocol, SoloPacketWireBytes)
{
    ProtocolParams proto;
    Packet pkt;
    pkt.concatenated = false;
    pkt.prs.push_back(pr(PrType::Response, 512));
    EXPECT_EQ(pkt.wireBytes(proto), 78u + 512u);
}

TEST(Protocol, ConcatenationBreaksEvenImmediately)
{
    // The paper's argument: from N = 2 on, N concatenated PRs cost
    // less than N solo packets (62 + 18N < 78N). A lone PR pays 2 B
    // for the richer concatenation header (80 vs 78).
    ProtocolParams proto;
    EXPECT_EQ(proto.concatBaseBytes() + proto.prHeaderBytes, 80u);
    for (std::uint32_t n = 2; n <= 79; ++n) {
        std::uint64_t solo = static_cast<std::uint64_t>(n) * 78u;
        std::uint64_t concat = 62u + static_cast<std::uint64_t>(n) * 18u;
        EXPECT_LT(concat, solo) << "n=" << n;
    }
}

TEST(Protocol, ChecksumIsDeterministicPerIdx)
{
    EXPECT_EQ(propertyChecksum(123), propertyChecksum(123));
    EXPECT_NE(propertyChecksum(123), propertyChecksum(124));
    // Differs from the raw splitmix of the idx (domain-separated).
    EXPECT_NE(propertyChecksum(123), splitmix64(123));
}
