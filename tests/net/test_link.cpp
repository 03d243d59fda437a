/** @file Tests for the link model (serialization, queueing, faults). */

#include <gtest/gtest.h>

#include <vector>

#include "net/link.hh"

using namespace netsparse;

namespace {

struct RecordingSink : PacketSink
{
    struct Arrival
    {
        Packet pkt;
        std::uint32_t port;
        Tick when;
    };

    explicit RecordingSink(EventQueue &eq) : eq(eq) {}

    void
    receivePacket(Packet &&pkt, std::uint32_t in_port) override
    {
        arrivals.push_back({std::move(pkt), in_port, eq.now()});
    }

    EventQueue &eq;
    std::vector<Arrival> arrivals;
};

Packet
soloPacket(std::uint32_t payload, NodeId dest = 1)
{
    Packet p;
    p.src = 0;
    p.dest = dest;
    p.type = PrType::Response;
    p.concatenated = false;
    PropertyRequest pr;
    pr.type = PrType::Response;
    pr.payloadBytes = payload;
    pr.propBytes = payload;
    p.prs.push_back(pr);
    return p;
}

} // namespace

TEST(Link, SerializationPlusPropagation)
{
    EventQueue eq;
    RecordingSink sink(eq);
    LinkConfig lc; // 400 Gbps, 450 ns
    Link link(eq, lc, {}, &sink, 7, "l0");

    // Solo response of 1362 B payload -> 1440 B wire -> 28.8 ns of
    // serialization at 0.05 B/ps, plus 450 ns of propagation.
    link.send(soloPacket(1362));
    eq.run();
    ASSERT_EQ(sink.arrivals.size(), 1u);
    EXPECT_EQ(sink.arrivals[0].port, 7u);
    EXPECT_EQ(sink.arrivals[0].when, 28800 * ticks::ps + 450 * ticks::ns);
    EXPECT_EQ(link.bytesSent(), 1440u);
    EXPECT_EQ(link.payloadBytesSent(), 1362u);
}

TEST(Link, BackToBackPacketsQueue)
{
    EventQueue eq;
    RecordingSink sink(eq);
    Link link(eq, {}, {}, &sink, 0, "l1");
    // Two 578 B-wire packets (78 B header + 500 B payload): 11.56 ns
    // of serialization each.
    link.send(soloPacket(500));
    link.send(soloPacket(500));
    eq.run();
    ASSERT_EQ(sink.arrivals.size(), 2u);
    EXPECT_EQ(sink.arrivals[1].when - sink.arrivals[0].when,
              11560u * ticks::ps);
    EXPECT_EQ(link.busyTicks(), 23120u * ticks::ps);
}

TEST(Link, QueueDelayReflectsBacklog)
{
    EventQueue eq;
    RecordingSink sink(eq);
    Link link(eq, {}, {}, &sink, 0, "l2");
    EXPECT_EQ(link.queueDelay(), 0u);
    for (int i = 0; i < 10; ++i)
        link.send(soloPacket(1362)); // 28.8 ns each
    EXPECT_EQ(link.queueDelay(), 288u * ticks::ns);
    EXPECT_GT(link.queuedBytes(), 13000u);
    eq.run();
    EXPECT_EQ(link.queueDelay(), 0u);
}

TEST(Link, OversizedPacketPanics)
{
    EventQueue eq;
    RecordingSink sink(eq);
    Link link(eq, {}, {}, &sink, 0, "l3");
    EXPECT_THROW(link.send(soloPacket(2000)), std::logic_error);
}

TEST(Link, ScriptedDropLosesPacketsButBurnsWireTime)
{
    EventQueue eq;
    RecordingSink sink(eq);
    Link link(eq, {}, {}, &sink, 0, "l4");
    link.configureFaults(FaultConfig{});
    int dropped_so_far = 0;
    link.faults()->scriptDrop([&](const Packet &) {
        return dropped_so_far++ == 0; // lose only the first packet
    });
    link.send(soloPacket(100));
    link.send(soloPacket(100));
    eq.run();
    ASSERT_EQ(sink.arrivals.size(), 1u);
    // The lost packet counts only in the drop statistics: sent
    // packet/byte/payload totals cover delivered packets exclusively.
    EXPECT_EQ(link.packetsDropped(), 1u);
    EXPECT_EQ(link.bytesDropped(), 178u); // 78 B header + 100 B payload
    EXPECT_EQ(link.faults()->stats().scriptedDrops, 1u);
    EXPECT_EQ(link.packetsSent(), 1u);
    EXPECT_EQ(link.bytesSent(), 178u);
    EXPECT_EQ(link.payloadBytesSent(), 100u);
    // But it still burned wire time: the survivor waited behind the
    // dropped packet's serialization.
    EXPECT_EQ(link.busyTicks(), 2u * 3560u * ticks::ps);
    EXPECT_GT(sink.arrivals[0].when, 450u * ticks::ns + 3u * ticks::ns);
}

TEST(Link, UtilizationTracksBusyFraction)
{
    EventQueue eq;
    RecordingSink sink(eq);
    Link link(eq, {}, {}, &sink, 0, "l5");
    link.send(soloPacket(1362)); // busy 28.8 ns, idle until 478.8 ns
    eq.run();
    EXPECT_NEAR(link.utilization(), 28.8 / 478.8, 1e-6);
}
