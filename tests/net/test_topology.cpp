/** @file Tests for topology construction and deterministic routing. */

#include <gtest/gtest.h>

#include <set>

#include "net/topology.hh"

using namespace netsparse;

TEST(Topology, LeafSpineShape)
{
    Topology t = Topology::leafSpine(8, 16, 16);
    EXPECT_EQ(t.numNodes(), 128u);
    EXPECT_EQ(t.numSwitches(), 24u);
    for (SwitchId s = 0; s < 8; ++s) {
        EXPECT_TRUE(t.isTor(s));
        EXPECT_EQ(t.ports(s).size(), 32u); // 16 hosts + 16 spines
    }
    for (SwitchId s = 8; s < 24; ++s) {
        EXPECT_FALSE(t.isTor(s));
        EXPECT_EQ(t.ports(s).size(), 8u);
    }
    EXPECT_EQ(t.switchOf(0), 0u);
    EXPECT_EQ(t.switchOf(127), 7u);
}

TEST(Topology, LeafSpineHopCounts)
{
    Topology t = Topology::leafSpine(4, 4, 2);
    EXPECT_EQ(t.hopCount(0, 1), 1u);  // same rack: ToR only
    EXPECT_EQ(t.hopCount(0, 15), 3u); // ToR-spine-ToR
}

TEST(Topology, SingleRackHasNoSpines)
{
    Topology t = Topology::leafSpine(1, 8, 4);
    EXPECT_EQ(t.numSwitches(), 1u);
    EXPECT_EQ(t.route(0, 5), t.hostPort(5));
}

TEST(Topology, LeafSpineSpreadsTrafficAcrossSpines)
{
    // All traffic to a given node follows one deterministic path, but
    // different destinations inside a rack use different spines, so a
    // rack-pair flow never collapses onto a single uplink.
    Topology t = Topology::leafSpine(8, 16, 16);
    std::set<std::uint32_t> spines_used;
    for (NodeId dest = 16; dest < 32; ++dest) { // whole of rack 1
        std::uint32_t p = t.route(0, dest);
        EXPECT_EQ(t.route(0, dest), p); // deterministic
        EXPECT_EQ(t.ports(0)[p].kind, PortPeer::Kind::Switch);
        spines_used.insert(t.ports(0)[p].id);
    }
    EXPECT_EQ(spines_used.size(), 16u);
}

TEST(Topology, LeafSpineReadAndResponsePathsAreFixedPerNode)
{
    // The response to node a always enters a's ToR from the same spine,
    // independent of which rack served it (the property the shared ToR
    // cache model relies on).
    Topology t = Topology::leafSpine(8, 2, 4);
    NodeId a = 3;
    SwitchId ta = t.switchOf(a);
    std::uint32_t expected = 0xffffffff;
    for (SwitchId remote_tor = 0; remote_tor < 8; ++remote_tor) {
        if (remote_tor == ta)
            continue;
        std::uint32_t p = t.route(remote_tor, a);
        std::uint32_t spine = t.ports(remote_tor)[p].id;
        if (expected == 0xffffffff)
            expected = spine;
        EXPECT_EQ(spine, expected);
    }
}

TEST(Topology, PortPeersAreReciprocal)
{
    for (auto topo :
         {Topology::leafSpine(4, 4, 4), Topology::hyperX(2, 2, 2, 2, 2),
          Topology::dragonfly(3, 4, 2, 2)}) {
        for (SwitchId s = 0; s < topo.numSwitches(); ++s) {
            const auto &ports = topo.ports(s);
            for (std::uint32_t p = 0; p < ports.size(); ++p) {
                if (ports[p].kind != PortPeer::Kind::Switch)
                    continue;
                const auto &back =
                    topo.ports(ports[p].id)[ports[p].peerPort];
                EXPECT_EQ(back.kind, PortPeer::Kind::Switch);
                EXPECT_EQ(back.id, s);
                EXPECT_EQ(back.peerPort, p);
            }
        }
    }
}

TEST(Topology, HyperXShapeAndReachability)
{
    Topology t = Topology::hyperX(4, 4, 2, 4, 4);
    EXPECT_EQ(t.numSwitches(), 32u);
    EXPECT_EQ(t.numNodes(), 128u);
    // Fully connected per dimension: worst case 3 switch hops + host.
    for (NodeId a = 0; a < 128; a += 17) {
        for (NodeId b = 0; b < 128; b += 13) {
            std::uint32_t hops = t.hopCount(a, b);
            EXPECT_GE(hops, 1u);
            EXPECT_LE(hops, 4u);
        }
    }
    // Inter-switch links carry the trunking multiplier.
    bool found_trunk = false;
    for (const auto &peer : t.ports(0)) {
        if (peer.kind == PortPeer::Kind::Switch) {
            EXPECT_DOUBLE_EQ(peer.bwMultiplier, 4.0);
            found_trunk = true;
        }
    }
    EXPECT_TRUE(found_trunk);
}

TEST(Topology, DragonflyShapeAndReachability)
{
    Topology t = Topology::dragonfly(4, 8, 4, 4);
    EXPECT_EQ(t.numSwitches(), 32u);
    EXPECT_EQ(t.numNodes(), 128u);
    // Minimal routing: at most switch-switch-switch-switch = 4 switches
    // (src ToR, gateway, remote gateway, dest ToR) + the host hop.
    for (NodeId a = 0; a < 128; a += 11) {
        for (NodeId b = 0; b < 128; b += 7) {
            std::uint32_t hops = t.hopCount(a, b);
            EXPECT_GE(hops, 1u);
            EXPECT_LE(hops, 5u);
        }
    }
}

TEST(Topology, RoutesConvergeToDestination)
{
    // Property: following route() hop by hop always reaches the host.
    for (auto topo :
         {Topology::leafSpine(4, 4, 3), Topology::hyperX(3, 2, 2, 3, 2),
          Topology::dragonfly(3, 3, 3, 2)}) {
        for (NodeId src = 0; src < topo.numNodes(); src += 5) {
            for (NodeId dst = 0; dst < topo.numNodes(); dst += 3) {
                SwitchId sw = topo.switchOf(src);
                int hops = 0;
                while (true) {
                    std::uint32_t port = topo.route(sw, dst);
                    const auto &peer = topo.ports(sw)[port];
                    if (peer.kind == PortPeer::Kind::Host) {
                        EXPECT_EQ(peer.id, dst);
                        break;
                    }
                    sw = peer.id;
                    ASSERT_LT(++hops, 16) << "routing loop";
                }
            }
        }
    }
}
