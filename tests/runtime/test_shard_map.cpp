/**
 * @file
 * Unit tests for the rack-granular shard partition behind the parallel
 * engine: hosts stay with their ToR, spines spread evenly, and every
 * cross-shard edge of the component graph is a switch-to-switch link.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/topology.hh"
#include "runtime/shard_map.hh"

using namespace netsparse;

namespace {

/** The structural invariants every shard map must satisfy. */
void
checkMap(const Topology &topo, const ShardMap &map)
{
    ASSERT_EQ(map.switchShard.size(), topo.numSwitches());
    ASSERT_EQ(map.nodeShard.size(), topo.numNodes());
    for (SwitchId s = 0; s < topo.numSwitches(); ++s)
        EXPECT_LT(map.shardOfSwitch(s), map.numShards);
    // Hosts are indivisible from their ToR (doorbells and completions
    // cross that boundary without a Link).
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        EXPECT_EQ(map.shardOfNode(n),
                  map.shardOfSwitch(topo.switchOf(n)));
    // Every cross-shard edge is a switch-to-switch link: host-facing
    // ports never cross shards, so their latency-free coupling stays
    // inside one event queue.
    for (SwitchId s = 0; s < topo.numSwitches(); ++s) {
        for (const PortPeer &peer : topo.ports(s)) {
            if (peer.kind == PortPeer::Kind::Host) {
                EXPECT_EQ(map.shardOfNode(peer.id), map.shardOfSwitch(s));
            }
        }
    }
    // Every shard owns at least one ToR (rack granularity).
    std::vector<std::uint32_t> tors(map.numShards, 0);
    for (SwitchId s = 0; s < topo.numSwitches(); ++s)
        if (topo.isTor(s))
            tors[map.shardOfSwitch(s)]++;
    for (std::uint32_t t : tors)
        EXPECT_GE(t, 1u);
}

/** RAII save/restore of the NETSPARSE_SIM_SHARDS variable. */
class ScopedShardEnv
{
  public:
    explicit ScopedShardEnv(const char *value)
    {
        const char *old = std::getenv("NETSPARSE_SIM_SHARDS");
        hadOld_ = old != nullptr;
        if (hadOld_)
            old_ = old;
        if (value)
            ::setenv("NETSPARSE_SIM_SHARDS", value, 1);
        else
            ::unsetenv("NETSPARSE_SIM_SHARDS");
    }
    ~ScopedShardEnv()
    {
        if (hadOld_)
            ::setenv("NETSPARSE_SIM_SHARDS", old_.c_str(), 1);
        else
            ::unsetenv("NETSPARSE_SIM_SHARDS");
    }

  private:
    bool hadOld_ = false;
    std::string old_;
};

} // namespace

TEST(ShardMap, LeafSpinePartitionIsContiguousAndBalanced)
{
    Topology topo = Topology::leafSpine(8, 16, 16);
    ASSERT_EQ(topo.numTors(), 8u);
    ShardMap map = ShardMap::build(topo, 4);
    EXPECT_EQ(map.numShards, 4u);
    checkMap(topo, map);

    // ToRs come first in leaf-spine construction: contiguous blocks of
    // two racks per shard, in rack order.
    std::uint32_t tor = 0;
    for (SwitchId s = 0; s < topo.numSwitches(); ++s) {
        if (!topo.isTor(s))
            continue;
        EXPECT_EQ(map.shardOfSwitch(s), tor / 2) << "ToR " << tor;
        tor++;
    }
    // 16 spines over 4 shards: 4 each.
    std::vector<std::uint32_t> spines(4, 0);
    for (SwitchId s = 0; s < topo.numSwitches(); ++s)
        if (!topo.isTor(s))
            spines[map.shardOfSwitch(s)]++;
    for (std::uint32_t c : spines)
        EXPECT_EQ(c, 4u);
}

TEST(ShardMap, SingleShardOwnsEverything)
{
    Topology topo = Topology::leafSpine(4, 4, 4);
    ShardMap map = ShardMap::build(topo, 1);
    EXPECT_EQ(map.numShards, 1u);
    for (SwitchId s = 0; s < topo.numSwitches(); ++s)
        EXPECT_EQ(map.shardOfSwitch(s), 0u);
}

TEST(ShardMap, ClampsRequestsToTheRackCount)
{
    Topology topo = Topology::leafSpine(4, 4, 4);
    ShardMap map = ShardMap::build(topo, 64);
    EXPECT_EQ(map.numShards, 4u);
    checkMap(topo, map);
}

TEST(ShardMap, HyperXEverySwitchIsARackUnit)
{
    // Section 9.6 configuration: 4x4x2 switches, 4 hosts each.
    Topology topo = Topology::hyperX(4, 4, 2, 4, 4);
    ASSERT_EQ(topo.numTors(), 32u);
    for (std::uint32_t shards : {2u, 4u, 8u}) {
        ShardMap map = ShardMap::build(topo, shards);
        EXPECT_EQ(map.numShards, shards);
        checkMap(topo, map);
        // All 32 switches host nodes, so shards split them evenly.
        std::vector<std::uint32_t> count(shards, 0);
        for (SwitchId s = 0; s < topo.numSwitches(); ++s)
            count[map.shardOfSwitch(s)]++;
        for (std::uint32_t c : count)
            EXPECT_EQ(c, 32u / shards);
    }
}

TEST(ShardMap, DragonflyPartitionHoldsItsInvariants)
{
    Topology topo = Topology::dragonfly(4, 8, 4, 4);
    ASSERT_EQ(topo.numTors(), 32u);
    for (std::uint32_t shards : {2u, 4u})
        checkMap(topo, ShardMap::build(topo, shards));
}

TEST(ResolveShardCount, ExplicitRequestWinsOverTheEnvironment)
{
    ScopedShardEnv env("7");
    EXPECT_EQ(resolveShardCount(3, 8), 3u);
    EXPECT_EQ(resolveShardCount(1, 8), 1u);
}

TEST(ResolveShardCount, UnsetEnvironmentMeansSequential)
{
    ScopedShardEnv env(nullptr);
    EXPECT_EQ(resolveShardCount(0, 8), 1u);
}

TEST(ResolveShardCount, ReadsIntegersFromTheEnvironment)
{
    ScopedShardEnv env("4");
    EXPECT_EQ(resolveShardCount(0, 8), 4u);
}

TEST(ResolveShardCount, ClampsToTheRackCount)
{
    ScopedShardEnv env("64");
    EXPECT_EQ(resolveShardCount(0, 8), 8u);
    EXPECT_EQ(resolveShardCount(64, 8), 8u);
}

TEST(ResolveShardCount, AutoPicksRacksCappedByHardware)
{
    ScopedShardEnv env("auto");
    std::uint32_t got = resolveShardCount(0, 8);
    EXPECT_GE(got, 1u);
    EXPECT_LE(got, 8u);
}

TEST(ResolveShardCount, RejectsGarbage)
{
    ScopedShardEnv env("zero");
    EXPECT_THROW(resolveShardCount(0, 8), std::logic_error);
}
