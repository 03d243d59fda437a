/**
 * @file
 * Integration tests: full-cluster gathers through the complete NetSparse
 * stack, checking conservation invariants and functional completeness
 * for every ablation stage, matrix archetype and topology.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "analysis/comm_pattern.hh"
#include "analysis/json_lite.hh"
#include "runtime/cluster.hh"
#include "sim/stats_export.hh"
#include "sparse/generators.hh"

using namespace netsparse;

namespace {

ClusterConfig
smallCluster(std::uint32_t nodes, FeatureSet features = {})
{
    ClusterConfig cfg = defaultClusterConfig(nodes);
    cfg.nodesPerRack = std::min<std::uint32_t>(4, nodes);
    cfg.numSpines = 4;
    cfg.features = features;
    return cfg;
}

/** Cluster-wide invariants every run must satisfy. */
void
checkInvariants(const GatherRunResult &r, const Csr &m,
                const Partition1D &part)
{
    std::uint64_t total_issued = 0, total_reads = 0, total_resp = 0;
    for (NodeId n = 0; n < part.numParts(); ++n) {
        const NodeRunStats &st = r.nodes[n];
        // Every idx of the node's stream was examined exactly once.
        std::uint64_t stream =
            m.rowPtr[part.end(n)] - m.rowPtr[part.begin(n)];
        EXPECT_EQ(st.idxsProcessed, stream) << "node " << n;
        // Each examined idx took exactly one of the four paths.
        EXPECT_EQ(st.localIdxs + st.filtered + st.coalesced +
                      st.prsIssued,
                  st.idxsProcessed)
            << "node " << n;
        // Every issued PR got exactly one response (checksum-verified
        // inside the RIG units).
        EXPECT_EQ(st.rxResponses, st.prsIssued) << "node " << n;
        EXPECT_EQ(st.watchdogFailures, 0u) << "node " << n;
        EXPECT_LE(st.finishTick, r.commTicks);
        total_issued += st.prsIssued;
        total_reads += st.rxReads;
        total_resp += st.rxResponses;
    }
    // Reads either reached a server SNIC or were served by a ToR cache.
    EXPECT_EQ(total_reads + r.prsServedByCache, total_issued);
    EXPECT_EQ(total_resp, total_issued);
    EXPECT_GT(r.commTicks, 0u);
    EXPECT_EQ(r.nodes[r.tailNode].finishTick, r.commTicks);
}

} // namespace

/** Sweep: all five ablation stages x three matrix archetypes. */
class GatherAblationTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, MatrixKind>>
{};

TEST_P(GatherAblationTest, InvariantsHoldAndGatherCompletes)
{
    auto [stage, kind] = GetParam();
    Csr m = makeBenchmarkMatrix(kind, 0.02);
    const std::uint32_t nodes = 16;
    Partition1D part = Partition1D::equalRows(m.rows, nodes);

    ClusterConfig cfg = smallCluster(nodes,
                                     FeatureSet::ablationStage(stage));
    ClusterSim sim(cfg);
    GatherRunResult r = sim.runGather(m, part, 16);
    checkInvariants(r, m, part);

    CommPattern cp = analyzeCommPattern(m, part);
    for (NodeId n = 0; n < nodes; ++n) {
        // A node can never fetch fewer distinct properties than it
        // needs, and with everything off it requests one per nonzero.
        EXPECT_GE(r.nodes[n].prsIssued, cp.nodes[n].uniqueRemote);
        EXPECT_EQ(r.nodes[n].remoteIdxs(), cp.nodes[n].remoteNnz);
        if (stage == 0) {
            EXPECT_EQ(r.nodes[n].prsIssued, cp.nodes[n].remoteNnz);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    StagesAndMatrices, GatherAblationTest,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 3u, 4u),
                       ::testing::Values(MatrixKind::Arabic,
                                         MatrixKind::Europe,
                                         MatrixKind::Queen)),
    [](const auto &info) {
        return std::string(FeatureSet::stageName(std::get<0>(info.param))) +
               "_" + matrixName(std::get<1>(info.param));
    });

TEST(Gather, FilteringReducesTrafficMonotonically)
{
    Csr m = makeBenchmarkMatrix(MatrixKind::Arabic, 0.02);
    const std::uint32_t nodes = 16;
    Partition1D part = Partition1D::equalRows(m.rows, nodes);

    ClusterSim rig_only(smallCluster(nodes, FeatureSet::rigOnly()));
    ClusterSim full(smallCluster(nodes, FeatureSet::full()));
    GatherRunResult a = rig_only.runGather(m, part, 16);
    GatherRunResult b = full.runGather(m, part, 16);
    std::uint64_t prs_a = 0, prs_b = 0;
    for (NodeId n = 0; n < nodes; ++n) {
        prs_a += a.nodes[n].prsIssued;
        prs_b += b.nodes[n].prsIssued;
    }
    EXPECT_LT(prs_b, prs_a);
    EXPECT_LT(b.totalWireBytes, a.totalWireBytes);
}

TEST(Gather, ConcatenationPacksPrs)
{
    Csr m = makeBenchmarkMatrix(MatrixKind::Queen, 0.02);
    const std::uint32_t nodes = 16;
    Partition1D part = Partition1D::equalRows(m.rows, nodes);

    FeatureSet no_concat = FeatureSet::full();
    no_concat.concatNic = false;
    no_concat.concatSwitch = false;
    no_concat.switchCache = false;
    ClusterSim plain(smallCluster(nodes, no_concat));
    ClusterSim full(smallCluster(nodes, FeatureSet::full()));
    GatherRunResult a = plain.runGather(m, part, 16);
    GatherRunResult b = full.runGather(m, part, 16);
    EXPECT_NEAR(a.avgPrsPerPacket, 1.0, 1e-9);
    EXPECT_GT(b.avgPrsPerPacket, 2.0);
    // Sharing headers shrinks the bytes moved for the same payload.
    EXPECT_LT(b.totalWireBytes, a.totalWireBytes);
}

TEST(Gather, CacheServesSharedProperties)
{
    // All nodes of racks 1..3 read a shared pool of columns homed in
    // rack 0. Latencies are tightened so the response round trip is
    // much shorter than the run: later requesters then find their
    // rack-mates' fetches in the ToR cache.
    Coo coo;
    coo.rows = coo.cols = 1600; // 100 rows per node
    for (std::uint32_t r = 400; r < 1600; ++r) {
        for (int k = 0; k < 8; ++k) {
            std::uint32_t c = static_cast<std::uint32_t>(
                splitmix64(r * 8 + k) % 320); // pool: rack 0's columns
            coo.push(r, c);
        }
    }
    Csr m = Csr::fromCoo(coo);
    const std::uint32_t nodes = 16;
    Partition1D part = Partition1D::equalRows(m.rows, nodes);

    ClusterConfig cfg = smallCluster(nodes);
    cfg.link.latency = 5 * ticks::ns;
    cfg.switchPipelineLatency = 10 * ticks::ns;
    cfg.snic.pcie.latency = 10 * ticks::ns;
    cfg.snic.rigUnit.serverMemLatency = 10 * ticks::ns;
    ClusterSim sim(cfg);
    GatherRunResult r = sim.runGather(m, part, 16);
    checkInvariants(r, m, part);
    EXPECT_GT(r.cacheLookups, 0u);
    EXPECT_GT(r.cacheHits, 0u);
    EXPECT_EQ(r.prsServedByCache, r.cacheHits);
}

TEST(Gather, VirtualizedCqsAreFunctionallyEquivalent)
{
    Csr m = makeBenchmarkMatrix(MatrixKind::Uk, 0.02);
    const std::uint32_t nodes = 16;
    Partition1D part = Partition1D::equalRows(m.rows, nodes);

    ClusterConfig plain_cfg = smallCluster(nodes);
    ClusterConfig virt_cfg = smallCluster(nodes);
    virt_cfg.virtualizedCqs = true;
    GatherRunResult a = ClusterSim(plain_cfg).runGather(m, part, 16);
    GatherRunResult b = ClusterSim(virt_cfg).runGather(m, part, 16);
    checkInvariants(b, m, part);
    // Same functional outcome: the same streams are gathered. Packet
    // timing shifts a little, so the count of in-flight duplicate PRs
    // (part of rxResponses) may differ by a hair.
    for (NodeId n = 0; n < nodes; ++n) {
        EXPECT_EQ(a.nodes[n].idxsProcessed, b.nodes[n].idxsProcessed);
        EXPECT_NEAR(static_cast<double>(a.nodes[n].rxResponses),
                    static_cast<double>(b.nodes[n].rxResponses),
                    0.02 * a.nodes[n].rxResponses + 2.0);
    }
}

class GatherTopologyTest : public ::testing::TestWithParam<TopologyKind>
{};

TEST_P(GatherTopologyTest, AllTopologiesDeliverTheGather)
{
    // The HyperX / Dragonfly configurations are fixed at 128 nodes.
    Csr m = makeBenchmarkMatrix(MatrixKind::Stokes, 0.02);
    const std::uint32_t nodes = 128;
    Partition1D part = Partition1D::equalRows(m.rows, nodes);

    ClusterConfig cfg = defaultClusterConfig(nodes);
    cfg.topology = GetParam();
    ClusterSim sim(cfg);
    GatherRunResult r = sim.runGather(m, part, 4);
    checkInvariants(r, m, part);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, GatherTopologyTest,
                         ::testing::Values(TopologyKind::LeafSpine,
                                           TopologyKind::HyperX,
                                           TopologyKind::Dragonfly),
                         [](const auto &info) {
                             switch (info.param) {
                               case TopologyKind::LeafSpine:
                                 return "leafspine";
                               case TopologyKind::HyperX:
                                 return "hyperx";
                               case TopologyKind::Dragonfly:
                                 return "dragonfly";
                             }
                             return "unknown";
                         });

TEST(Gather, PropertySizesFromSpmvToWide)
{
    // K = 1, 16, 128 all complete and move proportional payload.
    Csr m = makeBenchmarkMatrix(MatrixKind::Queen, 0.02);
    const std::uint32_t nodes = 16;
    Partition1D part = Partition1D::equalRows(m.rows, nodes);
    std::uint64_t prev_payload = 0;
    for (std::uint32_t k : {1u, 16u, 128u}) {
        ClusterSim sim(smallCluster(nodes));
        GatherRunResult r = sim.runGather(m, part, k);
        checkInvariants(r, m, part);
        std::uint64_t payload = 0;
        for (const auto &n : r.nodes)
            payload += n.rxPayloadBytes;
        EXPECT_GT(payload, prev_payload);
        prev_payload = payload;
    }
}

TEST(Gather, SingleRackClusterWorks)
{
    Csr m = makeBenchmarkMatrix(MatrixKind::Europe, 0.02);
    const std::uint32_t nodes = 8;
    Partition1D part = Partition1D::equalRows(m.rows, nodes);
    ClusterConfig cfg = defaultClusterConfig(nodes);
    cfg.nodesPerRack = 8; // one rack: ToR only, no spines, no caching
    ClusterSim sim(cfg);
    GatherRunResult r = sim.runGather(m, part, 16);
    checkInvariants(r, m, part);
    EXPECT_EQ(r.cacheLookups, 0u);
}

TEST(Gather, MismatchedPartitionPanics)
{
    Csr m = makeBenchmarkMatrix(MatrixKind::Europe, 0.02);
    Partition1D part = Partition1D::equalRows(m.rows, 8);
    ClusterSim sim(smallCluster(16));
    EXPECT_THROW(sim.runGather(m, part, 16), std::logic_error);
}

TEST(Gather, PerPipeCacheModeSatisfiesInvariants)
{
    Csr m = makeBenchmarkMatrix(MatrixKind::Arabic, 0.02);
    const std::uint32_t nodes = 16;
    Partition1D part = Partition1D::equalRows(m.rows, nodes);
    ClusterConfig cfg = smallCluster(nodes);
    cfg.cachePerPipe = true;
    ClusterSim sim(cfg);
    GatherRunResult r = sim.runGather(m, part, 16);
    checkInvariants(r, m, part);
}

TEST(Gather, DeterministicAcrossRuns)
{
    Csr m = makeBenchmarkMatrix(MatrixKind::Stokes, 0.02);
    const std::uint32_t nodes = 16;
    Partition1D part = Partition1D::equalRows(m.rows, nodes);
    GatherRunResult a = ClusterSim(smallCluster(nodes)).runGather(m, part, 16);
    GatherRunResult b = ClusterSim(smallCluster(nodes)).runGather(m, part, 16);
    EXPECT_EQ(a.commTicks, b.commTicks);
    EXPECT_EQ(a.totalWireBytes, b.totalWireBytes);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    for (NodeId n = 0; n < nodes; ++n)
        EXPECT_EQ(a.nodes[n].finishTick, b.nodes[n].finishTick);
}

/** The cluster.memory.* arena export (sim/arena.hh) is gated: absent
 *  by default so the stats document stays byte-identical, present
 *  under ClusterConfig::memoryStats. */
TEST(Gather, MemoryStatsAreGated)
{
    Csr m = makeBenchmarkMatrix(MatrixKind::Arabic, 0.02);
    const std::uint32_t nodes = 16;
    Partition1D part = Partition1D::equalRows(m.rows, nodes);
    auto run_to_json = [&](const ClusterConfig &cfg) {
        StatsExport collector;
        collector.setCollect(true);
        StatsExport::Bind bind(collector);
        ClusterSim(cfg).runGather(m, part, 16);
        return collector.toJson();
    };

    std::string off = run_to_json(smallCluster(nodes));
    EXPECT_EQ(off.find("cluster.memory."), std::string::npos);

    ClusterConfig cfg = smallCluster(nodes);
    cfg.memoryStats = true;
    std::string on = run_to_json(cfg);
    EXPECT_NE(on.find("cluster.memory.arenaReservedBytes"),
              std::string::npos);
    EXPECT_NE(on.find("cluster.memory.arenaHighWaterBytes"),
              std::string::npos);
    EXPECT_NE(on.find("cluster.memory.arenaPoolHits"),
              std::string::npos);
}

/** cluster.memory.concatHeldBytes counts the PR buffers the SNIC and
 *  switch-pipe CQs hold, which the arena keys never see. Gated like
 *  them; this run spans 4 racks, so both kinds of CQ carry PRs. */
TEST(Gather, MemoryStatsCountHeldPrBuffers)
{
    Csr m = makeBenchmarkMatrix(MatrixKind::Arabic, 0.02);
    const std::uint32_t nodes = 16;
    Partition1D part = Partition1D::equalRows(m.rows, nodes);
    auto run_to_json = [&](bool memory_stats) {
        ClusterConfig cfg = smallCluster(nodes);
        cfg.memoryStats = memory_stats;
        StatsExport collector;
        collector.setCollect(true);
        StatsExport::Bind bind(collector);
        ClusterSim(cfg).runGather(m, part, 16);
        return collector.toJson();
    };

    EXPECT_EQ(run_to_json(false).find("concatHeldBytes"),
              std::string::npos);
    jsonlite::Value doc = jsonlite::parse(run_to_json(true));
    double held = doc.at("runs")
                      .at(0)
                      .at("stats")
                      .at("cluster.memory.concatHeldBytes")
                      .at("value")
                      .number;
    EXPECT_GT(held, 0.0);
    EXPECT_EQ(static_cast<std::uint64_t>(held) % sizeof(PropertyRequest),
              0u);
}
