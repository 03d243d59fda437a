/**
 * @file
 * The paper-scale path's equivalence guarantees at test-friendly size:
 * a gather fed from the streaming builder produces byte-identical
 * statistics to one fed from the materialized matrix, and the batched
 * event execution (docs/scaling.md) stays byte-identical across shard
 * counts. The at-scale behaviour itself lives in tests/scale/ under
 * the nightly `scale` label.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "runtime/cluster.hh"
#include "sim/stats_export.hh"
#include "sparse/generators.hh"
#include "sparse/stream_gen.hh"

using namespace netsparse;

namespace {

/** 16 nodes over 4 racks, so up to 4 shards are available. */
ClusterConfig
shardableCluster(std::uint32_t shards)
{
    ClusterConfig cfg = defaultClusterConfig(16);
    cfg.nodesPerRack = 4;
    cfg.numSpines = 4;
    cfg.simShards = shards;
    return cfg;
}

/** Run one gather under a private collector; return its JSON document. */
std::string
runToJson(ClusterConfig cfg, const Csr &m, const Partition1D &part,
          GatherRunResult *out = nullptr)
{
    StatsExport collector;
    collector.setCollect(true);
    StatsExport::Bind bind(collector);
    ClusterSim sim(cfg);
    GatherRunResult r = sim.runGather(m, part, 16);
    if (out)
        *out = r;
    return collector.toJson();
}

/** Same, from a streaming-built workload. */
std::string
runToJson(ClusterConfig cfg, GatherWorkload &&work,
          GatherRunResult *out = nullptr)
{
    StatsExport collector;
    collector.setCollect(true);
    StatsExport::Bind bind(collector);
    ClusterSim sim(cfg);
    GatherRunResult r = sim.runGather(std::move(work), 16);
    if (out)
        *out = r;
    return collector.toJson();
}

GatherWorkload
streamedWorkload(MatrixKind kind, double scale, std::uint32_t nodes)
{
    return GatherWorkload::take(
        buildPartitionedBenchmark(kind, scale, nodes));
}

} // namespace

TEST(Scaling, StreamingWorkloadMatchesTheMaterializedMatrix)
{
    // Same seed, same scale: the streamed per-node index streams must
    // drive the cluster to the same final tick and the same stats
    // document as slicing the materialized CSR - byte for byte. Every
    // kind: netsparse_sim streams each named matrix.
    for (MatrixKind kind : allMatrixKinds()) {
        Csr m = makeBenchmarkMatrix(kind, 0.02);
        Partition1D part = Partition1D::equalRows(m.rows, 16);
        GatherRunResult mat;
        std::string ref = runToJson(shardableCluster(1), m, part, &mat);

        GatherRunResult str;
        std::string got = runToJson(
            shardableCluster(1), streamedWorkload(kind, 0.02, 16), &str);
        EXPECT_EQ(got, ref) << matrixName(kind);
        EXPECT_EQ(str.commTicks, mat.commTicks);
        EXPECT_EQ(str.executedEvents, mat.executedEvents);
        EXPECT_EQ(str.totalWireBytes, mat.totalWireBytes);
    }
}

TEST(Scaling, BatchedExecutionIsByteIdenticalAcrossShardCounts)
{
    // Event batching coarsens the schedule (delivery trains, batched
    // server reads) but must preserve the parallel engine's headline
    // guarantee: the same document at any shard count, with executed
    // events accounted as if every train member were its own event.
    Csr m = makeBenchmarkMatrix(MatrixKind::Arabic, 0.02);
    Partition1D part = Partition1D::equalRows(m.rows, 16);

    ClusterConfig cfg = shardableCluster(1);
    cfg.eventBatching = true;
    GatherRunResult seq;
    std::string ref = runToJson(cfg, m, part, &seq);
    EXPECT_EQ(seq.simShards, 1u);

    for (std::uint32_t shards : {2u, 4u}) {
        ClusterConfig pcfg = shardableCluster(shards);
        pcfg.eventBatching = true;
        GatherRunResult par;
        std::string got = runToJson(pcfg, m, part, &par);
        EXPECT_EQ(par.simShards, shards);
        EXPECT_EQ(got, ref) << "batched stats diverged at " << shards
                            << " shards";
        EXPECT_EQ(par.commTicks, seq.commTicks);
        EXPECT_EQ(par.executedEvents, seq.executedEvents);
        EXPECT_EQ(par.finalTick, seq.finalTick);
    }
}

TEST(Scaling, BatchedExecutionCompletesTheGather)
{
    // Batching is a simulation-performance knob, not a model change:
    // every index is still processed and every remote read answered.
    Csr m = makeBenchmarkMatrix(MatrixKind::Stokes, 0.02);
    Partition1D part = Partition1D::equalRows(m.rows, 16);

    ClusterConfig cfg = shardableCluster(1);
    cfg.eventBatching = true;
    GatherRunResult r;
    runToJson(cfg, m, part, &r);

    EXPECT_GT(r.commTicks, 0u);
    std::uint64_t idxs = r.sumNodes(
        [](const NodeRunStats &n) { return n.idxsProcessed; });
    EXPECT_EQ(idxs, m.nnz());
    EXPECT_EQ(r.sumNodes([](const NodeRunStats &n) {
                  return n.watchdogFailures + n.permanentFailures;
              }),
              0u);
}
