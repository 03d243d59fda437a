/** @file Tests for the distributed kernel executors. */

#include <gtest/gtest.h>

#include "runtime/distributed_kernels.hh"
#include "sim/rng.hh"
#include "sim/stats_export.hh"
#include "sparse/generators.hh"
#include "sparse/kernels.hh"

using namespace netsparse;

namespace {

std::vector<float>
randomDense(std::uint32_t n, std::uint32_t k, std::uint64_t seed)
{
    std::vector<float> v(static_cast<std::size_t>(n) * k);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<float>(splitmix64(seed + i) % 64) / 8.0f;
    return v;
}

ClusterConfig
smallCluster(std::uint32_t nodes)
{
    ClusterConfig cfg = defaultClusterConfig(nodes);
    cfg.nodesPerRack = 4;
    cfg.numSpines = 4;
    return cfg;
}

} // namespace

TEST(DistributedKernels, SpmmMatchesReferenceBitExactly)
{
    Csr a = makeBenchmarkMatrix(MatrixKind::Queen, 0.02);
    const std::uint32_t nodes = 8, k = 8;
    Partition1D part = Partition1D::equalRows(a.rows, nodes);
    auto x = randomDense(a.cols, k, 1);

    DistributedSpmm exec(smallCluster(nodes), a, part, k);
    DistributedKernelResult r = exec.run(x, 1);
    EXPECT_EQ(r.output, spmm(a, x, k));
    ASSERT_EQ(r.iterations.size(), 1u);
    EXPECT_GT(r.iterations[0].commTicks, 0u);
}

TEST(DistributedKernels, MultiIterationChainsOutputs)
{
    Csr a = makeBenchmarkMatrix(MatrixKind::Europe, 0.02);
    const std::uint32_t nodes = 8, k = 2, iters = 3;
    Partition1D part = Partition1D::equalRows(a.rows, nodes);
    auto x = randomDense(a.cols, k, 2);

    DistributedSpmm exec(smallCluster(nodes), a, part, k);
    DistributedKernelResult r = exec.run(x, iters);

    // Reference: apply the kernel three times.
    std::vector<float> ref = x;
    for (std::uint32_t i = 0; i < iters; ++i)
        ref = spmm(a, ref, k);
    EXPECT_EQ(r.output, ref);
    EXPECT_EQ(r.iterations.size(), iters);
}

TEST(DistributedKernels, IterationsAreIndependentGathers)
{
    // Each iteration reconfigures the kernel (fresh Idx Filters and
    // invalidated caches), so every iteration re-fetches its uniques:
    // a later iteration's gather is a fresh cluster's.
    Csr a = makeBenchmarkMatrix(MatrixKind::Uk, 0.02);
    const std::uint32_t nodes = 8;
    Partition1D part = Partition1D::equalRows(a.rows, nodes);
    auto x = randomDense(a.cols, 1, 3);

    DistributedSpmm exec(smallCluster(nodes), a, part, 1);
    DistributedKernelResult r = exec.run(x, 2);
    ASSERT_EQ(r.iterations.size(), 2u);
    GatherRunResult fresh =
        ClusterSim(smallCluster(nodes)).runGather(a, part, 1);
    EXPECT_EQ(r.iterations[1].commTicks, fresh.commTicks);
    for (NodeId n = 0; n < nodes; ++n)
        EXPECT_EQ(r.iterations[1].nodes[n].prsIssued,
                  fresh.nodes[n].prsIssued);
}

TEST(DistributedKernels, GatherIsSimulatedOnce)
{
    Csr a = makeBenchmarkMatrix(MatrixKind::Uk, 0.02);
    const std::uint32_t nodes = 8;
    Partition1D part = Partition1D::equalRows(a.rows, nodes);
    auto x = randomDense(a.cols, 1, 3);

    StatsExport collector;
    collector.setCollect(true);
    StatsExport::Bind bind(collector);
    DistributedSpmm exec(smallCluster(nodes), a, part, 1);
    DistributedKernelResult r = exec.run(x, 3);
    EXPECT_EQ(collector.numRuns(), 1u);
    ASSERT_EQ(r.iterations.size(), 3u);
    for (const GatherRunResult &it : r.iterations) {
        EXPECT_EQ(it.commTicks, r.iterations[0].commTicks);
        EXPECT_EQ(it.executedEvents, r.iterations[0].executedEvents);
        EXPECT_EQ(it.totalWireBytes, r.iterations[0].totalWireBytes);
        EXPECT_EQ(it.cacheHits, r.iterations[0].cacheHits);
        for (NodeId n = 0; n < nodes; ++n)
            EXPECT_EQ(it.nodes[n].prsIssued,
                      r.iterations[0].nodes[n].prsIssued);
    }
}

TEST(DistributedKernels, FunctionalOnlyModeSkipsSimulation)
{
    Csr a = makeBenchmarkMatrix(MatrixKind::Stokes, 0.02);
    const std::uint32_t nodes = 8, k = 4;
    Partition1D part = Partition1D::equalRows(a.rows, nodes);
    auto x = randomDense(a.cols, k, 4);

    DistributedSpmm exec(smallCluster(nodes), a, part, k,
                         /*simulate=*/false);
    DistributedKernelResult r = exec.run(x, 2);
    EXPECT_TRUE(r.iterations.empty());

    std::vector<float> ref = spmm(a, spmm(a, x, k), k);
    EXPECT_EQ(r.output, ref);
}

TEST(DistributedKernels, SpmvIsTheKEqualsOneCase)
{
    Csr a = makeBenchmarkMatrix(MatrixKind::Arabic, 0.02);
    const std::uint32_t nodes = 8;
    Partition1D part = Partition1D::equalRows(a.rows, nodes);
    auto x = randomDense(a.cols, 1, 5);

    DistributedKernelResult r = distributedSpmv(smallCluster(nodes), a,
                                                part, x);
    EXPECT_EQ(r.output, spmv(a, x));
    ASSERT_EQ(r.iterations.size(), 1u);
    // SpMV moves 4 B properties.
    std::uint64_t payload = 0;
    for (const auto &n : r.iterations[0].nodes)
        payload += n.rxPayloadBytes;
    EXPECT_GT(payload, 0u);
    EXPECT_EQ(payload % 4, 0u);
}

TEST(DistributedKernels, SddmmMatchesReference)
{
    Csr a = makeBenchmarkMatrix(MatrixKind::Queen, 0.02);
    const std::uint32_t nodes = 8, k = 4;
    Partition1D part = Partition1D::equalRows(a.rows, nodes);
    auto u = randomDense(a.rows, k, 6);
    auto v = randomDense(a.cols, k, 7);

    DistributedSddmmResult r =
        distributedSddmm(smallCluster(nodes), a, part, u, v, k);
    EXPECT_EQ(r.values, sddmm(a, u, v, k));
    ASSERT_EQ(r.iterations.size(), 1u);
    EXPECT_GT(r.iterations[0].commTicks, 0u);
}

TEST(DistributedKernels, InvalidShapesPanic)
{
    Csr a = makeBenchmarkMatrix(MatrixKind::Queen, 0.02);
    Partition1D part = Partition1D::equalRows(a.rows, 8);
    DistributedSpmm exec(smallCluster(8), a, part, 4, false);
    EXPECT_THROW(exec.run(std::vector<float>(3), 1), std::logic_error);
    EXPECT_THROW(exec.run(randomDense(a.cols, 4, 1), 0),
                 std::logic_error);
}

TEST(AdaptiveBatch, ConvergesAndCompletesTheGather)
{
    Csr a = makeBenchmarkMatrix(MatrixKind::Arabic, 0.05);
    const std::uint32_t nodes = 8;
    Partition1D part = Partition1D::equalRows(a.rows, nodes);

    ClusterConfig cfg = smallCluster(nodes);
    cfg.host.policy = BatchPolicy::Adaptive;
    cfg.host.batchSize = 1024;
    ClusterSim sim(cfg);
    GatherRunResult r = sim.runGather(a, part, 16);
    EXPECT_GT(r.commTicks, 0u);
    for (const auto &n : r.nodes)
        EXPECT_EQ(n.rxResponses, n.prsIssued);
}

TEST(AdaptiveBatch, GrowsUndersizedBatches)
{
    // A tiny initial batch floods the host core with command issues;
    // the AIMD rule grows batches while the units stay busy, cutting
    // the command count well below the static policy's.
    Csr a = makeBenchmarkMatrix(MatrixKind::Uk, 0.05);
    const std::uint32_t nodes = 8;
    Partition1D part = Partition1D::equalRows(a.rows, nodes);

    ClusterConfig adaptive = smallCluster(nodes);
    adaptive.host.policy = BatchPolicy::Adaptive;
    adaptive.host.batchSize = 128;
    adaptive.host.autoBatchMin = 128;
    GatherRunResult a_run = ClusterSim(adaptive).runGather(a, part, 16);

    ClusterConfig fixed = smallCluster(nodes);
    fixed.host.batchSize = 128;
    GatherRunResult s_run = ClusterSim(fixed).runGather(a, part, 16);

    std::uint64_t a_cmds = 0, s_cmds = 0;
    for (NodeId n = 0; n < nodes; ++n) {
        a_cmds += a_run.nodes[n].commandsIssued;
        s_cmds += s_run.nodes[n].commandsIssued;
        EXPECT_EQ(a_run.nodes[n].rxResponses, a_run.nodes[n].prsIssued);
    }
    EXPECT_LT(a_cmds, s_cmds);
}