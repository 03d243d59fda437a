/** @file Unit tests for the parallel sweep executor. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/stats_export.hh"
#include "sim/sweep.hh"

using namespace netsparse;

TEST(SweepExecutor, SequentialRunsEveryPointInOrder)
{
    SweepExecutor exec(1);
    std::vector<std::size_t> order;
    exec.run(5, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(SweepExecutor, ParallelCoversEveryPointExactlyOnce)
{
    SweepExecutor exec(4);
    std::vector<std::atomic<int>> hits(64);
    exec.run(64, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "point " << i;
}

TEST(SweepExecutor, ParallelMatchesSequentialResults)
{
    auto compute = [](std::size_t i) {
        // Some deterministic per-point work.
        std::uint64_t acc = i + 1;
        for (int r = 0; r < 1000; ++r)
            acc = acc * 6364136223846793005ull + 1442695040888963407ull;
        return acc;
    };
    std::vector<std::uint64_t> seq(40), par(40);
    SweepExecutor(1).run(40, [&](std::size_t i) { seq[i] = compute(i); });
    SweepExecutor(8).run(40, [&](std::size_t i) { par[i] = compute(i); });
    EXPECT_EQ(seq, par);
}

TEST(SweepExecutor, StatsRunsAbsorbedInIndexOrder)
{
    StatsExport collector;
    collector.setCollect(true);
    std::string json;
    {
        StatsExport::Bind bind(collector);
        SweepExecutor exec(4);
        exec.run(8, [&](std::size_t i) {
            StatRegistry &reg = StatsExport::instance().beginRun(
                "point" + std::to_string(i));
            reg.set("index", static_cast<double>(i));
        });
        json = collector.toJson();
    }
    // Regardless of which worker ran which point, the merged document
    // lists runs point0..point7 in sweep-index order.
    std::size_t pos = 0;
    for (int i = 0; i < 8; ++i) {
        std::string label = "\"label\":\"point" + std::to_string(i) + "\"";
        std::size_t found = json.find(label, pos);
        ASSERT_NE(found, std::string::npos) << label << " missing";
        pos = found;
    }
    collector.reset();
}

TEST(SweepExecutor, FirstExceptionByIndexPropagates)
{
    SweepExecutor exec(4);
    try {
        exec.run(16, [&](std::size_t i) {
            if (i == 3 || i == 11)
                throw std::runtime_error("boom " + std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom 3");
    }
}

TEST(ParallelFor, CoversEveryIndexOnceWithMoreWorkersThanIndices)
{
    std::vector<std::atomic<int>> hits(3);
    parallelFor(3, 8, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    parallelFor(0, 8, [](std::size_t) { FAIL() << "no index to run"; });
}

TEST(ParallelFor, AssertInAWorkerReachesTheCaller)
{
    // ns_assert panics by throwing; a worker thread must hand the
    // exception to the caller instead of terminating the process.
    EXPECT_THROW(parallelFor(64, 4,
                             [](std::size_t i) {
                                 ns_assert(i != 17, "index ", i);
                             }),
                 std::logic_error);
}

TEST(SweepExecutor, JobsFromEnvDefaultsToOne)
{
    // The variable is unset in the test environment.
    if (!std::getenv("NETSPARSE_BENCH_JOBS")) {
        EXPECT_EQ(SweepExecutor::jobsFromEnv(), 1u);
    }
    SweepExecutor exec(0);
    std::vector<std::size_t> order;
    exec.run(3, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}
