/**
 * @file
 * Paper-scale checks (ctest label `scale`; the nightly CI job).
 *
 * These run the 100M-nonzero arabic analogue (kCiPaperScale) across
 * 1024 nodes - minutes of work and hundreds of MB, so they are excluded
 * from the tier-1 suite twice over: the ctest label keeps them out of
 * `ctest -LE scale`, and each test skips unless NETSPARSE_SCALE_TESTS=1
 * so even a plain `ctest` stays fast.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "runtime/cluster.hh"
#include "sparse/stream_gen.hh"

using namespace netsparse;

namespace {

bool
scaleTestsEnabled()
{
    const char *v = std::getenv("NETSPARSE_SCALE_TESTS");
    return v && *v && *v != '0';
}

/** Peak resident set of this process so far, in bytes (VmHWM). */
std::uint64_t
peakRssBytes()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream is(line.substr(6));
            std::uint64_t kb = 0;
            is >> kb;
            return kb * 1024;
        }
    }
    return 0;
}

#define SKIP_UNLESS_SCALE()                                               \
    if (!scaleTestsEnabled())                                             \
    GTEST_SKIP() << "set NETSPARSE_SCALE_TESTS=1 to run paper-scale "     \
                    "tests"

} // namespace

TEST(PaperScale, StreamingBuildStaysUnderTheCooFootprint)
{
    SKIP_UNLESS_SCALE();
    // The claim that makes 100M+ nonzeros tractable: the builder's
    // peak memory is the final partitioned form (~4 bytes/nnz of
    // column indices plus row pointers): rows go straight into their
    // owners' partitions, with no buffer beside them. A materializing
    // build pays >= 8 bytes/nnz for the COO alone before the CSR
    // conversion doubles it, so an 8 bytes/nnz ceiling on the build's
    // RSS growth proves no global COO was ever held.
    std::uint64_t rss_before = peakRssBytes();
    PartitionedMatrix pm = buildPartitionedBenchmark(
        MatrixKind::Arabic, kCiPaperScale, 1024);
    std::uint64_t rss_after = peakRssBytes();

    EXPECT_GE(pm.nnz, 90'000'000u) << "CI paper-scale preset shrank";
    EXPECT_EQ(pm.nodes.size(), 1024u);
    EXPECT_EQ(pm.part.numParts(), 1024u);

    std::uint64_t growth = rss_after - rss_before;
    std::uint64_t budget = pm.nnz * 8;
    EXPECT_LT(growth, budget)
        << "streaming build grew RSS by " << (growth >> 20)
        << " MiB for " << pm.nnz << " nnz - a COO-sized footprint";
}

TEST(PaperScale, CiSmokeGatherCompletesInBudget)
{
    SKIP_UNLESS_SCALE();
    // The 1024-node, 100M-nnz arabic gather the nightly job runs. The
    // wall budget is generous (the CI job timeout is the hard gate);
    // the assertions pin what EXPERIMENTS.md reports at scale: the
    // F+C rate and the SmartNIC traffic reduction move toward the
    // paper's arabic-2005 characterization once warm-up is amortized.
    auto t0 = std::chrono::steady_clock::now();
    PartitionedMatrix pm = buildPartitionedBenchmark(
        MatrixKind::Arabic, kCiPaperScale, 1024);
    std::uint64_t nnz = pm.nnz;

    GatherWorkload work = GatherWorkload::take(std::move(pm));

    ClusterConfig cfg = defaultClusterConfig(1024);
    cfg.eventBatching = true;
    cfg.simShards = 4;
    ClusterSim sim(cfg);
    GatherRunResult r = sim.runGather(std::move(work), 16);

    EXPECT_GT(r.commTicks, 0u);
    std::uint64_t idxs = r.sumNodes(
        [](const NodeRunStats &n) { return n.idxsProcessed; });
    EXPECT_EQ(idxs, nnz);
    EXPECT_EQ(r.sumNodes([](const NodeRunStats &n) {
                  return n.watchdogFailures + n.permanentFailures;
              }),
              0u);

    // At scale arabic's hub reuse dominates: the paper reports a 97%
    // filter+coalesce rate (Table 7). 1024 nodes leave ~100k nonzeros
    // per node, so warm-up still shaves the rate; the measured value
    // here is ~81% (EXPERIMENTS.md's convergence table), against ~74%
    // at the old 0.5-10M-nnz scales. Guard the at-scale band.
    std::uint64_t filtered = r.sumNodes(
        [](const NodeRunStats &n) { return n.filtered + n.coalesced; });
    std::uint64_t remote = idxs - r.sumNodes([](const NodeRunStats &n) {
                               return n.localIdxs;
                           });
    ASSERT_GT(remote, 0u);
    double fc = static_cast<double>(filtered) / remote;
    EXPECT_GT(fc, 0.75) << "F+C rate regressed below the at-scale band";

    double minutes =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::steady_clock::now() - t0)
            .count() /
        60.0;
    EXPECT_LT(minutes, 25.0) << "paper-scale smoke blew its budget";
}
