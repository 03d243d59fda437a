/**
 * @file
 * Shared helpers for the table/figure benchmark harness.
 *
 * Every bench binary reproduces one table or figure of the paper. The
 * matrices are synthetic structural analogues (see DESIGN.md), scaled by
 * NETSPARSE_BENCH_SCALE (default 1.0; the environment variable lets CI
 * trade fidelity for speed). Absolute numbers differ from the paper -
 * the matrices are ~100x smaller - but each bench prints the same rows
 * or series so the qualitative shape can be compared directly.
 */

#ifndef NETSPARSE_BENCH_COMMON_HH
#define NETSPARSE_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/outputs.hh"
#include "sim/sweep.hh"
#include "sparse/generators.hh"
#include "sparse/partition.hh"

namespace netsparse::bench {

/** Scale factor for benchmark matrices (env NETSPARSE_BENCH_SCALE). */
inline double
benchScale(double fallback = 1.0)
{
    return envPositive("NETSPARSE_BENCH_SCALE", fallback);
}

/** Number of cluster nodes (env NETSPARSE_BENCH_NODES, default 128). */
inline std::uint32_t
benchNodes(std::uint32_t fallback = 128)
{
    return envUint("NETSPARSE_BENCH_NODES", fallback, 2);
}

/** Sweep worker count (env NETSPARSE_BENCH_JOBS, default 1). */
inline unsigned
benchJobs()
{
    return SweepExecutor::jobsFromEnv();
}

/**
 * Evaluate @p n independent sweep points with @p point(i), possibly in
 * parallel (NETSPARSE_BENCH_JOBS). Points must write their results into
 * pre-sized per-index storage and print nothing; the caller prints the
 * table afterwards, so output rows and stats runs appear in the same
 * order regardless of the worker count. See docs/performance.md.
 */
template <typename Fn>
inline void
runSweep(std::size_t n, Fn &&point)
{
    SweepExecutor exec(benchJobs());
    exec.run(n, std::function<void(std::size_t)>(std::forward<Fn>(point)));
}

/** Print a banner naming the experiment. */
inline void
banner(const char *experiment, const char *paper_ref)
{
    std::printf("==============================================================\n");
    std::printf("%s\n(reproduces %s of the NetSparse paper)\n", experiment,
                paper_ref);
    std::printf("==============================================================\n");
}

} // namespace netsparse::bench

/** The bench itself: main() once the outputs are open, with @p argv
 *  rid of their flags. */
int benchMain(int argc, char **argv);

/**
 * Every bench's main, in the manner of gtest_main: open the
 * observability outputs named by `--trace-out`, `--stats-json`,
 * `--telemetry-out` and `--spans-out` or their NETSPARSE_* variables
 * (sim/outputs.hh), run benchMain(), and end a fatal() user error with
 * exit status 1. The documents are written at process exit.
 */
int
main(int argc, char **argv)
try {
    netsparse::openOutputs(argc, argv);
    return benchMain(argc, argv);
} catch (const netsparse::FatalError &) {
    return 1; // fatal() has printed the message
}

#endif // NETSPARSE_BENCH_COMMON_HH
