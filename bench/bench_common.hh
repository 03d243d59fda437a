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

#include "sim/span.hh"
#include "sim/stats_export.hh"
#include "sim/sweep.hh"
#include "sim/telemetry.hh"
#include "sim/trace.hh"
#include "sparse/generators.hh"
#include "sparse/partition.hh"

namespace netsparse::bench {

/**
 * Wire the shared observability flags into a bench binary: every bench
 * accepts `--trace-out FILE` (Chrome-trace/Perfetto event trace),
 * `--stats-json FILE` (JSON snapshot of every cluster run's stats
 * registry, one "runs[]" entry per runGather) and `--telemetry-out
 * FILE` (interval-telemetry timeline) and `--spans-out FILE` (per-PR
 * causal span trees at the default 1/64 sampling). The environment
 * variables NETSPARSE_TRACE_OUT / NETSPARSE_STATS_JSON /
 * NETSPARSE_TELEMETRY_OUT / NETSPARSE_SPANS_OUT are honored as
 * fallbacks so CI can collect artifacts without touching command
 * lines. An unwritable path exits 1 up front, naming the flag or the
 * variable that supplied it, like netsparse_sim. Outputs are finalized
 * at process exit. See docs/observability.md for the schemas.
 */
inline void
initObservability(int argc, char **argv)
{
    struct Output
    {
        const char *flag, *env;
        bool (*open)(const std::string &path);
    };
    const Output outputs[] = {
        {"--trace-out", "NETSPARSE_TRACE_OUT",
         [](const std::string &p) {
             return TraceWriter::instance().open(p);
         }},
        {"--stats-json", "NETSPARSE_STATS_JSON",
         [](const std::string &p) {
             return StatsExport::instance().setOutputPath(p);
         }},
        {"--telemetry-out", "NETSPARSE_TELEMETRY_OUT",
         [](const std::string &p) {
             return TelemetrySink::instance().setOutputPath(p);
         }},
        {"--spans-out", "NETSPARSE_SPANS_OUT",
         [](const std::string &p) {
             return SpanSink::instance().setOutputPath(p);
         }},
    };
    for (const Output &o : outputs) {
        const char *source = o.env;
        const char *path = std::getenv(o.env);
        for (int i = 1; i + 1 < argc; ++i) {
            if (std::string(argv[i]) == o.flag) {
                source = o.flag;
                path = argv[i + 1];
            }
        }
        if (path && *path && !o.open(path)) {
            std::fprintf(stderr, "cannot open %s output %s\n", source,
                         path);
            std::exit(1);
        }
    }
}

/** Scale factor for benchmark matrices (env NETSPARSE_BENCH_SCALE). */
inline double
benchScale(double fallback = 1.0)
{
    const char *env = std::getenv("NETSPARSE_BENCH_SCALE");
    if (!env)
        return fallback;
    double v = std::atof(env);
    return v > 0 ? v : fallback;
}

/** Number of cluster nodes (env NETSPARSE_BENCH_NODES, default 128). */
inline std::uint32_t
benchNodes(std::uint32_t fallback = 128)
{
    const char *env = std::getenv("NETSPARSE_BENCH_NODES");
    if (!env)
        return fallback;
    int v = std::atoi(env);
    return v > 1 ? static_cast<std::uint32_t>(v) : fallback;
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

#endif // NETSPARSE_BENCH_COMMON_HH
