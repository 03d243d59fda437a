/**
 * @file
 * Simulator throughput regression harness (no paper figure): runs the
 * canonical gather (arabic at scale 1.0, 128 nodes, K=16) a few times
 * sequentially and again under the parallel engine, and reports
 * events/second plus wall and CPU time, writing the result as
 * BENCH_perf.json (schema netsparse-perf-v4) for CI trend tracking and
 * the scripts/check_perf_regression.py gate.
 *
 * Sequential events/sec is computed against CPU time
 * (CLOCK_PROCESS_CPUTIME_ID) because CI runners and shared dev boxes
 * make wall clock noisy; wall time is reported alongside. The parallel
 * phase is judged on wall clock - that is the quantity sharding buys -
 * with the shard count picked as min(racks, host cores) unless
 * NETSPARSE_PERF_SHARDS overrides it. On a single-core host the
 * parallel phase is skipped and wall_speedup is null: the shard workers
 * would timeslice one core, so the ratio would measure scheduler noise,
 * not the engine.
 *
 * Every run's commTicks and event count must be identical across
 * repeats AND across engines - the harness exits nonzero otherwise, so
 * it doubles as a determinism check of the conservative
 * synchronization.
 *
 * NETSPARSE_PERF_PAPER=1 appends a paper-scale smoke phase (streamed
 * arabic at scale 28, 1024 nodes, batched events - the docs/scaling.md
 * preset): one streamed build, moved into one run.
 *
 * Output path: --out FILE, else NETSPARSE_PERF_OUT, else
 * ./BENCH_perf.json. Exit codes: 0 ok, 1 output unwritable or a
 * malformed number, 2 non-deterministic. See docs/performance.md.
 */

#include <chrono>
#include <climits>
#include <ctime>
#include <string>
#include <thread>

#include "bench_common.hh"
#include "runtime/cluster.hh"
#include "sparse/stream_gen.hh"

using namespace netsparse;
using namespace netsparse::bench;

namespace {

double
cpuSeconds()
{
#if defined(CLOCK_PROCESS_CPUTIME_ID)
    timespec ts;
    if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0)
        return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
#endif
    return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

double
wallSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

bool
envSet(const char *name)
{
    const char *v = std::getenv(name);
    return v && *v && *v != '0';
}

struct PhaseResult
{
    std::uint64_t events = 0;
    Tick comm = 0;
    std::uint64_t epochs = 0;
    std::uint32_t shards = 1;
    double bestCpu = 0;
    double bestWall = 0;
    double sumCpu = 0;
    bool deterministic = true;
};

PhaseResult
runPhase(const char *label, const ClusterConfig &base, const Csr &m,
         const Partition1D &part, std::uint32_t k, int repeats)
{
    PhaseResult ph;
    std::printf("%s\n%-6s %14s %12s %12s %14s\n", label, "run",
                "events", "cpu(s)", "wall(s)", "events/s(wall)");
    for (int r = 0; r < repeats; ++r) {
        ClusterConfig cfg = base;
        double cpu0 = cpuSeconds(), wall0 = wallSeconds();
        GatherRunResult res = ClusterSim(cfg).runGather(m, part, k);
        double cpu = cpuSeconds() - cpu0, wall = wallSeconds() - wall0;

        if (r == 0) {
            ph.events = res.executedEvents;
            ph.comm = res.commTicks;
            ph.epochs = res.epochs;
            ph.shards = res.simShards;
        } else if (res.executedEvents != ph.events ||
                   res.commTicks != ph.comm) {
            ph.deterministic = false;
        }
        if (r == 0 || cpu < ph.bestCpu)
            ph.bestCpu = cpu;
        if (r == 0 || wall < ph.bestWall)
            ph.bestWall = wall;
        ph.sumCpu += cpu;
        std::printf("%-6d %14llu %12.3f %12.3f %14.0f\n", r,
                    (unsigned long long)res.executedEvents, cpu, wall,
                    res.executedEvents / wall);
    }
    std::printf("\n");
    return ph;
}

} // namespace

int
benchMain(int argc, char **argv)
{
    std::string out = "BENCH_perf.json";
    if (const char *env = std::getenv("NETSPARSE_PERF_OUT"); env && *env)
        out = env;
    int repeats = 3;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--out")
            out = argv[i + 1];
        else if (std::string(argv[i]) == "--repeats")
            repeats = static_cast<int>(
                parseUint("--repeats", argv[i + 1], 1, INT_MAX));
    }

    const std::uint32_t nodes = 128;
    const double scale = 1.0;
    const std::uint32_t k = 16;
    const std::uint32_t racks = 8; // 128 nodes / 16 per rack
    const std::uint32_t host_cores =
        std::max(1u, std::thread::hardware_concurrency());
    const std::uint32_t forced_shards =
        envUint("NETSPARSE_PERF_SHARDS", 0, 1); // 0: unset
    const bool shards_forced = forced_shards > 0;
    const std::uint32_t par_shards =
        shards_forced ? forced_shards : std::min(racks, host_cores);
    // One core cannot exhibit a parallel speedup - the workers would
    // timeslice it - so skip the phase unless the user forced a shard
    // count, and report wall_speedup as null.
    bool run_parallel = host_cores > 1 || shards_forced;

    banner("Simulator throughput (canonical gather)", "no figure");
    std::printf("(arabic, %u nodes, matrix scale %.2f, K=%u, %d "
                "repeats, %u host cores)\n\n",
                nodes, scale, k, repeats, host_cores);

    Csr m = makeBenchmarkMatrix(MatrixKind::Arabic, scale);
    Partition1D part = Partition1D::equalRows(m.rows, nodes);

    ClusterConfig base = defaultClusterConfig(nodes);
    base.simShards = 1;
    // The perf harness measures the batched-execution engine (the
    // configuration the paper-scale runs use); NETSPARSE_PERF_EXACT=1
    // falls back to per-event execution for comparison.
    base.eventBatching = !envSet("NETSPARSE_PERF_EXACT");

    PhaseResult seq = runPhase("sequential (1 shard)", base, m, part, k,
                               repeats);

    PhaseResult par;
    if (run_parallel) {
        ClusterConfig par_cfg = base;
        par_cfg.simShards = par_shards;
        par = runPhase("parallel", par_cfg, m, part, k, repeats);
    }

    bool deterministic = seq.deterministic &&
                         (!run_parallel || (par.deterministic &&
                                            par.events == seq.events &&
                                            par.comm == seq.comm));

    double events_per_sec = seq.events / seq.bestCpu;
    std::printf("sequential best : %.0f events/s (cpu), %.3f s cpu, "
                "%.3f s wall\n",
                events_per_sec, seq.bestCpu, seq.bestWall);
    if (run_parallel) {
        std::printf("parallel best   : %.0f events/s (wall), %.3f s "
                    "wall, %u shards, %llu epochs\n",
                    par.events / par.bestWall, par.bestWall, par.shards,
                    (unsigned long long)par.epochs);
        std::printf("wall speedup    : %.2fx on %u cores, commTicks "
                    "%llu%s\n",
                    seq.bestWall / par.bestWall, host_cores,
                    (unsigned long long)seq.comm,
                    deterministic ? "" : "  [NON-DETERMINISTIC]");
    } else {
        std::printf("parallel phase  : skipped (single-core host), "
                    "commTicks %llu%s\n",
                    (unsigned long long)seq.comm,
                    deterministic ? "" : "  [NON-DETERMINISTIC]");
    }

    // Optional paper-scale smoke (docs/scaling.md preset): streamed
    // generation, batched events. The build is moved into the run, so
    // only the per-node index streams are ever resident.
    bool paper = envSet("NETSPARSE_PERF_PAPER");
    PhaseResult pap;
    std::uint64_t paper_nnz = 0;
    const std::uint32_t paper_nodes = 1024;
    const double paper_scale = 28.0;
    if (paper) {
        banner("Paper-scale smoke (streamed)", "no figure");
        PartitionedMatrix pm = buildPartitionedBenchmark(
            MatrixKind::Arabic, paper_scale, paper_nodes);
        paper_nnz = pm.nnz;
        GatherWorkload work = GatherWorkload::take(std::move(pm));
        std::printf("(arabic, %u nodes, matrix scale %.1f, %llu nnz, "
                    "batched events)\n\n",
                    paper_nodes, paper_scale,
                    (unsigned long long)paper_nnz);
        ClusterConfig cfg = defaultClusterConfig(paper_nodes);
        cfg.simShards = 1;
        cfg.eventBatching = true;
        double cpu0 = cpuSeconds(), wall0 = wallSeconds();
        GatherRunResult res =
            ClusterSim(cfg).runGather(std::move(work), k);
        pap.bestCpu = cpuSeconds() - cpu0;
        pap.bestWall = wallSeconds() - wall0;
        pap.events = res.executedEvents;
        pap.comm = res.commTicks;
        std::printf("paper-scale     : %llu events, %.3f s cpu, %.3f s "
                    "wall, %.0f events/s (wall)\n\n",
                    (unsigned long long)pap.events, pap.bestCpu,
                    pap.bestWall, pap.events / pap.bestWall);
    }

    std::FILE *f = std::fopen(out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"schema\": \"netsparse-perf-v4\",\n"
        "  \"benchmark\": \"canonical-gather\",\n"
        "  \"matrix\": \"arabic\",\n"
        "  \"nodes\": %u,\n"
        "  \"scale\": %.2f,\n"
        "  \"k\": %u,\n"
        "  \"repeats\": %d,\n"
        "  \"executed_events\": %llu,\n"
        "  \"comm_ticks\": %llu,\n"
        "  \"best_cpu_seconds\": %.6f,\n"
        "  \"mean_cpu_seconds\": %.6f,\n"
        "  \"best_wall_seconds\": %.6f,\n"
        "  \"events_per_second\": %.0f,\n"
        "  \"host_cores\": %u,\n",
        nodes, scale, k, repeats, (unsigned long long)seq.events,
        (unsigned long long)seq.comm, seq.bestCpu, seq.sumCpu / repeats,
        seq.bestWall, events_per_sec, host_cores);
    if (run_parallel) {
        std::fprintf(
            f,
            "  \"parallel_shards\": %u,\n"
            "  \"parallel_epochs\": %llu,\n"
            "  \"parallel_best_wall_seconds\": %.6f,\n"
            "  \"parallel_events_per_second_wall\": %.0f,\n"
            "  \"wall_speedup\": %.3f,\n",
            par.shards, (unsigned long long)par.epochs, par.bestWall,
            par.events / par.bestWall, seq.bestWall / par.bestWall);
    } else {
        std::fprintf(f,
                     "  \"parallel_shards\": null,\n"
                     "  \"parallel_epochs\": null,\n"
                     "  \"parallel_best_wall_seconds\": null,\n"
                     "  \"parallel_events_per_second_wall\": null,\n"
                     "  \"wall_speedup\": null,\n");
    }
    if (paper) {
        std::fprintf(
            f,
            "  \"paper_scale\": {\n"
            "    \"nodes\": %u,\n"
            "    \"scale\": %.1f,\n"
            "    \"nnz\": %llu,\n"
            "    \"wall_seconds\": %.6f,\n"
            "    \"cpu_seconds\": %.6f,\n"
            "    \"executed_events\": %llu,\n"
            "    \"comm_ticks\": %llu\n"
            "  },\n",
            paper_nodes, paper_scale, (unsigned long long)paper_nnz,
            pap.bestWall, pap.bestCpu, (unsigned long long)pap.events,
            (unsigned long long)pap.comm);
    } else {
        std::fprintf(f, "  \"paper_scale\": null,\n");
    }
    std::fprintf(f, "  \"deterministic\": %s\n}\n",
                 deterministic ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", out.c_str());
    return deterministic ? 0 : 2;
}
