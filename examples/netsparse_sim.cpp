/**
 * @file
 * netsparse_sim: the command-line front end to the cluster simulator.
 *
 * Runs one distributed gather with full control over the workload and
 * the hardware configuration, and prints either a human summary or the
 * complete stats registry. This is the tool a user points at their own
 * Matrix Market file to see what NetSparse would do for their workload.
 *
 * Usage:
 *   netsparse_sim [options]
 *     --matrix NAME|FILE   arabic|europe|queen|stokes|uk or a .mtx path
 *                          (default arabic)
 *     --scale S            generator scale factor        (default 1.0)
 *     --nodes N            cluster size                  (default 128)
 *     --k K                property elements, 1..128     (default 16)
 *     --stage S            ablation stage 0..4           (default full)
 *     --topology T         leafspine|hyperx|dragonfly
 *     --batch B            RIG batch size (0 = auto)
 *     --adaptive           adaptive batch policy (Section 9.4)
 *     --virtual-cqs        virtualized concatenation queues (Section 7.2)
 *     --no-cache           disable the Property Cache
 *     --cache-bytes B      Property Cache capacity per ToR
 *     --partition P        rows|nnz                      (default rows)
 *     --stream             stream-generate the matrix directly into
 *                          per-node partitions (named matrices only;
 *                          no global COO/CSR is ever held - the
 *                          paper-scale path, see docs/scaling.md)
 *     --batched-events     coarser event batching (delivery trains +
 *                          batched server reads); the paper-scale
 *                          preset. Figure reproductions leave it off.
 *     --memory-stats       export per-shard arena accounting under
 *                          cluster.memory.* in the stats registry
 *                          (host diagnostic; off by default)
 *     --faults SPEC        fault injection, e.g.
 *                          drop:1e-4,corrupt:1e-5,down:1e-6,downUs:5,
 *                          degrade:1e-5,degradeUs:20,degradeFactor:0.25,
 *                          seed:1 (see docs/resilience.md)
 *     --jobs J             concurrent gather jobs (tenants) on one
 *                          fabric (default 1; see docs/observability.md
 *                          for the cluster.tenant<t>.* metrics)
 *     --background SPEC    synthetic background traffic
 *                          pattern:load[:packets[:bytes]], pattern in
 *                          incast|alltoall|storage, load a fraction of
 *                          the NIC line rate (e.g. incast:0.5:2000)
 *     --switch-queue Q     fifo (default) or fq (per-tenant
 *                          deficit-round-robin fair queueing at switch
 *                          output ports)
 *     --cache-mode M       shared (default) or partitioned per-tenant
 *                          ToR Property Cache slices
 *     --shards N           parallel-engine shards; 0 consults
 *                          NETSPARSE_SIM_SHARDS             (default 0)
 *     --stats              dump the full stats registry
 *     --stats-json FILE    write a JSON stats snapshot (the
 *                          docs/observability.md metrics contract)
 *     --trace-out FILE     capture a Chrome-trace/Perfetto event trace
 *     --telemetry-out FILE write the interval-telemetry timeline
 *                          (netsparse-telemetry-v1; enables the PR
 *                          latency lifecycle stats as a side effect)
 *     --telemetry-interval US
 *                          sampling interval in simulated microseconds
 *                          (default 10)
 *     --spans-out FILE     write per-PR causal span trees
 *                          (netsparse-spans-v1; defaults to 1/64
 *                          sampling when no span knob is given)
 *     --span-sample N      trace 1 in N issued PRs (deterministic
 *                          hash sampling; 0 disables sampling)
 *     --span-tail-keep K   flight recorder: keep the K slowest spans
 *                          of the run (records all PRs, prunes
 *                          retroactively)
 *     --span-tail-threshold-us US
 *                          also keep every span slower than US
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "runtime/cluster.hh"
#include "runtime/job_scheduler.hh"
#include "sim/span.hh"
#include "sim/stats.hh"
#include "sim/stats_export.hh"
#include "sim/telemetry.hh"
#include "sim/trace.hh"
#include "sparse/generators.hh"
#include "sparse/mmio.hh"
#include "sparse/stream_gen.hh"

using namespace netsparse;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--matrix NAME|FILE] [--scale S] [--nodes N]"
                 " [--k K]\n"
                 "  [--stage 0..4] [--topology leafspine|hyperx|"
                 "dragonfly]\n"
                 "  [--batch B] [--adaptive] [--virtual-cqs] "
                 "[--no-cache]\n"
                 "  [--cache-bytes B] [--partition rows|nnz] "
                 "[--shards N] [--stats]\n"
                 "  [--stream] [--batched-events] [--memory-stats]\n"
                 "  [--faults drop:R,corrupt:R,down:R,downUs:T,"
                 "degrade:R,degradeUs:T,\n"
                 "            degradeFactor:F,seed:S]\n"
                 "  [--jobs J] [--background pattern:load[:packets"
                 "[:bytes]]]\n"
                 "  [--switch-queue fifo|fq] "
                 "[--cache-mode shared|partitioned]\n"
                 "  [--stats-json FILE] [--trace-out FILE] "
                 "[--telemetry-out FILE]\n"
                 "  [--telemetry-interval US]\n"
                 "  [--spans-out FILE] [--span-sample N] "
                 "[--span-tail-keep K]\n"
                 "  [--span-tail-threshold-us US]\n",
                 argv0);
    std::exit(2);
}

/**
 * Checked unsigned-integer parse for CLI flags. std::atoi silently
 * returns 0 on garbage and accepts negatives, which downstream code
 * then treats as valid configuration; here anything that is not a
 * plain non-negative integer fails loudly, naming the flag.
 */
std::uint64_t
parseUint(const char *flag, const char *text)
{
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 0);
    if (errno != 0 || end == text || *end != '\0' ||
        std::strchr(text, '-') != nullptr) {
        std::fprintf(stderr,
                     "%s: expected a non-negative integer, got '%s'\n",
                     flag, text);
        std::exit(2);
    }
    return v;
}

/**
 * Checked floating-point parse for CLI flags, the std::atof
 * counterpart of parseUint: only a finite number >= 0 (> 0 when
 * @p positive) is accepted; anything else exits 2 naming the flag.
 */
double
parseDouble(const char *flag, const char *text, bool positive = false)
{
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text, &end);
    if (errno != 0 || end == text || *end != '\0' || !std::isfinite(v) ||
        v < 0.0 || (positive && v == 0.0)) {
        std::fprintf(stderr, "%s: expected a %s number, got '%s'\n", flag,
                     positive ? "positive" : "non-negative", text);
        std::exit(2);
    }
    return v;
}

/** A parseDouble flag in simulated microseconds, as ticks. */
Tick
parseMicros(const char *flag, const char *text)
{
    double t = parseDouble(flag, text) * static_cast<double>(ticks::us);
    if (t >= 0x1p64) { // past the 64-bit Tick range
        std::fprintf(stderr, "%s: %s us overflows the simulated clock\n",
                     flag, text);
        std::exit(2);
    }
    return static_cast<Tick>(t);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string matrix_arg = "arabic";
    double scale = 1.0;
    std::uint32_t nodes = 128;
    std::uint32_t k = 16;
    int stage = -1;
    std::string topology = "leafspine";
    std::uint32_t batch = 0;
    bool adaptive = false, virtual_cqs = false, no_cache = false;
    std::uint64_t cache_bytes = 0;
    std::string partition = "rows";
    std::uint32_t shards = 0;
    bool stream = false, batched_events = false;
    bool memory_stats = false;
    bool dump_stats = false;
    std::string stats_json, trace_out, faults_spec, telemetry_out;
    Tick telemetry_interval = 10 * ticks::us;
    std::string spans_out;
    std::uint64_t span_sample = 0, span_tail_keep = 0;
    Tick span_tail_threshold = 0;
    bool span_knob = false;
    std::uint32_t num_jobs = 1;
    std::string background_spec, switch_queue = "fifo",
                cache_mode = "shared";

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (++i >= argc)
                usage(argv[0]);
            return argv[i];
        };
        if (a == "--matrix")
            matrix_arg = next();
        else if (a == "--scale")
            scale = parseDouble("--scale", next(), true);
        else if (a == "--nodes")
            nodes = static_cast<std::uint32_t>(
                parseUint("--nodes", next()));
        else if (a == "--k")
            k = static_cast<std::uint32_t>(parseUint("--k", next()));
        else if (a == "--stage")
            stage = static_cast<int>(parseUint("--stage", next()));
        else if (a == "--topology")
            topology = next();
        else if (a == "--batch")
            batch = static_cast<std::uint32_t>(
                parseUint("--batch", next()));
        else if (a == "--adaptive")
            adaptive = true;
        else if (a == "--virtual-cqs")
            virtual_cqs = true;
        else if (a == "--no-cache")
            no_cache = true;
        else if (a == "--cache-bytes")
            cache_bytes = parseUint("--cache-bytes", next());
        else if (a == "--partition")
            partition = next();
        else if (a == "--shards")
            shards = static_cast<std::uint32_t>(
                parseUint("--shards", next()));
        else if (a == "--stream")
            stream = true;
        else if (a == "--batched-events")
            batched_events = true;
        else if (a == "--memory-stats")
            memory_stats = true;
        else if (a == "--faults")
            faults_spec = next();
        else if (a.rfind("--faults=", 0) == 0)
            faults_spec = a.substr(9);
        else if (a == "--stats")
            dump_stats = true;
        else if (a == "--stats-json")
            stats_json = next();
        else if (a == "--trace-out")
            trace_out = next();
        else if (a == "--telemetry-out")
            telemetry_out = next();
        else if (a == "--telemetry-interval")
            telemetry_interval =
                parseMicros("--telemetry-interval", next());
        else if (a == "--spans-out")
            spans_out = next();
        else if (a == "--span-sample") {
            span_sample = parseUint("--span-sample", next());
            span_knob = true;
        } else if (a == "--span-tail-keep") {
            span_tail_keep = parseUint("--span-tail-keep", next());
            span_knob = true;
        } else if (a == "--span-tail-threshold-us") {
            span_tail_threshold =
                parseMicros("--span-tail-threshold-us", next());
            span_knob = true;
        }
        else if (a == "--jobs")
            num_jobs = static_cast<std::uint32_t>(
                parseUint("--jobs", next()));
        else if (a == "--background")
            background_spec = next();
        else if (a.rfind("--background=", 0) == 0)
            background_spec = a.substr(13);
        else if (a == "--switch-queue")
            switch_queue = next();
        else if (a == "--cache-mode")
            cache_mode = next();
        else
            usage(argv[0]);
    }
    if (num_jobs < 1)
        usage(argv[0]);
    if (switch_queue != "fifo" && switch_queue != "fq")
        usage(argv[0]);
    if (cache_mode != "shared" && cache_mode != "partitioned")
        usage(argv[0]);
    BackgroundTrafficConfig bg;
    if (!background_spec.empty() &&
        !BackgroundTrafficConfig::parse(background_spec, bg)) {
        std::fprintf(stderr,
                     "--background: expected pattern:load[:packets"
                     "[:bytes]] with pattern in incast|alltoall|"
                     "storage, got '%s'\n",
                     background_spec.c_str());
        return 2;
    }
    if (k < 1 || k > 128 || nodes < 2)
        usage(argv[0]);

    // --- Workload ---
    Csr m;
    GatherWorkload work;
    std::uint64_t mat_rows = 0, mat_cols = 0, mat_nnz = 0;
    bool named = false;
    MatrixKind named_kind = MatrixKind::Arabic;
    for (auto kind : allMatrixKinds()) {
        if (matrix_arg == matrixName(kind)) {
            named = true;
            named_kind = kind;
        }
    }
    if (stream) {
        if (!named) {
            std::fprintf(stderr,
                         "--stream generates; it cannot read a .mtx "
                         "file\n");
            return 1;
        }
        if (partition == "nnz") {
            std::fprintf(stderr,
                         "--stream builds equal-rows partitions\n");
            return 1;
        }
        PartitionedMatrix pm =
            buildPartitionedBenchmark(named_kind, scale, nodes);
        mat_rows = pm.rows;
        mat_cols = pm.cols;
        mat_nnz = pm.nnz;
        work.numIdxs = pm.cols;
        work.part = pm.part;
        work.streams = pm.takeStreams();
    } else {
        if (named) {
            m = makeBenchmarkMatrix(named_kind, scale);
        } else {
            Coo coo = readMatrixMarketFile(matrix_arg);
            if (coo.rows != coo.cols) {
                std::fprintf(stderr,
                             "distributed gathers need a square "
                             "matrix\n");
                return 1;
            }
            m = Csr::fromCoo(coo);
        }
        mat_rows = m.rows;
        mat_cols = m.cols;
        mat_nnz = m.nnz();
    }
    Partition1D part;
    if (!stream)
        part = partition == "nnz" ? Partition1D::equalNnz(m, nodes)
                                  : Partition1D::equalRows(m.rows, nodes);

    // --- Cluster ---
    ClusterConfig cfg = defaultClusterConfig(nodes);
    if (stage >= 0)
        cfg.features = FeatureSet::ablationStage(
            static_cast<std::uint32_t>(stage));
    if (topology == "hyperx")
        cfg.topology = TopologyKind::HyperX;
    else if (topology == "dragonfly")
        cfg.topology = TopologyKind::Dragonfly;
    else if (topology != "leafspine")
        usage(argv[0]);
    cfg.host.batchSize = batch;
    if (adaptive) {
        cfg.host.policy = BatchPolicy::Adaptive;
        if (batch == 0)
            cfg.host.batchSize = 4096;
    }
    cfg.virtualizedCqs = virtual_cqs;
    if (no_cache) {
        cfg.features.switchCache = false;
    }
    if (cache_bytes)
        cfg.propertyCacheBytes = cache_bytes;
    cfg.simShards = shards;
    cfg.eventBatching = batched_events;
    cfg.memoryStats = memory_stats;
    cfg.fairQueue = switch_queue == "fq";
    cfg.tenantCachePartitioned = cache_mode == "partitioned";
    if (!faults_spec.empty())
        cfg.faults = FaultConfig::parse(faults_spec);
    cfg.telemetryInterval = telemetry_interval;
    if (!telemetry_out.empty() && cfg.telemetryInterval == 0) {
        std::fprintf(stderr,
                     "--telemetry-out needs a positive "
                     "--telemetry-interval\n");
        return 1;
    }
    if (span_knob && spans_out.empty()) {
        std::fprintf(stderr,
                     "--span-sample/--span-tail-* need --spans-out\n");
        return 1;
    }
    if (!spans_out.empty()) {
        cfg.spans.sampleEvery = static_cast<std::uint32_t>(span_sample);
        cfg.spans.tailKeep = static_cast<std::uint32_t>(span_tail_keep);
        cfg.spans.tailThreshold = span_tail_threshold;
        // A bare --spans-out leaves every knob zero; JobScheduler::run
        // then records its representative 1/64 sample.
        if (span_knob && !cfg.spans.enabled()) {
            std::fprintf(stderr,
                         "--spans-out: all span knobs are zero; nothing "
                         "would be recorded\n");
            return 1;
        }
    }

    std::printf("netsparse_sim: %s (%llu x %llu, %llu nnz%s), %u nodes, "
                "K=%u, %s\n",
                matrix_arg.c_str(), (unsigned long long)mat_rows,
                (unsigned long long)mat_cols, (unsigned long long)mat_nnz,
                stream ? ", streamed" : "", nodes, k, topology.c_str());

    // Every output path is probe-opened before the simulation starts:
    // a path into a missing directory fails here with a clear message
    // instead of wasting the whole run on a silent empty result.
    if (!stats_json.empty() &&
        !StatsExport::instance().setOutputPath(stats_json)) {
        std::fprintf(stderr, "cannot open --stats-json output %s\n",
                     stats_json.c_str());
        return 1;
    }
    if (!trace_out.empty() && !TraceWriter::instance().open(trace_out)) {
        std::fprintf(stderr, "cannot open --trace-out output %s\n",
                     trace_out.c_str());
        return 1;
    }
    if (!telemetry_out.empty() &&
        !TelemetrySink::instance().setOutputPath(telemetry_out)) {
        std::fprintf(stderr, "cannot open --telemetry-out output %s\n",
                     telemetry_out.c_str());
        return 1;
    }
    if (!spans_out.empty() &&
        !SpanSink::instance().setOutputPath(spans_out)) {
        std::fprintf(stderr, "cannot open --spans-out output %s\n",
                     spans_out.c_str());
        return 1;
    }

    // Multi-tenant runs (several jobs, or one job sharing the fabric
    // with background traffic) export the cluster.tenant<t>.* schema,
    // so the flat --stats dump of legacy cluster keys does not apply.
    const bool multi = num_jobs > 1 || bg.enabled();
    if (multi && dump_stats) {
        std::fprintf(stderr,
                     "--stats dumps the single-job document; use "
                     "--stats-json with --jobs/--background\n");
        return 2;
    }
    auto make_work = [&]() {
        if (!stream)
            return GatherWorkload::slice(m, part);
        PartitionedMatrix pm =
            buildPartitionedBenchmark(named_kind, scale, nodes);
        GatherWorkload w;
        w.numIdxs = pm.cols;
        w.part = pm.part;
        w.streams = pm.takeStreams();
        return w;
    };
    std::vector<JobSpec> specs(num_jobs);
    for (std::uint32_t j = 0; j < num_jobs; ++j) {
        specs[j].work = stream && j == 0 ? std::move(work) : make_work();
        specs[j].k = k;
        specs[j].name = "job" + std::to_string(j);
    }
    MultiJobResult mr = JobScheduler(cfg).run(std::move(specs), bg);

    TraceWriter::instance().close();
    StatsExport::instance().writeFile();
    TelemetrySink::instance().writeFile();
    SpanSink::instance().writeFile();

    if (multi) {
        std::printf("\nmakespan           : %10.2f us  (%u jobs, %s "
                    "queues, %s cache)\n",
                    ticks::toNs(mr.makespanTicks) / 1e3, num_jobs,
                    cfg.fairQueue ? "fq" : "fifo",
                    cfg.tenantCachePartitioned ? "partitioned"
                                               : "shared");
        for (std::uint32_t j = 0; j < mr.jobs.size(); ++j) {
            const GatherRunResult &jr = mr.jobs[j];
            std::printf("  job%u             : %10.2f us  (tail node "
                        "%u), goodput %.1f%%, %llu PRs in-switch\n",
                        j, ticks::toNs(jr.commTicks) / 1e3, jr.tailNode,
                        100 * jr.tailGoodput,
                        (unsigned long long)jr.prsServedByCache);
        }
        if (bg.enabled())
            std::printf("background         : %10llu packets injected "
                        "(%llu delivered, %.1f MB)\n",
                        (unsigned long long)mr.backgroundPackets,
                        (unsigned long long)mr.backgroundDelivered,
                        static_cast<double>(mr.backgroundDeliveredBytes) /
                            1e6);
        if (mr.simShards > 1)
            std::printf("parallel engine    : %10u shards, %llu epochs, "
                        "lookahead %.0f ns\n",
                        mr.simShards, (unsigned long long)mr.epochs,
                        ticks::toNs(mr.lookaheadTicks));
        return 0;
    }

    const GatherRunResult &r = mr.jobs[0];
    if (dump_stats) {
        StatRegistry reg;
        r.exportStats(reg);
        reg.dump(std::cout);
        return 0;
    }

    const NodeRunStats &tail = r.tail();
    std::printf("\ncommunication time : %10.2f us  (tail node %u)\n",
                ticks::toNs(r.commTicks) / 1e3, r.tailNode);
    std::printf("PRs issued         : %10llu  (F+C rate %.0f%%)\n",
                (unsigned long long)(tail.prsIssued), 100 * tail.fcRate());
    std::printf("PRs per packet     : %10.1f\n", r.avgPrsPerPacket);
    std::printf("cache hit rate     : %9.0f%%  (%llu PRs served in-"
                "switch)\n",
                100 * r.cacheHitRate(),
                (unsigned long long)r.prsServedByCache);
    std::printf("tail line util     : %9.1f%%\n", 100 * r.tailLineUtil);
    std::printf("tail goodput       : %9.1f%%\n", 100 * r.tailGoodput);
    if (r.simShards > 1) {
        std::printf("parallel engine    : %10u shards, %llu epochs, "
                    "lookahead %.0f ns\n",
                    r.simShards, (unsigned long long)r.epochs,
                    ticks::toNs(r.lookaheadTicks));
    }
    if (r.faultsEnabled) {
        auto sum = [&r](auto field) { return r.sumNodes(field); };
        std::printf("faults injected    : %10llu drops (%llu link-down), "
                    "%llu corrupt PRs\n",
                    (unsigned long long)r.packetsDropped,
                    (unsigned long long)r.linkDownDrops,
                    (unsigned long long)r.corruptedPrs);
        std::printf("recovery           : %10llu retransmits, %llu "
                    "nacks, %llu command retries, %llu permanent "
                    "failures\n",
                    (unsigned long long)sum([](const NodeRunStats &n) {
                        return n.retransmits;
                    }),
                    (unsigned long long)sum([](const NodeRunStats &n) {
                        return n.nacks;
                    }),
                    (unsigned long long)sum([](const NodeRunStats &n) {
                        return n.commandRetries;
                    }),
                    (unsigned long long)sum([](const NodeRunStats &n) {
                        return n.permanentFailures;
                    }));
    }
    return 0;
}
