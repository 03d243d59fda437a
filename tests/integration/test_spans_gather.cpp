/**
 * @file
 * Cluster-level guarantees of the span tracer: the netsparse-spans-v1
 * document is byte-identical at 1, 2 and 4 shards in both capture
 * modes (1/N sampling and the tail-exemplar flight recorder); enabling
 * spans perturbs neither the run nor the other output documents; the
 * critical-path attribution of every exported span tiles its measured
 * latency exactly; and under the sharded engine the per-shard trace
 * writers and telemetry probes stay shard-local (no cross-shard event
 * bleed at 4 shards).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/critical_path.hh"
#include "analysis/json_lite.hh"
#include "runtime/cluster.hh"
#include "runtime/job_scheduler.hh"
#include "sim/span.hh"
#include "sim/stats_export.hh"
#include "sim/telemetry.hh"
#include "sim/trace.hh"
#include "sparse/generators.hh"

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

/** One gather under private collectors; returns every document. */
struct CapturedRun
{
    std::string statsJson;
    std::string telemetryJson;
    std::string spansJson;
    GatherRunResult result;
};

CapturedRun
runCaptured(ClusterConfig cfg, const Csr &m, const Partition1D &part,
            bool spans)
{
    StatsExport stats;
    stats.setCollect(true);
    StatsExport::Bind statsBind(stats);
    TelemetrySink sink;
    sink.setCollect(true);
    TelemetrySink::Bind telemetryBind(sink);
    SpanSink spanSink;
    spanSink.setCollect(spans);
    SpanSink::Bind spanBind(spanSink);

    CapturedRun out;
    out.result = ClusterSim(cfg).runGather(m, part, 16);
    out.statsJson = stats.toJson();
    out.telemetryJson = sink.toJson();
    out.spansJson = spanSink.toJson();
    return out;
}

/** Two tenants with staggered admission: the congested tail-mode run. */
std::vector<JobSpec>
twoJobs()
{
    static const Csr a = makeBenchmarkMatrix(MatrixKind::Arabic, 0.02);
    static const Csr q = makeBenchmarkMatrix(MatrixKind::Queen, 0.02);
    std::vector<JobSpec> specs(2);
    specs[0].work =
        GatherWorkload::slice(a, Partition1D::equalRows(a.rows, 16));
    specs[0].k = 16;
    specs[1].work =
        GatherWorkload::slice(q, Partition1D::equalRows(q.rows, 16));
    specs[1].k = 8;
    specs[1].startDelay = 2 * ticks::us;
    return specs;
}

std::string
runJobsCaptured(ClusterConfig cfg)
{
    StatsExport stats;
    stats.setCollect(true);
    StatsExport::Bind statsBind(stats);
    SpanSink spanSink;
    spanSink.setCollect(true);
    SpanSink::Bind spanBind(spanSink);

    JobScheduler sched(cfg);
    MultiJobResult res = sched.run(twoJobs());
    EXPECT_EQ(res.jobs.size(), 2u);
    return spanSink.toJson();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

TEST(SpansGather, SampledSpansAreByteIdenticalAcrossShardCounts)
{
    Csr m = makeBenchmarkMatrix(MatrixKind::Arabic, 0.02);
    Partition1D part = Partition1D::equalRows(m.rows, 16);

    ClusterConfig cfg = shardableCluster(1);
    cfg.spans.sampleEvery = 16;
    CapturedRun seq = runCaptured(cfg, m, part, /*spans=*/true);
    EXPECT_EQ(seq.result.simShards, 1u);

    jsonlite::Value doc = jsonlite::parse(seq.spansJson);
    EXPECT_EQ(doc.at("schema").string, "netsparse-spans-v1");
    const jsonlite::Value &run = doc.at("runs").at(0);
    EXPECT_GT(run.at("recordedSpans").number, 0.0);
    EXPECT_GT(run.at("components").array.size(), 0u);
    const auto &spans = run.at("spans").array;
    ASSERT_GT(spans.size(), 0u);
    for (const jsonlite::Value &s : spans)
        EXPECT_EQ(s.at("kept").string, "sampled");

    for (std::uint32_t shards : {2u, 4u}) {
        ClusterConfig pcfg = shardableCluster(shards);
        pcfg.spans.sampleEvery = 16;
        CapturedRun par = runCaptured(pcfg, m, part, /*spans=*/true);
        EXPECT_EQ(par.result.simShards, shards);
        EXPECT_EQ(par.spansJson, seq.spansJson)
            << "sampled spans diverged at " << shards << " shards";
    }
}

TEST(SpansGather, TailExemplarSpansAreByteIdenticalAcrossShardCounts)
{
    ClusterConfig cfg = shardableCluster(1);
    cfg.spans.tailKeep = 8;
    cfg.spans.tailThreshold = 50 * ticks::us;
    std::string seq = runJobsCaptured(cfg);

    jsonlite::Value doc = jsonlite::parse(seq);
    const jsonlite::Value &run = doc.at("runs").at(0);
    const auto &spans = run.at("spans").array;
    ASSERT_GT(spans.size(), 0u);
    // The flight recorder keeps each tenant's makespan finisher, so
    // critical-path attribution of the makespan is always possible.
    std::set<double> finisherTenants;
    for (const jsonlite::Value &s : spans)
        if (s.at("finisher").boolean)
            finisherTenants.insert(s.at("tenant").number);
    EXPECT_EQ(finisherTenants.size(), 2u);

    for (std::uint32_t shards : {2u, 4u}) {
        ClusterConfig pcfg = shardableCluster(shards);
        pcfg.spans.tailKeep = 8;
        pcfg.spans.tailThreshold = 50 * ticks::us;
        EXPECT_EQ(runJobsCaptured(pcfg), seq)
            << "tail spans diverged at " << shards << " shards";
    }
}

TEST(SpansGather, SpanCaptureLeavesRunAndOtherDocumentsUnchanged)
{
    Csr m = makeBenchmarkMatrix(MatrixKind::Queen, 0.02);
    Partition1D part = Partition1D::equalRows(m.rows, 16);
    ClusterConfig cfg = shardableCluster(2);
    cfg.spans.sampleEvery = 16;

    CapturedRun off = runCaptured(cfg, m, part, /*spans=*/false);
    CapturedRun on = runCaptured(cfg, m, part, /*spans=*/true);

    // Span capture is passive: same clock, same traffic, same bytes.
    EXPECT_EQ(on.result.finalTick, off.result.finalTick);
    EXPECT_EQ(on.result.executedEvents, off.result.executedEvents);
    EXPECT_EQ(on.result.totalWireBytes, off.result.totalWireBytes);
    EXPECT_EQ(on.result.cacheHits, off.result.cacheHits);
    // ... and the other documents are byte-for-byte unchanged.
    EXPECT_EQ(on.statsJson, off.statsJson);
    EXPECT_EQ(on.telemetryJson, off.telemetryJson);
    // With the sink disabled no run section is even opened.
    EXPECT_EQ(off.spansJson.find("\"run\":0"), std::string::npos);
}

TEST(SpansGather, CriticalPathAttributionTilesEverySpanExactly)
{
    Csr m = makeBenchmarkMatrix(MatrixKind::Arabic, 0.02);
    Partition1D part = Partition1D::equalRows(m.rows, 16);
    ClusterConfig cfg = shardableCluster(2);
    cfg.spans.sampleEvery = 8;
    CapturedRun run = runCaptured(cfg, m, part, /*spans=*/true);

    jsonlite::Value doc = jsonlite::parse(run.spansJson);
    const auto &spans = doc.at("runs").at(0).at("spans").array;
    ASSERT_GT(spans.size(), 0u);
    for (const jsonlite::Value &s : spans) {
        const auto &events = s.at("events").array;
        ASSERT_GT(events.size(), 0u);
        std::vector<CpEvent> cp;
        for (std::size_t i = 0; i < events.size(); ++i) {
            const jsonlite::Value &e = events.at(i);
            // The exported parent chain never dangles.
            double parent = e.at("parent").number;
            EXPECT_EQ(parent, static_cast<double>(i) - 1.0);
            cp.push_back(CpEvent{
                static_cast<Tick>(e.at("tick").number),
                static_cast<Tick>(e.at("durTicks").number),
                static_cast<std::uint32_t>(e.at("comp").number),
                e.at("stage").string});
        }
        CriticalPath path = computeCriticalPath(
            static_cast<Tick>(s.at("issueTick").number),
            static_cast<Tick>(s.at("retireTick").number), cp);
        // The acceptance bar is "within 1 tick"; the tiling is exact.
        EXPECT_EQ(path.attributedTicks(),
                  static_cast<Tick>(s.at("totalTicks").number))
            << "span " << s.at("spanId").string;
    }

    // The report layer agrees and surfaces at least one exemplar.
    SpanReport report = analyzeSpans(doc);
    ASSERT_GT(report.exemplars.size(), 0u);
    for (const SpanExemplar &ex : report.exemplars)
        EXPECT_EQ(ex.path.attributedTicks(), ex.totalTicks);
}

TEST(SpansGather, ShardedCollectorsStayShardLocal)
{
    Csr m = makeBenchmarkMatrix(MatrixKind::Arabic, 0.02);
    Partition1D part = Partition1D::equalRows(m.rows, 16);
    ClusterConfig cfg = shardableCluster(4);

    const std::string base = "spans_itest_trace.json";
    TraceWriter ambient;
    ASSERT_TRUE(ambient.open(base));
    TraceWriter::Bind traceBind(ambient);

    CapturedRun run = runCaptured(cfg, m, part, /*spans=*/false);
    EXPECT_EQ(run.result.simShards, 4u);

    ambient.close();

    // Each shard's queue had its own writer, so the per-shard files
    // exist and no component's events bled into another shard's file.
    // Per-shard infrastructure tracks ("sim.*") are expected in all.
    std::vector<std::set<std::string>> tracks(4);
    for (int s = 0; s < 4; ++s) {
        std::string path = TraceWriter::derivedPath(
            base, "shard" + std::to_string(s));
        std::string text = slurp(path);
        ASSERT_FALSE(text.empty()) << path;
        jsonlite::Value doc = jsonlite::parse(text);
        for (const jsonlite::Value &e : doc.at("traceEvents").array) {
            if (e.at("ph").string != "M" ||
                e.at("name").string != "thread_name")
                continue;
            const std::string &name = e.at("args").at("name").string;
            if (name.rfind("sim.", 0) != 0)
                tracks[s].insert(name);
        }
        EXPECT_GT(tracks[s].size(), 0u) << path;
        std::remove(path.c_str());
    }
    std::remove(base.c_str());
    for (int a = 0; a < 4; ++a)
        for (int b = a + 1; b < 4; ++b)
            for (const std::string &name : tracks[a])
                EXPECT_EQ(tracks[b].count(name), 0u)
                    << name << " bled between shards " << a << " and "
                    << b;

    // The telemetry collector is shard-local too: the merged document
    // carries every entity exactly once.
    jsonlite::Value tdoc = jsonlite::parse(run.telemetryJson);
    const auto &entities = tdoc.at("runs").at(0).at("entities").array;
    std::set<std::string> ids;
    for (const jsonlite::Value &e : entities)
        EXPECT_TRUE(ids.insert(e.at("id").string).second)
            << "duplicate telemetry entity " << e.at("id").string;
}
