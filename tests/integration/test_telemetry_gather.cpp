/**
 * @file
 * Telemetry's cluster-level guarantees: the netsparse-telemetry-v1
 * timeline is byte-identical at any shard count; enabling telemetry
 * does not perturb the simulated run; and with telemetry off the stats
 * document carries no PR-latency keys, staying byte-for-byte what the
 * telemetry-free simulator produced.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/json_lite.hh"
#include "net/pr_latency.hh"
#include "runtime/cluster.hh"
#include "sim/span.hh"
#include "sim/stats_export.hh"
#include "sim/telemetry.hh"
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

/** One gather under private collectors; returns both JSON documents. */
struct CapturedRun
{
    std::string statsJson;
    std::string telemetryJson;
    GatherRunResult result;
};

CapturedRun
runCaptured(ClusterConfig cfg, const Csr &m, const Partition1D &part,
            bool telemetry)
{
    StatsExport stats;
    stats.setCollect(true);
    StatsExport::Bind statsBind(stats);
    TelemetrySink sink;
    sink.setCollect(telemetry);
    TelemetrySink::Bind telemetryBind(sink);

    CapturedRun out;
    out.result = ClusterSim(cfg).runGather(m, part, 16);
    out.statsJson = stats.toJson();
    out.telemetryJson = sink.toJson();
    return out;
}

/** 64-bit FNV-1a: pins a whole document in one constant. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** The stats document's cluster.prLatency.* lines, in document order. */
std::string
prLatencyLines(const std::string &statsJson)
{
    std::istringstream in(statsJson);
    std::string line, out;
    while (std::getline(in, line))
        if (line.rfind("  \"cluster.prLatency.", 0) == 0)
            out += line + "\n";
    return out;
}

/** The number after the first @p key in @p text (e.g. "\"src\":"). */
std::uint64_t
numberAfter(const std::string &text, const std::string &key)
{
    return std::stoull(text.substr(text.find(key) + key.size(), 24));
}

} // namespace

TEST(TelemetryGather, TimelineIsByteIdenticalAcrossShardCounts)
{
    Csr m = makeBenchmarkMatrix(MatrixKind::Arabic, 0.02);
    Partition1D part = Partition1D::equalRows(m.rows, 16);

    CapturedRun seq =
        runCaptured(shardableCluster(1), m, part, /*telemetry=*/true);
    EXPECT_EQ(seq.result.simShards, 1u);

    // The timeline is well-formed and carries the expected entities.
    jsonlite::Value doc = jsonlite::parse(seq.telemetryJson);
    EXPECT_EQ(doc.at("schema").string, "netsparse-telemetry-v1");
    const jsonlite::Value &run = doc.at("runs").at(0);
    EXPECT_GT(run.at("sampleTicks").array.size(), 0u);
    const auto &entities = run.at("entities").array;
    ASSERT_GT(entities.size(), 0u);
    bool saw_link = false, saw_switch = false, saw_rig = false,
         saw_sim = false;
    for (const jsonlite::Value &e : entities) {
        const std::string &kind = e.at("kind").string;
        saw_link |= kind == "link";
        saw_switch |= kind == "switch";
        saw_rig |= kind == "rig";
        saw_sim |= kind == "sim";
        // Every series is aligned to sampleTicks.
        for (const auto &[name, vals] : e.at("series").object)
            EXPECT_EQ(vals.array.size(),
                      run.at("sampleTicks").array.size())
                << e.at("id").string << "." << name;
    }
    EXPECT_TRUE(saw_link);
    EXPECT_TRUE(saw_switch);
    EXPECT_TRUE(saw_rig);
    EXPECT_TRUE(saw_sim);

    for (std::uint32_t shards : {2u, 4u}) {
        CapturedRun par = runCaptured(shardableCluster(shards), m, part,
                                      /*telemetry=*/true);
        EXPECT_EQ(par.result.simShards, shards);
        EXPECT_EQ(par.telemetryJson, seq.telemetryJson)
            << "telemetry diverged at " << shards << " shards";
        EXPECT_EQ(par.statsJson, seq.statsJson)
            << "stats diverged at " << shards << " shards";
    }
}

TEST(TelemetryGather, EnablingTelemetryDoesNotPerturbTheRun)
{
    Csr m = makeBenchmarkMatrix(MatrixKind::Queen, 0.02);
    Partition1D part = Partition1D::equalRows(m.rows, 16);
    ClusterConfig cfg = shardableCluster(2);

    CapturedRun off = runCaptured(cfg, m, part, /*telemetry=*/false);
    CapturedRun on = runCaptured(cfg, m, part, /*telemetry=*/true);

    // Sampling is passive: same events, same clock, same traffic.
    EXPECT_EQ(on.result.commTicks, off.result.commTicks);
    EXPECT_EQ(on.result.finalTick, off.result.finalTick);
    EXPECT_EQ(on.result.executedEvents, off.result.executedEvents);
    EXPECT_EQ(on.result.totalWireBytes, off.result.totalWireBytes);
    EXPECT_EQ(on.result.cacheHits, off.result.cacheHits);
}

TEST(TelemetryGather, StatsDocumentGainsPrLatencyOnlyWhenEnabled)
{
    Csr m = makeBenchmarkMatrix(MatrixKind::Arabic, 0.02);
    Partition1D part = Partition1D::equalRows(m.rows, 16);
    ClusterConfig cfg = shardableCluster(1);

    CapturedRun off = runCaptured(cfg, m, part, /*telemetry=*/false);
    EXPECT_EQ(off.statsJson.find("prLatency"), std::string::npos);
    EXPECT_EQ(off.telemetryJson.find("\"run\":0"), std::string::npos);

    CapturedRun on = runCaptured(cfg, m, part, /*telemetry=*/true);
    jsonlite::Value stats = jsonlite::parse(on.statsJson);
    const jsonlite::Value &run = stats.at("runs").at(0);
    const jsonlite::Value &st = run.at("stats");
    ASSERT_TRUE(st.has("cluster.prLatency.totalNs"));
    ASSERT_TRUE(st.has("cluster.prLatency.responses"));
    // The stage decomposition and its tail percentiles are present.
    for (const char *stage :
         {"nicNs", "requestNetNs", "cacheNs", "remoteNs",
          "responseNetNs", "totalNs"}) {
        std::string base = std::string("cluster.prLatency.") + stage;
        EXPECT_TRUE(st.has(base)) << base;
        EXPECT_TRUE(st.has(base + ".p50")) << base;
        EXPECT_TRUE(st.has(base + ".p99")) << base;
        EXPECT_TRUE(st.has(base + ".p999")) << base;
    }
    // Every accepted response was timed end to end.
    double responses =
        st.at("cluster.prLatency.responses").at("value").number;
    EXPECT_GT(responses, 0.0);
    EXPECT_EQ(st.at("cluster.prLatency.totalNs").at("total").number,
              responses);
}

/**
 * On a retransmitted PR the lifecycle stamps describe the attempt whose
 * response was accepted. Degraded links slow packets without losing
 * them, so a read can time out, be re-sent, and still have its first
 * attempt answer first; the re-send's answer is then suppressed as a
 * duplicate. The latency decomposition and the 1/1 span document of
 * that run are pinned, at 1 and 2 shards. The two lifecycle systems
 * share no state, yet describe the same responses: each accepted
 * response is one span, whose issue-to-retire total is the sample the
 * latency collector took; and the span document is the same when
 * telemetry is off.
 */
TEST(TelemetryGather, LatencyStampsFollowTheAcceptedAttempt)
{
    Csr m = makeBenchmarkMatrix(MatrixKind::Arabic, 0.01);
    Partition1D part = Partition1D::equalRows(m.rows, 32);

    for (std::uint32_t shards : {1u, 2u}) {
        ClusterConfig cfg = defaultClusterConfig(32); // 2 racks of 16
        cfg.simShards = shards;
        cfg.faults =
            FaultConfig::parse("degrade:0.05,degradeUs:200,"
                               "degradeFactor:0.02");
        cfg.spans.sampleEvery = 1;

        // Spans are captured in both runs; telemetry only when asked.
        struct Docs
        {
            std::string stats, spans;
        };
        auto run = [&](bool telemetry) {
            StatsExport stats;
            stats.setCollect(true);
            StatsExport::Bind statsBind(stats);
            TelemetrySink sink;
            sink.setCollect(telemetry);
            TelemetrySink::Bind telemetryBind(sink);
            SpanSink spanSink;
            spanSink.setCollect(true);
            SpanSink::Bind spanBind(spanSink);
            GatherRunResult r = ClusterSim(cfg).runGather(m, part, 16);
            EXPECT_EQ(r.simShards, shards);
            return Docs{stats.toJson(), spanSink.toJson()};
        };
        const Docs on = run(true);

        jsonlite::Value doc = jsonlite::parse(on.stats);
        const jsonlite::Value &st = doc.at("runs").at(0).at("stats");
        auto value = [&](const char *key) {
            return st.at(key).at("value").number;
        };
        EXPECT_GT(value("cluster.recovery.duplicatesSuppressed"), 0.0);
        EXPECT_EQ(value("cluster.recovery.permanentFailures"), 0.0);
        // Recorded when the stamps rode the PR itself, so a board that
        // keys or drops attempts differently changes them.
        EXPECT_EQ(value("cluster.prLatency.responses"), 20196.0);
        EXPECT_EQ(value("cluster.prLatency.cacheServed"), 637.0);
        EXPECT_EQ(fnv1a(prLatencyLines(on.stats)), 0x5543413fe31e6e1full)
            << shards << " shards";
        EXPECT_EQ(fnv1a(on.spans), 0x81bb01d6c43016cbull)
            << shards << " shards";

        // The span document reproduces the collectors: as many spans
        // as responses, their totals binned on the collectors' geometry
        // fill cluster.prLatency.totalNs bucket for bucket, and each
        // node retired as many spans as its collector counted. Each
        // span's summary is one line of the document.
        EXPECT_EQ(static_cast<double>(
                      numberAfter(on.spans, "\"recordedSpans\":")),
                  value("cluster.prLatency.responses"));
        Histogram totals(PrLatencyStats::histLoNs, PrLatencyStats::histHiNs,
                         PrLatencyStats::histBuckets);
        std::vector<double> perNode(cfg.numNodes, 0.0);
        std::istringstream lines(on.spans);
        for (std::string line; std::getline(lines, line);) {
            if (line.rfind("{\"spanId\":", 0) != 0)
                continue;
            totals.sample(
                ticks::toNs(numberAfter(line, "\"totalTicks\":")));
            ++perNode.at(numberAfter(line, "\"src\":"));
        }
        const auto &buckets =
            st.at("cluster.prLatency.totalNs").at("buckets").array;
        ASSERT_EQ(buckets.size(), totals.numBuckets());
        for (std::size_t b = 0; b < buckets.size(); ++b)
            EXPECT_EQ(buckets[b].number,
                      static_cast<double>(totals.bucket(b)))
                << "bucket " << b << ", " << shards << " shards";
        for (NodeId n = 0; n < cfg.numNodes; ++n) {
            const std::string key =
                "node" + std::to_string(n) + ".snic.prLatency.totalNs";
            EXPECT_EQ(st.at(key).at("count").number, perNode[n])
                << key << ", " << shards << " shards";
        }

        // Spans take their issue ticks from their own events, so a run
        // without telemetry (and so without a stamp board) keeps the
        // same span document.
        EXPECT_EQ(fnv1a(run(false).spans), 0x81bb01d6c43016cbull)
            << "telemetry off, " << shards << " shards";
    }
}
