/** @file Tests for the stats-registry export of gather results. */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/json_lite.hh"
#include "runtime/cluster.hh"
#include "sim/stats_export.hh"
#include "sparse/generators.hh"

using namespace netsparse;

namespace {

GatherRunResult
smallRun()
{
    Csr m = makeBenchmarkMatrix(MatrixKind::Queen, 0.02);
    const std::uint32_t nodes = 8;
    Partition1D part = Partition1D::equalRows(m.rows, nodes);
    ClusterConfig cfg = defaultClusterConfig(nodes);
    cfg.nodesPerRack = 4;
    cfg.numSpines = 2;
    return ClusterSim(cfg).runGather(m, part, 16);
}

} // namespace

TEST(StatsExport, ClusterAggregatesMatchTheResult)
{
    GatherRunResult r = smallRun();
    StatRegistry reg;
    r.exportStats(reg);

    EXPECT_DOUBLE_EQ(reg.get("cluster.commTicks"),
                     static_cast<double>(r.commTicks));
    EXPECT_DOUBLE_EQ(reg.get("cluster.cacheHitRate"), r.cacheHitRate());
    EXPECT_DOUBLE_EQ(reg.get("cluster.tailGoodput"), r.tailGoodput);

    double prs = 0;
    for (const auto &n : r.nodes)
        prs += static_cast<double>(n.prsIssued);
    EXPECT_DOUBLE_EQ(reg.get("cluster.prsIssued"), prs);
}

TEST(StatsExport, PerNodeEntriesExistForEveryNode)
{
    GatherRunResult r = smallRun();
    StatRegistry reg;
    r.exportStats(reg);
    for (std::size_t n = 0; n < r.nodes.size(); ++n) {
        std::string prefix = "node" + std::to_string(n) + ".";
        EXPECT_TRUE(reg.has(prefix + "finishTicks")) << prefix;
        EXPECT_DOUBLE_EQ(reg.get(prefix + "prsIssued"),
                         static_cast<double>(r.nodes[n].prsIssued));
        EXPECT_DOUBLE_EQ(reg.get(prefix + "fcRate"),
                         r.nodes[n].fcRate());
    }
}

TEST(StatsExport, DumpIsParseable)
{
    GatherRunResult r = smallRun();
    StatRegistry reg;
    r.exportStats(reg);
    std::ostringstream os;
    writeStatsJson(reg, os);
    jsonlite::Value doc = jsonlite::parse(os.str());
    ASSERT_TRUE(doc.isObject());
    EXPECT_TRUE(doc.has("cluster.commTicks"));
    EXPECT_TRUE(doc.has("node0.rxBytes"));
    // One record per registered stat, and no other.
    EXPECT_EQ(doc.object.size(), reg.all().size() +
                                     reg.averages().size() +
                                     reg.histograms().size());
}

TEST(StatsExport, JsonRoundTripsEveryRegisteredStat)
{
    GatherRunResult r = smallRun();
    StatRegistry reg;
    r.exportStats(reg);

    Average avg;
    avg.sample(2.0);
    avg.sample(6.0);
    reg.setAverage("test.avg", avg);

    Histogram hist(0.0, 10.0, 5);
    hist.sample(-1.0); // underflow
    hist.sample(3.0);
    hist.sample(3.5);
    hist.sample(42.0); // overflow
    reg.setHistogram("test.hist", hist);

    std::ostringstream os;
    writeStatsJson(reg, os);
    jsonlite::Value doc = jsonlite::parse(os.str());
    ASSERT_TRUE(doc.isObject());

    // Every scalar comes back with its exact value.
    for (const auto &[stat_name, stat_value] : reg.all()) {
        ASSERT_TRUE(doc.has(stat_name)) << stat_name;
        const jsonlite::Value &e = doc.at(stat_name);
        EXPECT_EQ(e.at("type").string, "scalar") << stat_name;
        EXPECT_DOUBLE_EQ(e.at("value").number, stat_value) << stat_name;
    }

    const jsonlite::Value &a = doc.at("test.avg");
    EXPECT_EQ(a.at("type").string, "average");
    EXPECT_DOUBLE_EQ(a.at("count").number, 2.0);
    EXPECT_DOUBLE_EQ(a.at("sum").number, 8.0);
    EXPECT_DOUBLE_EQ(a.at("mean").number, 4.0);
    EXPECT_DOUBLE_EQ(a.at("min").number, 2.0);
    EXPECT_DOUBLE_EQ(a.at("max").number, 6.0);

    const jsonlite::Value &h = doc.at("test.hist");
    EXPECT_EQ(h.at("type").string, "histogram");
    EXPECT_DOUBLE_EQ(h.at("lo").number, 0.0);
    EXPECT_DOUBLE_EQ(h.at("hi").number, 10.0);
    EXPECT_DOUBLE_EQ(h.at("total").number, 4.0);
    const jsonlite::Value &buckets = h.at("buckets");
    ASSERT_EQ(buckets.array.size(), hist.numBuckets());
    EXPECT_DOUBLE_EQ(buckets.at(0).number, 1.0); // underflow
    EXPECT_DOUBLE_EQ(buckets.at(2).number, 2.0); // [2, 4)
    EXPECT_DOUBLE_EQ(buckets.at(buckets.array.size() - 1).number,
                     1.0); // overflow
}

TEST(StatsExport, RunGatherDepositsDetailedSnapshotWhenEnabled)
{
    StatsExport &exp = StatsExport::instance();
    exp.reset();
    exp.setOutputPath("/dev/null");

    smallRun();
    ASSERT_EQ(exp.numRuns(), 1u);

    jsonlite::Value doc = jsonlite::parse(exp.toJson());
    const jsonlite::Value &stats = doc.at("runs").at(0).at("stats");
    // The documented naming contract (docs/observability.md): detailed
    // per-component counters appear alongside the cluster aggregates.
    for (const char *key :
         {"cluster.commTicks", "sim.executedEvents", "sim.finalTick",
          "node0.snic.rig0.prsIssued", "node0.snic.idxFilter.hits",
          "node0.snic.concat.prsPushed", "node0.tx.bytes",
          "tor0.cache.hits", "tor0.cache.lookups", "tor0.packetsForwarded",
          "spine0.packetsForwarded"})
        EXPECT_TRUE(stats.has(key)) << key;

    EXPECT_EQ(stats.at("node0.snic.concat.prsPerPacket").at("type").string,
              "average");
    EXPECT_EQ(stats.at("cluster.finishTimeNs").at("type").string,
              "histogram");

    exp.reset();
}
