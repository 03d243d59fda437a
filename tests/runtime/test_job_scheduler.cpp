/**
 * @file
 * JobScheduler unit tests: the single-job schedule is the legacy
 * cluster run, concurrent jobs all complete with correct per-tenant
 * accounting, an admission delay holds a job back, a run cut off by
 * the simulation cap is fatal (and keeps its per-shard traces), and
 * the background-traffic config parses exactly what
 * docs/observability.md promises.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/json_lite.hh"
#include "runtime/job_scheduler.hh"
#include "sim/stats_export.hh"
#include "sim/trace.hh"
#include "sparse/generators.hh"

using namespace netsparse;

namespace {

/** 16 nodes over 4 racks, so up to 4 shards are available. */
ClusterConfig
shardableCluster(std::uint32_t shards = 1)
{
    ClusterConfig cfg = defaultClusterConfig(16);
    cfg.nodesPerRack = 4;
    cfg.numSpines = 4;
    cfg.simShards = shards;
    return cfg;
}

/** One job cut off by a 2 us cap; @return the fatal's message. */
std::string
capFatal(const Csr &m, std::uint32_t shards)
{
    ClusterConfig cfg = shardableCluster(shards);
    cfg.maxSimTime = 2 * ticks::us;
    std::vector<JobSpec> specs(1);
    specs[0].work =
        GatherWorkload::slice(m, Partition1D::equalRows(m.rows, 16));
    try {
        JobScheduler(cfg).run(std::move(specs));
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "no fatal";
}

} // namespace

TEST(JobScheduler, SingleJobMatchesTheLegacyClusterRun)
{
    // A one-job schedule with no background traffic must be the legacy
    // cluster run: same scalar results and a byte-identical stats
    // document.
    Csr m = makeBenchmarkMatrix(MatrixKind::Arabic, 0.02);
    Partition1D part = Partition1D::equalRows(m.rows, 16);

    StatsExport ref_stats;
    ref_stats.setCollect(true);
    GatherRunResult ref;
    {
        StatsExport::Bind bind(ref_stats);
        ClusterSim sim(shardableCluster());
        ref = sim.runGather(m, part, 16);
    }

    StatsExport got_stats;
    got_stats.setCollect(true);
    MultiJobResult mr;
    {
        StatsExport::Bind bind(got_stats);
        std::vector<JobSpec> specs(1);
        specs[0].work = GatherWorkload::slice(m, part);
        specs[0].k = 16;
        JobScheduler sched(shardableCluster());
        mr = sched.run(std::move(specs));
    }

    ASSERT_EQ(mr.jobs.size(), 1u);
    EXPECT_EQ(got_stats.toJson(), ref_stats.toJson());
    EXPECT_EQ(mr.jobs[0].commTicks, ref.commTicks);
    EXPECT_EQ(mr.jobs[0].tailNode, ref.tailNode);
    EXPECT_EQ(mr.jobs[0].totalWireBytes, ref.totalWireBytes);
    EXPECT_EQ(mr.makespanTicks, ref.commTicks);
    EXPECT_EQ(mr.executedEvents, ref.executedEvents);
    EXPECT_EQ(mr.backgroundPackets, 0u);
}

TEST(JobScheduler, ConcurrentJobsAllCompleteWithOwnAccounting)
{
    Csr a = makeBenchmarkMatrix(MatrixKind::Arabic, 0.02);
    Csr q = makeBenchmarkMatrix(MatrixKind::Queen, 0.02);

    std::vector<JobSpec> specs(2);
    specs[0].work =
        GatherWorkload::slice(a, Partition1D::equalRows(a.rows, 16));
    specs[0].k = 16;
    specs[1].work =
        GatherWorkload::slice(q, Partition1D::equalRows(q.rows, 16));
    specs[1].k = 8;
    JobScheduler sched(shardableCluster());
    MultiJobResult mr = sched.run(std::move(specs));

    ASSERT_EQ(mr.jobs.size(), 2u);
    for (const GatherRunResult &r : mr.jobs) {
        EXPECT_GT(r.commTicks, 0u);
        ASSERT_EQ(r.nodes.size(), 16u);
        EXPECT_GT(r.sumNodes([](const NodeRunStats &n) {
                      return n.prsIssued;
                  }),
                  0u);
    }
    EXPECT_EQ(mr.makespanTicks,
              std::max(mr.jobs[0].commTicks, mr.jobs[1].commTicks));
    // Per-tenant streams are independent: each job processed exactly
    // its own matrix's indices, sharing the fabric changes timing only.
    EXPECT_EQ(mr.jobs[0].sumNodes(
                  [](const NodeRunStats &n) { return n.idxsProcessed; }),
              static_cast<std::uint64_t>(a.nnz()));
    EXPECT_EQ(mr.jobs[1].sumNodes(
                  [](const NodeRunStats &n) { return n.idxsProcessed; }),
              static_cast<std::uint64_t>(q.nnz()));
}

TEST(JobScheduler, StartDelayDefersAdmission)
{
    Csr m = makeBenchmarkMatrix(MatrixKind::Arabic, 0.02);
    const Tick delay = 20 * ticks::us;

    auto run_with_delay = [&](Tick d) {
        std::vector<JobSpec> specs(2);
        for (int j = 0; j < 2; ++j) {
            specs[j].work =
                GatherWorkload::slice(m, Partition1D::equalRows(m.rows, 16));
            specs[j].k = 16;
        }
        specs[1].startDelay = d;
        JobScheduler sched(shardableCluster());
        return sched.run(std::move(specs));
    };

    MultiJobResult together = run_with_delay(0);
    MultiJobResult staggered = run_with_delay(delay);
    // The late job cannot finish before it is admitted, and admitting
    // it late pushes its completion past the contended-start run.
    EXPECT_GE(staggered.jobs[1].commTicks, delay);
    EXPECT_GT(staggered.jobs[1].commTicks, together.jobs[1].commTicks);
}

TEST(JobScheduler, BackgroundBudgetIsExactAndAccounted)
{
    Csr m = makeBenchmarkMatrix(MatrixKind::Arabic, 0.02);
    BackgroundTrafficConfig bg;
    ASSERT_TRUE(BackgroundTrafficConfig::parse("alltoall:0.5:50", bg));

    std::vector<JobSpec> specs(1);
    specs[0].work =
        GatherWorkload::slice(m, Partition1D::equalRows(m.rows, 16));
    specs[0].k = 16;
    JobScheduler sched(shardableCluster());
    MultiJobResult mr = sched.run(std::move(specs), bg);

    // Fixed per-source budget: every node sends exactly 50 packets.
    EXPECT_EQ(mr.backgroundPackets, 16u * 50u);
    EXPECT_EQ(mr.backgroundBytes, 16u * 50u * 1500u);
    EXPECT_GT(mr.backgroundDelivered, 0u);
    EXPECT_LE(mr.backgroundDelivered, mr.backgroundPackets);
    EXPECT_GT(mr.jobs[0].commTicks, 0u);
}

TEST(JobScheduler, SimulationCapIsFatal)
{
    // A run cut off by the simulation cap must fail loudly, naming the
    // first slice that did not finish, at any shard count.
    Csr m = makeBenchmarkMatrix(MatrixKind::Arabic, 0.02);
    for (std::uint32_t shards : {1u, 2u}) {
        std::string what = capFatal(m, shards);
        EXPECT_NE(what.find("0/16 hosts finished"), std::string::npos)
            << what;
        EXPECT_NE(what.find("first unfinished: node0 with "),
                  std::string::npos)
            << what;
    }

    // A traced sharded run still writes every per-shard trace: the
    // shard writers close as the fatal unwinds.
    const std::string base =
        ::testing::TempDir() + "netsparse_cap_trace.json";
    auto shardPath = [&base](int s) {
        return TraceWriter::derivedPath(base, "shard" + std::to_string(s));
    };
    for (int s = 0; s < 2; ++s)
        std::remove(shardPath(s).c_str());
    TraceWriter ambient;
    ASSERT_TRUE(ambient.open(base));
    {
        TraceWriter::Bind traceBind(ambient);
        EXPECT_NE(capFatal(m, 2).find("0/16 hosts finished"),
                  std::string::npos);
    }
    ambient.close();
    std::remove(base.c_str());
    for (int s = 0; s < 2; ++s) {
        std::ifstream in(shardPath(s));
        ASSERT_TRUE(in) << shardPath(s);
        std::ostringstream text;
        text << in.rdbuf();
        jsonlite::Value doc = jsonlite::parse(text.str());
        EXPECT_GT(doc.at("traceEvents").array.size(), 1u) << shardPath(s);
        std::remove(shardPath(s).c_str());
    }
}

TEST(BackgroundTraffic, SpecParsing)
{
    BackgroundTrafficConfig bg;
    ASSERT_TRUE(BackgroundTrafficConfig::parse("incast:0.5", bg));
    EXPECT_EQ(bg.pattern, BackgroundPattern::Incast);
    EXPECT_DOUBLE_EQ(bg.load, 0.5);
    EXPECT_EQ(bg.packetsPerSource, 2000u); // default budget
    EXPECT_EQ(bg.packetBytes, 1500u);
    EXPECT_TRUE(bg.enabled());

    ASSERT_TRUE(BackgroundTrafficConfig::parse("storage:0.25:100:512",
                                               bg));
    EXPECT_EQ(bg.pattern, BackgroundPattern::Storage);
    EXPECT_EQ(bg.packetsPerSource, 100u);
    EXPECT_EQ(bg.packetBytes, 512u);

    // Malformed specs are rejected and leave the output untouched.
    BackgroundTrafficConfig keep = bg;
    for (const char *bad :
         {"incast", "bogus:0.5", "incast:0", "incast:-0.5", "incast:1.5",
          "incast:0.5:0", "incast:0.5:10:0", "incast:0.5:10:64:extra",
          ":0.5", "incast:abc"}) {
        EXPECT_FALSE(BackgroundTrafficConfig::parse(bad, bg)) << bad;
        EXPECT_EQ(bg.pattern, keep.pattern) << bad;
        EXPECT_DOUBLE_EQ(bg.load, keep.load) << bad;
    }
}
