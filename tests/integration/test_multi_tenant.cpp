/**
 * @file
 * The multi-tenant headline guarantees: a 3-job run with background
 * traffic, fair queueing and partitioned caches produces byte-identical
 * stats and telemetry documents at 1, 2 and 4 shards; the documents
 * carry the cluster.tenant<t>.* schema; the FIFO vs fair-queueing
 * choice is a real behavioral knob, not a label; one job sharing the
 * fabric with background traffic is credited with every cache serve;
 * and every cache layout, with one job and with two, gives documents
 * independent of the shard count.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/job_scheduler.hh"
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

/** Three heterogeneous jobs: different matrices, K and admission. */
std::vector<JobSpec>
threeJobs()
{
    static const Csr a = makeBenchmarkMatrix(MatrixKind::Arabic, 0.02);
    static const Csr q = makeBenchmarkMatrix(MatrixKind::Queen, 0.02);
    static const Csr e = makeBenchmarkMatrix(MatrixKind::Europe, 0.02);
    std::vector<JobSpec> specs(3);
    specs[0].work =
        GatherWorkload::slice(a, Partition1D::equalRows(a.rows, 16));
    specs[0].k = 16;
    specs[1].work =
        GatherWorkload::slice(q, Partition1D::equalRows(q.rows, 16));
    specs[1].k = 8;
    specs[1].startDelay = 2 * ticks::us;
    specs[2].work =
        GatherWorkload::slice(e, Partition1D::equalRows(e.rows, 16));
    specs[2].k = 32;
    specs[2].startDelay = 5 * ticks::us;
    return specs;
}

struct CapturedRun
{
    std::string statsJson;
    std::string telemetryJson;
    MultiJobResult result;
};

CapturedRun
runCaptured(ClusterConfig cfg, bool telemetry = true)
{
    StatsExport stats;
    stats.setCollect(true);
    StatsExport::Bind statsBind(stats);
    TelemetrySink sink;
    sink.setCollect(telemetry);
    TelemetrySink::Bind telemetryBind(sink);

    BackgroundTrafficConfig bg;
    EXPECT_TRUE(BackgroundTrafficConfig::parse("incast:0.4:300", bg));

    CapturedRun out;
    JobScheduler sched(cfg);
    out.result = sched.run(threeJobs(), bg);
    out.statsJson = stats.toJson();
    out.telemetryJson = sink.toJson();
    return out;
}

/**
 * The stats and telemetry documents of the first @p jobs jobs of
 * threeJobs under @p layout, without background traffic.
 */
std::string
layoutDocuments(CacheLayout layout, std::uint32_t jobs,
                std::uint32_t shards)
{
    StatsExport stats;
    stats.setCollect(true);
    StatsExport::Bind statsBind(stats);
    TelemetrySink sink;
    sink.setCollect(true);
    TelemetrySink::Bind telemetryBind(sink);

    ClusterConfig cfg = shardableCluster(shards);
    cfg.cacheLayout = layout;
    std::vector<JobSpec> specs = threeJobs();
    specs.resize(jobs);
    JobScheduler(cfg).run(std::move(specs));
    return stats.toJson() + sink.toJson();
}

} // namespace

TEST(MultiTenant, StatsAndTelemetryAreByteIdenticalAcrossShardCounts)
{
    ClusterConfig cfg = shardableCluster(1);
    cfg.fairQueue = true;
    cfg.cacheLayout = CacheLayout::PerTenant;

    CapturedRun seq = runCaptured(cfg);
    EXPECT_EQ(seq.result.simShards, 1u);
    ASSERT_EQ(seq.result.jobs.size(), 3u);

    for (std::uint32_t shards : {2u, 4u}) {
        ClusterConfig pcfg = shardableCluster(shards);
        pcfg.fairQueue = true;
        pcfg.cacheLayout = CacheLayout::PerTenant;
        CapturedRun par = runCaptured(pcfg);
        EXPECT_EQ(par.result.simShards, shards);
        EXPECT_GT(par.result.epochs, 0u);
        EXPECT_EQ(par.statsJson, seq.statsJson)
            << "stats diverged at " << shards << " shards";
        EXPECT_EQ(par.telemetryJson, seq.telemetryJson)
            << "telemetry diverged at " << shards << " shards";
        EXPECT_EQ(par.result.makespanTicks, seq.result.makespanTicks);
        EXPECT_EQ(par.result.executedEvents, seq.result.executedEvents);
        EXPECT_EQ(par.result.finalTick, seq.result.finalTick);
        EXPECT_EQ(par.result.totalWireBytes, seq.result.totalWireBytes);
        EXPECT_EQ(par.result.backgroundDelivered,
                  seq.result.backgroundDelivered);
        for (std::size_t j = 0; j < 3; ++j)
            EXPECT_EQ(par.result.jobs[j].commTicks,
                      seq.result.jobs[j].commTicks);
    }
}

TEST(MultiTenant, DocumentCarriesTheTenantSchema)
{
    ClusterConfig cfg = shardableCluster(1);
    cfg.fairQueue = true;
    cfg.cacheLayout = CacheLayout::PerTenant;
    CapturedRun run = runCaptured(cfg);

    for (const char *key :
         {"cluster.jobs", "cluster.makespanTicks",
          "cluster.tenant0.commTicks", "cluster.tenant1.startDelayTicks",
          "cluster.tenant2.tailGoodput", "cluster.tenant2.finishTimeNs",
          "cluster.background.packetsInjected",
          "cluster.background.packetsDelivered", "node0.job0.snic.",
          "node0.job2.snic.", ".fq.enqueued", ".tenant0.cache."})
        EXPECT_NE(run.statsJson.find(key), std::string::npos)
            << "missing " << key;
    // The legacy single-job headline key must NOT appear: the tenant
    // schema replaces it rather than aliasing job0 into it.
    EXPECT_EQ(run.statsJson.find("\"cluster.commTicks\""),
              std::string::npos);
    // Telemetry grew per-tenant entities alongside the per-job RIGs.
    EXPECT_NE(run.telemetryJson.find("node0.job1.rig"),
              std::string::npos);
    EXPECT_NE(run.telemetryJson.find("\"tenant\""), std::string::npos);
}

TEST(MultiTenant, FairQueueingChangesContendedTiming)
{
    // Under an incast flood the switch scheduling discipline must be
    // load-bearing: FIFO and per-tenant DRR produce different job
    // completion times (the bench quantifies the direction; here we
    // pin only that the knob is wired through to behavior).
    ClusterConfig fifo = shardableCluster(1);
    CapturedRun a = runCaptured(fifo, /*telemetry=*/false);

    ClusterConfig fq = shardableCluster(1);
    fq.fairQueue = true;
    CapturedRun b = runCaptured(fq, /*telemetry=*/false);

    EXPECT_EQ(a.statsJson.find(".fq.enqueued"), std::string::npos);
    EXPECT_NE(b.statsJson.find(".fq.enqueued"), std::string::npos);
    bool any_differs =
        a.result.makespanTicks != b.result.makespanTicks;
    for (std::size_t j = 0; j < 3; ++j)
        any_differs = any_differs || a.result.jobs[j].commTicks !=
                                         b.result.jobs[j].commTicks;
    EXPECT_TRUE(any_differs)
        << "fair queueing had no effect on a contended run";
}

TEST(MultiTenant, SingleJobWithBackgroundOwnsTheCacheServes)
{
    // With one tenant the switches keep no per-tenant split; the job's
    // share of the cache serves is the whole fabric's.
    Csr a = makeBenchmarkMatrix(MatrixKind::Arabic, 0.02);
    std::vector<JobSpec> specs(1);
    specs[0].work =
        GatherWorkload::slice(a, Partition1D::equalRows(a.rows, 16));
    BackgroundTrafficConfig bg;
    ASSERT_TRUE(BackgroundTrafficConfig::parse("incast:0.4:300", bg));
    MultiJobResult mr =
        JobScheduler(shardableCluster(1)).run(std::move(specs), bg);
    EXPECT_GT(mr.prsServedByCache, 0u);
    EXPECT_EQ(mr.jobs[0].prsServedByCache, mr.prsServedByCache);
}

TEST(MultiTenant, EveryCacheLayoutIsShardInvariantWithOneAndTwoJobs)
{
    // Each ToR has 4 host and 4 spine ports, so 2 middle pipes. The
    // per-pipe layout exports its slices at any job count, the
    // per-tenant one only with two tenants.
    for (CacheLayout layout : {CacheLayout::Shared, CacheLayout::PerPipe,
                               CacheLayout::PerTenant}) {
        for (std::uint32_t jobs : {1u, 2u}) {
            const int id = static_cast<int>(layout);
            std::string seq = layoutDocuments(layout, jobs, 1);
            EXPECT_EQ(layoutDocuments(layout, jobs, 2), seq)
                << "layout " << id << ", " << jobs
                << " jobs: documents diverged at 2 shards";
            EXPECT_EQ(seq.find("tor0.pipe1.cache.hits") != std::string::npos,
                      layout == CacheLayout::PerPipe)
                << "layout " << id << ", " << jobs << " jobs";
            EXPECT_EQ(
                seq.find("tor0.tenant1.cache.hits") != std::string::npos,
                layout == CacheLayout::PerTenant && jobs == 2)
                << "layout " << id << ", " << jobs << " jobs";
        }
    }
}

TEST(MultiTenant, PerTenantCacheWithOneJobIsTheSharedCache)
{
    // One tenant's slice is the whole budget: the same document as the
    // shared array, key for key.
    EXPECT_EQ(layoutDocuments(CacheLayout::PerTenant, 1, 1),
              layoutDocuments(CacheLayout::Shared, 1, 1));
}
