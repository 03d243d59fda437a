/**
 * @file
 * Multi-tenant interference sweep: three concurrent gather jobs
 * (different matrices and K) share one fabric, optionally against an
 * incast background flow, under FIFO vs per-tenant fair-queueing
 * switch output queues and shared vs partitioned Property Caches.
 *
 * Not a paper figure: the paper runs one job per fabric. This bench
 * quantifies what the tenant isolation machinery (runtime/
 * job_scheduler.hh) buys - the headline column is job0's slowdown
 * versus running alone, which FIFO lets the background traffic
 * inflate and fair queueing bounds.
 */

#include <vector>

#include "bench_common.hh"
#include "runtime/job_scheduler.hh"

using namespace netsparse;
using namespace netsparse::bench;

namespace {

struct Scenario
{
    const char *name;
    std::uint32_t jobs;
    bool fairQueue;
    bool partitionedCache;
    const char *background;
};

} // namespace

int
benchMain(int, char **)
{
    banner("Multi-tenant interference: FIFO vs fair queueing",
           "no single figure; Section 2 shared-fabric motivation");
    std::uint32_t nodes = benchNodes(16);
    double scale = benchScale();

    auto suite = benchmarkSuite(scale);
    const std::uint32_t ks[3] = {16, 8, 32};

    const std::vector<Scenario> scenarios = {
        {"job0 solo", 1, false, false, ""},
        {"3 jobs, fifo", 3, false, false, ""},
        {"3 jobs, fq", 3, true, false, ""},
        {"3 jobs + incast, fifo", 3, false, false, "incast:0.6:4000"},
        {"3 jobs + incast, fq", 3, true, false, "incast:0.6:4000"},
        {"  + partitioned cache", 3, true, true, "incast:0.6:4000"},
    };

    std::vector<MultiJobResult> results(scenarios.size());
    runSweep(scenarios.size(), [&](std::size_t i) {
        const Scenario &sc = scenarios[i];
        ClusterConfig cfg = defaultClusterConfig(nodes);
        cfg.fairQueue = sc.fairQueue;
        if (sc.partitionedCache)
            cfg.cacheLayout = CacheLayout::PerTenant;
        BackgroundTrafficConfig bg;
        if (*sc.background)
            BackgroundTrafficConfig::parse(sc.background, bg);
        std::vector<JobSpec> specs(sc.jobs);
        for (std::uint32_t j = 0; j < sc.jobs; ++j) {
            const Csr &m = suite[j % suite.size()].matrix;
            specs[j].work = GatherWorkload::slice(
                m, Partition1D::equalRows(m.rows, nodes));
            specs[j].k = ks[j % 3];
            specs[j].name = "job" + std::to_string(j);
        }
        JobScheduler sched(cfg);
        results[i] = sched.run(std::move(specs), bg);
    });

    double solo_us = ticks::toNs(results[0].jobs[0].commTicks) / 1e3;
    std::printf("%-23s %9s %9s %9s %9s %9s %10s\n", "scenario",
                "job0 us", "job1 us", "job2 us", "mkspn us", "j0 slow",
                "bg pkts");
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const MultiJobResult &mr = results[i];
        std::printf("%-23s %9.1f", scenarios[i].name,
                    ticks::toNs(mr.jobs[0].commTicks) / 1e3);
        for (std::size_t j = 1; j < 3; ++j) {
            if (j < mr.jobs.size())
                std::printf(" %9.1f",
                            ticks::toNs(mr.jobs[j].commTicks) / 1e3);
            else
                std::printf(" %9s", "-");
        }
        std::printf(" %9.1f %8.2fx %10llu\n",
                    ticks::toNs(mr.makespanTicks) / 1e3,
                    ticks::toNs(mr.jobs[0].commTicks) / 1e3 / solo_us,
                    (unsigned long long)mr.backgroundDelivered);
    }
    std::printf("\nj0 slow = job0 communication time over its solo "
                "run; fair queueing should\nhold it near the no-"
                "background contended value while FIFO lets the "
                "incast\nflow inflate it. See docs/observability.md "
                "(cluster.tenant<t>.*).\n");
    return 0;
}
