/**
 * @file
 * Ablations of the repository's design choices and of the paper's
 * Section 7 / Section 9.4 extensions (no single paper figure):
 *
 *  1. virtualized vs dedicated Concatenation Queues (Section 7.2):
 *     performance cost of a fixed pool of small physical CQs against
 *     2(N-1) MTU-sized dedicated queues, and the SRAM each needs;
 *  2. shared vs per-pipe Property Cache organization (Figure 8
 *     alternative; see src/net/switch.hh);
 *  3. static vs adaptive RIG batch sizing (the Section 9.4 future-work
 *     item, implemented as an AIMD policy in the host driver);
 *  4. equal-rows vs equal-nnz 1-D partitioning (the Section 9.4
 *     observation that partitioning, not the hardware, causes the
 *     remaining communication imbalance).
 */

#include "bench_common.hh"
#include "runtime/cluster.hh"

using namespace netsparse;
using namespace netsparse::bench;

namespace {

Tick
runOnce(const Csr &m, const Partition1D &part, ClusterConfig cfg,
        std::uint32_t k = 16)
{
    ClusterSim sim(std::move(cfg));
    return sim.runGather(m, part, k).commTicks;
}

} // namespace

int
benchMain(int, char **)
{
    std::uint32_t nodes = benchNodes();
    double scale = benchScale(1.0);
    banner("Design-choice and extension ablations",
           "Sections 7.2 / 9.4 / 6.2.1");
    std::printf("(%u nodes, matrix scale %.2f, K=16)\n\n", nodes, scale);

    // Variant order matches the printed columns: dedicated CQs (the
    // baseline), virtualized CQs, per-pipe caches, adaptive batching.
    constexpr std::size_t nv = 4;
    auto suite = benchmarkSuite(scale);
    std::vector<Tick> times(suite.size() * nv);
    runSweep(times.size(), [&](std::size_t i) {
        const auto &bm = suite[i / nv];
        Partition1D part = Partition1D::equalRows(bm.matrix.rows, nodes);
        ClusterConfig cfg = defaultClusterConfig(nodes);
        switch (i % nv) {
          case 1:
            cfg.virtualizedCqs = true;
            break;
          case 2:
            cfg.cacheLayout = CacheLayout::PerPipe;
            break;
          case 3:
            cfg.host.policy = BatchPolicy::Adaptive;
            cfg.host.batchSize = 4096; // adapted from here
            break;
          default:
            break;
        }
        times[i] = runOnce(bm.matrix, part, cfg);
    });

    std::printf("%-8s %12s %12s %12s %12s %12s %12s\n", "matrix",
                "dedicated", "virtualCQ", "sharedCache", "perPipe",
                "staticB", "adaptiveB");
    for (std::size_t m = 0; m < suite.size(); ++m) {
        Tick dedicated = times[m * nv + 0];
        std::printf("%-8s %9.1f us %9.1f us %9.1f us %9.1f us "
                    "%9.1f us %9.1f us\n",
                    suite[m].name.c_str(), ticks::toNs(dedicated) / 1e3,
                    ticks::toNs(times[m * nv + 1]) / 1e3,
                    ticks::toNs(dedicated) / 1e3,
                    ticks::toNs(times[m * nv + 2]) / 1e3,
                    ticks::toNs(dedicated) / 1e3,
                    ticks::toNs(times[m * nv + 3]) / 1e3);
    }
    std::printf("\n(dedicated CQ SRAM: 2(N-1) x MTU = %.0f KB; "
                "virtualized: 64 x 128 B = 8 KB)\n",
                2.0 * (nodes - 1) * 1500 / 1024.0);

    std::printf("\nPartitioning (Section 9.4): tail/mean communication "
                "volume imbalance\n");
    std::printf("%-8s %14s %14s\n", "matrix", "equal-rows", "equal-nnz");
    // Second sweep: per-matrix imbalance under the two partitionings
    // (index order fixes what used to be unspecified printf-argument
    // evaluation order).
    std::vector<double> imb(suite.size() * 2);
    runSweep(imb.size(), [&](std::size_t i) {
        const auto &bm = suite[i / 2];
        Partition1D part =
            i % 2 == 0 ? Partition1D::equalRows(bm.matrix.rows, nodes)
                       : Partition1D::equalNnz(bm.matrix, nodes);
        ClusterConfig cfg = defaultClusterConfig(nodes);
        ClusterSim sim(cfg);
        GatherRunResult r = sim.runGather(bm.matrix, part, 16);
        std::uint64_t max_rx = 0, sum_rx = 0;
        for (const auto &n : r.nodes) {
            max_rx = std::max(max_rx, n.rxBytes);
            sum_rx += n.rxBytes;
        }
        imb[i] = sum_rx
                     ? static_cast<double>(max_rx) * nodes / sum_rx
                     : 0.0;
    });
    for (std::size_t m = 0; m < suite.size(); ++m)
        std::printf("%-8s %13.2fx %13.2fx\n", suite[m].name.c_str(),
                    imb[m * 2], imb[m * 2 + 1]);
    return 0;
}
