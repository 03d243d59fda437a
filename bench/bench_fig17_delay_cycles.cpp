/**
 * @file
 * Figure 17: sensitivity to the concatenation delay (the maximum cycles
 * a PR may wait in a Concatenation Queue), as speedup over running with
 * concatenation disabled. The switch delay scales with the NIC delay as
 * in the paper (125/500 ratio).
 *
 * Shape to reproduce: an interior optimum - more waiting packs more PRs
 * per packet until the added latency outweighs the header savings; with
 * very large delays performance drops below the no-concatenation
 * baseline. Matrices with stronger destination locality (queen) gain
 * the most; europe gains the least.
 */

#include "bench_common.hh"
#include "runtime/cluster.hh"

using namespace netsparse;
using namespace netsparse::bench;

int
benchMain(int, char **)
{
    std::uint32_t nodes = benchNodes();
    double scale = benchScale(1.0);
    const std::uint32_t k = 16;
    banner("Sensitivity to concatenation delay cycles "
           "(speedup over no concatenation)",
           "Figure 17");
    std::printf("(%u nodes, matrix scale %.2f, K=%u)\n\n", nodes, scale,
                k);

    const std::uint32_t delays[] = {0, 125, 500, 2000, 10000, 50000};
    constexpr std::size_t nd = std::size(delays);
    std::printf("%-8s", "matrix");
    for (auto d : delays)
        std::printf("%9u", d);
    std::printf("\n");

    // Point 0 of each matrix's row is the no-concatenation baseline;
    // points 1..nd sweep the delay.
    auto suite = benchmarkSuite(scale);
    constexpr std::size_t np = nd + 1;
    std::vector<Tick> times(suite.size() * np);
    runSweep(times.size(), [&](std::size_t i) {
        const auto &bm = suite[i / np];
        std::size_t p = i % np;
        Partition1D part = Partition1D::equalRows(bm.matrix.rows, nodes);
        ClusterConfig cfg = defaultClusterConfig(nodes);
        if (p == 0) {
            cfg.features.concatNic = false;
            cfg.features.concatSwitch = false;
            cfg.features.switchCache = false;
        } else {
            cfg.nicConcatDelayCycles = delays[p - 1];
            cfg.switchConcatDelayCycles = delays[p - 1] / 4;
        }
        times[i] = ClusterSim(cfg).runGather(bm.matrix, part, k).commTicks;
    });

    for (std::size_t m = 0; m < suite.size(); ++m) {
        Tick base = times[m * np];
        std::printf("%-8s", suite[m].name.c_str());
        for (std::size_t d = 1; d <= nd; ++d)
            std::printf("%8.2fx",
                        static_cast<double>(base) / times[m * np + d]);
        std::printf("\n");
    }
    return 0;
}
