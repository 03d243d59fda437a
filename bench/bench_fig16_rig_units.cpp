/**
 * @file
 * Figure 16: sensitivity to the number of RIG units per SNIC, as a
 * speedup over a 2-unit (1 client + 1 server) configuration.
 *
 * Shape to reproduce: speedups grow with the unit count and flatten by
 * 32 units (the paper's design point).
 */

#include "bench_common.hh"
#include "runtime/cluster.hh"

using namespace netsparse;
using namespace netsparse::bench;

int
benchMain(int, char **)
{
    std::uint32_t nodes = benchNodes();
    double scale = benchScale(2.0);
    const std::uint32_t k = 16;
    banner("Sensitivity to the number of RIG units (speedup over 2)",
           "Figure 16");
    std::printf("(%u nodes, matrix scale %.2f, K=%u)\n\n", nodes, scale,
                k);

    const std::uint32_t unit_counts[] = {2, 4, 8, 16, 32, 64};
    constexpr std::size_t nu = std::size(unit_counts);
    std::printf("%-8s", "matrix");
    for (auto u : unit_counts)
        std::printf("%9u", u);
    std::printf("\n");

    auto suite = benchmarkSuite(scale);
    std::vector<Tick> times(suite.size() * nu);
    runSweep(times.size(), [&](std::size_t i) {
        const auto &bm = suite[i / nu];
        Partition1D part = Partition1D::equalRows(bm.matrix.rows, nodes);
        ClusterConfig cfg = defaultClusterConfig(nodes);
        cfg.snic.numRigUnits = unit_counts[i % nu];
        times[i] = ClusterSim(cfg).runGather(bm.matrix, part, k).commTicks;
    });

    for (std::size_t m = 0; m < suite.size(); ++m) {
        std::printf("%-8s", suite[m].name.c_str());
        for (std::size_t u = 0; u < nu; ++u)
            std::printf("%8.2fx", static_cast<double>(times[m * nu]) /
                                      times[m * nu + u]);
        std::printf("\n");
    }
    return 0;
}
