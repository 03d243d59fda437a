/**
 * @file
 * Figure 22: NetSparse communication speedup over SUOpt on three
 * 128-node networks of similar bisection bandwidth: Leaf-Spine (the
 * design target), HyperX (4x4x2, width 4) and Dragonfly (4 groups).
 *
 * Shape to reproduce: NetSparse stays effective on all three; higher-
 * diameter networks (HyperX) lose some ground, most visibly for
 * stokes, whose far-coupling traffic takes the extra hops.
 */

#include "baseline/baselines.hh"
#include "bench_common.hh"
#include "runtime/cluster.hh"

using namespace netsparse;
using namespace netsparse::bench;

int
benchMain(int, char **)
{
    double scale = benchScale(1.0);
    const std::uint32_t nodes = 128; // HyperX/Dragonfly configs are fixed
    const std::uint32_t k = 16;
    banner("NetSparse speedup over SUOpt across topologies", "Figure 22");
    std::printf("(%u nodes, matrix scale %.2f, K=%u)\n\n", nodes, scale,
                k);

    struct TopoRow
    {
        TopologyKind kind;
        const char *name;
    };
    const TopoRow topos[] = {{TopologyKind::LeafSpine, "leaf-spine"},
                             {TopologyKind::HyperX, "hyperx"},
                             {TopologyKind::Dragonfly, "dragonfly"}};
    constexpr std::size_t nt = std::size(topos);

    std::printf("%-8s", "matrix");
    for (const auto &t : topos)
        std::printf("%12s", t.name);
    std::printf("\n");

    auto suite = benchmarkSuite(scale);
    std::vector<Tick> times(suite.size() * nt);
    runSweep(times.size(), [&](std::size_t i) {
        const auto &bm = suite[i / nt];
        Partition1D part = Partition1D::equalRows(bm.matrix.rows, nodes);
        ClusterConfig cfg = defaultClusterConfig(nodes);
        cfg.topology = topos[i % nt].kind;
        times[i] = ClusterSim(cfg).runGather(bm.matrix, part, k).commTicks;
    });

    for (std::size_t m = 0; m < suite.size(); ++m) {
        const auto &bm = suite[m];
        Partition1D part = Partition1D::equalRows(bm.matrix.rows, nodes);
        BaselineParams bp;
        BaselineResult su = runSuOpt(bm.matrix, part, k, bp);
        std::printf("%-8s", bm.name.c_str());
        for (std::size_t t = 0; t < nt; ++t)
            std::printf("%11.2fx", static_cast<double>(su.commTicks) /
                                       times[m * nt + t]);
        std::printf("\n");
    }
    return 0;
}
