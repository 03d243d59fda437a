/**
 * @file
 * Interactive ablation explorer: pick a matrix, a property size and a
 * cluster size on the command line and see how each NetSparse mechanism
 * contributes (the Table 8 methodology, on demand).
 *
 * Usage:
 *   ablation_explorer [matrix] [K] [nodes] [scale]
 *     matrix : arabic | europe | queen | stokes | uk   (default arabic)
 *     K      : property elements, 1..128               (default 16)
 *     nodes  : cluster size                            (default 32)
 *     scale  : matrix scale factor                     (default 0.25)
 */

#include <cstdio>
#include <string>

#include "baseline/baselines.hh"
#include "runtime/cluster.hh"
#include "sim/logging.hh"
#include "sparse/generators.hh"

using namespace netsparse;

int
main(int argc, char **argv)
try {
    std::string name = argc > 1 ? argv[1] : "arabic";
    std::uint32_t k = argc > 2 ? static_cast<std::uint32_t>(parseUint(
                                     "K", argv[2], 0, UINT32_MAX))
                               : 16;
    std::uint32_t nodes = argc > 3 ? static_cast<std::uint32_t>(parseUint(
                                         "nodes", argv[3], 0, UINT32_MAX))
                                   : 32;
    double scale = argc > 4 ? parseNumber("scale", argv[4], true) : 0.25;

    MatrixKind kind = MatrixKind::Arabic;
    bool found = false;
    for (auto cand : allMatrixKinds()) {
        if (name == matrixName(cand)) {
            kind = cand;
            found = true;
        }
    }
    if (!found || k == 0 || k > 128 || nodes < 2) {
        std::fprintf(stderr,
                     "usage: %s [arabic|europe|queen|stokes|uk] [K] "
                     "[nodes] [scale]\n",
                     argv[0]);
        return 1;
    }

    Csr m = makeBenchmarkMatrix(kind, scale);
    Partition1D part = Partition1D::equalRows(m.rows, nodes);
    std::printf("%s: %u rows, %zu nnz, K=%u, %u nodes\n\n", name.c_str(),
                m.rows, m.nnz(), k, nodes);

    BaselineParams bp;
    BaselineResult su = runSuOpt(m, part, k, bp);
    std::printf("%-10s %10s %10s %8s %8s %8s\n", "config", "time(us)",
                "spd vs SU", "F+C", "PR/pkt", "cache");

    std::printf("%-10s %10.1f %10s %8s %8s %8s\n", "SUOpt",
                ticks::toNs(su.commTicks) / 1e3, "1.0x", "-", "-", "-");

    for (std::uint32_t stage = 0; stage <= 4; ++stage) {
        ClusterConfig cfg = defaultClusterConfig(nodes);
        cfg.features = FeatureSet::ablationStage(stage);
        ClusterSim sim(cfg);
        GatherRunResult r = sim.runGather(m, part, k);
        char fc[32], ppp[32], cache[32];
        std::snprintf(fc, sizeof fc, "%.0f%%", 100.0 * r.tail().fcRate());
        std::snprintf(ppp, sizeof ppp, "%.1f", r.avgPrsPerPacket);
        std::snprintf(cache, sizeof cache, "%.0f%%",
                      100.0 * r.cacheHitRate());
        std::printf("%-10s %10.1f %9.1fx %8s %8s %8s\n",
                    FeatureSet::stageName(stage),
                    ticks::toNs(r.commTicks) / 1e3,
                    double(su.commTicks) / r.commTicks, fc, ppp, cache);
    }
    return 0;
} catch (const FatalError &) {
    return 1; // fatal() has printed the message
}
