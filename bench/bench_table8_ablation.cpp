/**
 * @file
 * Table 8: ablation study. NetSparse mechanisms are applied
 * cumulatively (RIG -> +Filter -> +Coalesce -> +ConcNIC -> +Switch) on
 * arabic (denser reuse) and europe (sparser), for K = 1, 16, 128;
 * speedup and tail traffic reduction are relative to SUOpt.
 *
 * Shape to reproduce: for arabic, filtering/coalescing contribute the
 * bulk; for europe, RIG offload itself is the dominant win and
 * filtering adds little; concatenation helps small K most; the switch
 * stage adds cross-node concatenation and cache traffic savings.
 */

#include "baseline/baselines.hh"
#include "bench_common.hh"
#include "runtime/cluster.hh"

using namespace netsparse;
using namespace netsparse::bench;

int
benchMain(int, char **)
{
    std::uint32_t nodes = benchNodes();
    double scale = benchScale(1.0);
    banner("Cumulative ablation vs SUOpt", "Table 8");
    std::printf("(%u nodes, matrix scale %.2f)\n", nodes, scale);

    const MatrixKind kinds[] = {MatrixKind::Arabic, MatrixKind::Europe};
    const std::uint32_t ks[] = {1, 16, 128};
    constexpr std::size_t nm = std::size(kinds);
    constexpr std::size_t nstage = 5;
    constexpr std::size_t nk = std::size(ks);

    std::vector<Csr> mats;
    for (MatrixKind kind : kinds)
        mats.push_back(makeBenchmarkMatrix(kind, scale));

    struct Cell
    {
        double spd = 0, trfc = 0, gput = 0;
    };
    std::vector<Cell> cells(nm * nstage * nk);
    runSweep(cells.size(), [&](std::size_t i) {
        std::size_t mi = i / (nstage * nk);
        std::uint32_t stage =
            static_cast<std::uint32_t>((i / nk) % nstage);
        std::uint32_t k = ks[i % nk];
        const Csr &m = mats[mi];
        Partition1D part = Partition1D::equalRows(m.rows, nodes);

        BaselineParams bp;
        BaselineResult su = runSuOpt(m, part, k, bp);
        ClusterConfig cfg = defaultClusterConfig(nodes);
        cfg.features = FeatureSet::ablationStage(stage);
        GatherRunResult r = ClusterSim(cfg).runGather(m, part, k);

        double spd = static_cast<double>(su.commTicks) / r.commTicks;
        double su_bytes =
            static_cast<double>(m.cols - part.size(r.tailNode)) * 4.0 *
            k;
        double trfc =
            r.tail().rxBytes ? su_bytes / r.tail().rxBytes : 0.0;
        cells[i] = Cell{spd, trfc, r.tailGoodput};
    });

    for (std::size_t mi = 0; mi < nm; ++mi) {
        std::printf("\n--- %s ---\n", matrixName(kinds[mi]));
        std::printf("%-10s", "stage");
        for (std::uint32_t k : ks)
            std::printf("      Spd%-3u -Trfc%-3u  Gput%-3u", k, k, k);
        std::printf("\n");

        for (std::uint32_t stage = 0; stage < nstage; ++stage) {
            std::printf("%-10s", FeatureSet::stageName(stage));
            for (std::size_t ki = 0; ki < nk; ++ki) {
                const Cell &c =
                    cells[mi * nstage * nk + stage * nk + ki];
                std::printf("   %7.2fx %7.1fx %6.1f%%", c.spd, c.trfc,
                            100.0 * c.gput);
            }
            std::printf("\n");
        }
    }
    return 0;
}
