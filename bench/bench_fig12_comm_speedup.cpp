/**
 * @file
 * Figure 12: communication speedup of NetSparse and SAOpt over SUOpt on
 * the 128-node system for K = 1, 16, 128.
 *
 * Shape to reproduce: NetSparse beats both baselines on every matrix;
 * speedups grow with K (SUOpt's redundant traffic hurts more for wide
 * properties); SAOpt can fall below SUOpt where PR software costs
 * dominate. Absolute factors are smaller than the paper's because the
 * synthetic matrices are ~100x smaller, which deflates SU redundancy.
 */

#include <cmath>

#include "baseline/baselines.hh"
#include "bench_common.hh"
#include "runtime/cluster.hh"

using namespace netsparse;
using namespace netsparse::bench;

int
benchMain(int, char **)
{
    std::uint32_t nodes = benchNodes();
    double scale = benchScale(2.0);
    banner("Communication speedup over SUOpt", "Figure 12");
    std::printf("(%u nodes, matrix scale %.2f)\n\n", nodes, scale);

    const std::uint32_t ks[] = {1, 16, 128};
    constexpr std::size_t nk = std::size(ks);
    std::printf("%-8s", "matrix");
    for (std::uint32_t k : ks)
        std::printf("   SA(K=%-3u) NS(K=%-3u)", k, k);
    std::printf("\n");

    auto suite = benchmarkSuite(scale);
    std::vector<double> s_sa(suite.size() * nk), s_ns(suite.size() * nk);
    runSweep(s_sa.size(), [&](std::size_t i) {
        const auto &bm = suite[i / nk];
        std::uint32_t k = ks[i % nk];
        Partition1D part = Partition1D::equalRows(bm.matrix.rows, nodes);
        BaselineParams bp;
        BaselineResult su = runSuOpt(bm.matrix, part, k, bp);
        BaselineResult sa = runSaOpt(bm.matrix, part, k, bp);
        ClusterConfig cfg = defaultClusterConfig(nodes);
        GatherRunResult ns = ClusterSim(cfg).runGather(bm.matrix, part, k);
        s_sa[i] = static_cast<double>(su.commTicks) / sa.commTicks;
        s_ns[i] = static_cast<double>(su.commTicks) / ns.commTicks;
    });

    double gmean_sa[nk] = {1, 1, 1}, gmean_ns[nk] = {1, 1, 1};
    for (std::size_t m = 0; m < suite.size(); ++m) {
        std::printf("%-8s", suite[m].name.c_str());
        for (std::size_t ki = 0; ki < nk; ++ki) {
            std::printf("   %8.2fx %8.2fx", s_sa[m * nk + ki],
                        s_ns[m * nk + ki]);
            gmean_sa[ki] *= s_sa[m * nk + ki];
            gmean_ns[ki] *= s_ns[m * nk + ki];
        }
        std::printf("\n");
    }
    std::printf("%-8s", "gmean");
    for (std::size_t ki = 0; ki < nk; ++ki) {
        std::printf("   %8.2fx %8.2fx",
                    std::pow(gmean_sa[ki], 1.0 / suite.size()),
                    std::pow(gmean_ns[ki], 1.0 / suite.size()));
    }
    std::printf("\n");
    return 0;
}
