/**
 * @file
 * Figure 14: communication vs computation time on the tail node for
 * SAOpt and NetSparse (K=16, 128 nodes, SPADE compute).
 *
 * Shape to reproduce: SAOpt is dominated by communication on every
 * matrix; with NetSparse, communication becomes comparable to (or
 * cheaper than) accelerated computation for the reuse-heavy matrices,
 * while europe and stokes retain communication headroom.
 */

#include "baseline/baselines.hh"
#include "bench_common.hh"
#include "runtime/cluster.hh"
#include "runtime/end_to_end.hh"

using namespace netsparse;
using namespace netsparse::bench;

int
benchMain(int, char **)
{
    std::uint32_t nodes = benchNodes();
    double scale = benchScale(2.0);
    const std::uint32_t k = 16;
    banner("Tail-node communication / computation breakdown (K=16)",
           "Figure 14");
    std::printf("(%u nodes, matrix scale %.2f)\n\n", nodes, scale);

    ComputeDevice dev = spadeAccelerator();

    struct Row
    {
        Tick comp = 0;
        Tick saComm = 0;
        Tick nsComm = 0;
    };
    auto suite = benchmarkSuite(scale);
    std::vector<Row> rows(suite.size());
    runSweep(rows.size(), [&](std::size_t i) {
        const auto &bm = suite[i];
        Partition1D part = Partition1D::equalRows(bm.matrix.rows, nodes);

        // Tail compute time across nodes.
        Tick comp = 0;
        for (NodeId n = 0; n < nodes; ++n) {
            std::uint64_t nnz = bm.matrix.rowPtr[part.end(n)] -
                                bm.matrix.rowPtr[part.begin(n)];
            comp = std::max(comp, spmmTime(dev, nnz, part.size(n), k));
        }

        BaselineParams bp;
        BaselineResult sa = runSaOpt(bm.matrix, part, k, bp);
        ClusterConfig cfg = defaultClusterConfig(nodes);
        GatherRunResult ns = ClusterSim(cfg).runGather(bm.matrix, part, k);
        rows[i] = Row{comp, sa.commTicks, ns.commTicks};
    });

    std::printf("%-8s %12s %14s %14s %12s\n", "matrix", "comp(us)",
                "SAOpt comm", "NS comm", "NS comm/comp");
    for (std::size_t m = 0; m < suite.size(); ++m) {
        const Row &r = rows[m];
        std::printf("%-8s %12.1f %11.1f us %11.1f us %11.2f\n",
                    suite[m].name.c_str(), ticks::toNs(r.comp) / 1e3,
                    ticks::toNs(r.saComm) / 1e3,
                    ticks::toNs(r.nsComm) / 1e3,
                    static_cast<double>(r.nsComm) / r.comp);
    }
    return 0;
}
