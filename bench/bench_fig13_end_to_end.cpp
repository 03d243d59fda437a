/**
 * @file
 * Figure 13: end-to-end strong scaling of distributed SpMM with
 * per-node SPADE accelerators, comparing SUOpt / SAOpt / NetSparse
 * communication against the ideal no-communication limit.
 *
 * Shape to reproduce: with accelerated compute, SUOpt barely scales (or
 * regresses), SAOpt scales a little, NetSparse gets a large fraction of
 * the ideal speedup.
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
    double scale = benchScale(2.0);
    const std::uint32_t k = 16;
    banner("End-to-end SpMM speedup over one node (SPADE accelerators)",
           "Figure 13");
    std::printf("(matrix scale %.2f, K=%u, overlap alpha 0.5)\n\n", scale,
                k);

    EndToEndConfig e2e{spadeAccelerator(), 0.5};
    const std::uint32_t node_counts[] = {8, 32, 128};
    constexpr std::size_t nn = std::size(node_counts);

    struct Row
    {
        double su = 0, sa = 0, ns = 0, ideal = 0;
    };
    auto suite = benchmarkSuite(scale);
    std::vector<Row> rows(suite.size() * nn);
    runSweep(rows.size(), [&](std::size_t i) {
        const auto &bm = suite[i / nn];
        std::uint32_t nodes = node_counts[i % nn];
        Tick t1 = singleNodeTime(bm.matrix, k, e2e.device);
        Partition1D part = Partition1D::equalRows(bm.matrix.rows, nodes);

        BaselineParams bp;
        BaselineResult su = runSuOpt(bm.matrix, part, k, bp);
        BaselineResult sa = runSaOpt(bm.matrix, part, k, bp);
        ClusterConfig cfg = defaultClusterConfig(nodes);
        GatherRunResult ns = ClusterSim(cfg).runGather(bm.matrix, part, k);
        std::vector<Tick> ns_comm(nodes);
        for (NodeId n = 0; n < nodes; ++n)
            ns_comm[n] = ns.nodes[n].finishTick;

        auto speedup = [&](const std::vector<Tick> &comm) {
            EndToEndResult r =
                composeEndToEnd(bm.matrix, part, k, comm, e2e);
            return static_cast<double>(t1) / r.totalTicks;
        };
        EndToEndResult ideal_r = composeEndToEnd(
            bm.matrix, part, k, std::vector<Tick>(nodes, 0), e2e);
        rows[i] = Row{speedup(su.perNodeTicks), speedup(sa.perNodeTicks),
                      speedup(ns_comm),
                      static_cast<double>(t1) / ideal_r.idealTicks};
    });

    std::printf("%-8s %6s %9s %9s %9s %9s\n", "matrix", "nodes",
                "SUOpt", "SAOpt", "NetSparse", "ideal");
    for (std::size_t m = 0; m < suite.size(); ++m) {
        for (std::size_t ni = 0; ni < nn; ++ni) {
            const Row &r = rows[m * nn + ni];
            std::printf("%-8s %6u %8.1fx %8.1fx %8.1fx %8.1fx\n",
                        suite[m].name.c_str(), node_counts[ni], r.su,
                        r.sa, r.ns, r.ideal);
        }
    }
    return 0;
}
