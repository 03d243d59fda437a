/**
 * @file
 * Table 7: tail-node performance statistics for NetSparse at K=16, plus
 * the comparison columns against SUOpt (traffic) and SAOpt (goodput and
 * PR count).
 *
 * Paper shapes: high F+C rates for the reuse-heavy matrices (arabic,
 * queen, stokes) and a low one for europe; many PRs per packet; cache
 * hit rates highest for arabic/queen/uk and lowest for europe/stokes;
 * NetSparse goodput far above SAOpt's; fewer PRs than SAOpt thanks to
 * node-wide (rather than per-rank) filtering.
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
    double scale = benchScale(2.0);
    const std::uint32_t k = 16;
    banner("Tail-node statistics for NetSparse (K=16)", "Table 7");
    std::printf("(%u nodes, matrix scale %.2f)\n\n", nodes, scale);

    struct Row
    {
        double fcRate = 0, prPerPkt = 0, cacheHit = 0, goodput = 0;
        double lineUtil = 0, trfcVsSu = 0, saGoodput = 0, prVsSa = 0;
        /** Node finish-time tail percentiles in us, from the same
         *  histogram the stats JSON exports (cluster.finishTimeNs). */
        double finishP99Us = 0, finishP999Us = 0;
    };
    auto suite = benchmarkSuite(scale);
    std::vector<Row> rows(suite.size());
    runSweep(rows.size(), [&](std::size_t i) {
        const auto &bm = suite[i];
        Partition1D part = Partition1D::equalRows(bm.matrix.rows, nodes);

        ClusterConfig cfg = defaultClusterConfig(nodes);
        GatherRunResult r = ClusterSim(cfg).runGather(bm.matrix, part, k);
        const NodeRunStats &tail = r.tail();

        BaselineParams bp;
        BaselineResult sa = runSaOpt(bm.matrix, part, k, bp);

        double tail_pr_per_pkt =
            tail.rxPackets ? static_cast<double>(tail.rxResponses +
                                                 tail.rxReads) /
                                 tail.rxPackets
                           : 0.0;
        // SUOpt delivers every non-local property to the tail node.
        double su_bytes = static_cast<double>(bm.matrix.cols -
                                              part.size(r.tailNode)) *
                          4.0 * k;
        double trfc_vs_su =
            tail.rxBytes ? su_bytes / tail.rxBytes : 0.0;

        std::uint64_t ns_prs = 0, sa_prs = 0;
        for (NodeId n = 0; n < nodes; ++n) {
            ns_prs += r.nodes[n].prsIssued;
            sa_prs += sa.perNodePrs[n];
        }
        double pr_vs_sa =
            ns_prs ? static_cast<double>(sa_prs) / ns_prs : 0.0;

        Histogram finish = r.finishTimeHistogram();
        rows[i] = Row{tail.fcRate(),   tail_pr_per_pkt, r.cacheHitRate(),
                      r.tailGoodput,   r.tailLineUtil,  trfc_vs_su,
                      sa.tailGoodput,  pr_vs_sa,
                      finish.percentile(99.0) / 1e3,
                      finish.percentile(99.9) / 1e3};
    });

    std::printf("%-8s %6s %8s %7s %6s %6s %9s %8s %8s %8s %8s\n",
                "matrix", "F+C", "PR/pkt", "cache", "Gput", "LUtil",
                "-TrfcSU", "GputSA", "-#PRvSA", "p99FT", "p99.9FT");
    for (std::size_t m = 0; m < suite.size(); ++m) {
        const Row &r = rows[m];
        std::printf("%-8s %5.0f%% %8.1f %6.0f%% %5.0f%% %5.0f%% %8.1fx "
                    "%7.1f%% %7.2fx %6.1fus %6.1fus\n",
                    suite[m].name.c_str(), 100.0 * r.fcRate, r.prPerPkt,
                    100.0 * r.cacheHit, 100.0 * r.goodput,
                    100.0 * r.lineUtil, r.trfcVsSu, 100.0 * r.saGoodput,
                    r.prVsSa, r.finishP99Us, r.finishP999Us);
    }
    return 0;
}
