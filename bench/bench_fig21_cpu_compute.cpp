/**
 * @file
 * Figure 21: end-to-end SpMM scaling when CPUs (Sapphire-Rapids-like,
 * DDR or HBM) replace the SPADE accelerators, at K=128.
 *
 * Shape to reproduce: all communication schemes look better against
 * slower compute (DDR), and worse against faster compute (HBM); the
 * ordering NetSparse > SAOpt > SUOpt holds everywhere, and NetSparse
 * approaches the ideal line.
 */

#include <array>

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
    const std::uint32_t k = 128;
    banner("End-to-end SpMM speedup with CPU compute (K=128)",
           "Figure 21");
    std::printf("(%u nodes, matrix scale %.2f)\n\n", nodes, scale);

    struct DevRow
    {
        std::string device;
        double su = 0, sa = 0, ns = 0, ideal = 0;
    };
    auto suite = benchmarkSuite(scale);
    std::vector<std::array<DevRow, 2>> rows(suite.size());
    runSweep(rows.size(), [&](std::size_t i) {
        const auto &bm = suite[i];
        Partition1D part = Partition1D::equalRows(bm.matrix.rows, nodes);

        BaselineParams bp;
        BaselineResult su = runSuOpt(bm.matrix, part, k, bp);
        BaselineResult sa = runSaOpt(bm.matrix, part, k, bp);
        ClusterConfig cfg = defaultClusterConfig(nodes);
        GatherRunResult ns = ClusterSim(cfg).runGather(bm.matrix, part, k);
        std::vector<Tick> ns_comm(nodes);
        for (NodeId n = 0; n < nodes; ++n)
            ns_comm[n] = ns.nodes[n].finishTick;

        std::size_t d = 0;
        for (const ComputeDevice &dev : {cpuDdr(), cpuHbm()}) {
            EndToEndConfig e2e{dev, 0.5};
            Tick t1 = singleNodeTime(bm.matrix, k, dev);
            auto speedup = [&](const std::vector<Tick> &comm) {
                EndToEndResult r =
                    composeEndToEnd(bm.matrix, part, k, comm, e2e);
                return static_cast<double>(t1) / r.totalTicks;
            };
            EndToEndResult ideal_r = composeEndToEnd(
                bm.matrix, part, k, std::vector<Tick>(nodes, 0), e2e);
            rows[i][d++] =
                DevRow{dev.name, speedup(su.perNodeTicks),
                       speedup(sa.perNodeTicks), speedup(ns_comm),
                       static_cast<double>(t1) / ideal_r.idealTicks};
        }
    });

    std::printf("%-8s %-8s %9s %9s %9s %9s\n", "matrix", "device",
                "SUOpt", "SAOpt", "NetSparse", "ideal");
    for (std::size_t m = 0; m < suite.size(); ++m) {
        for (const DevRow &r : rows[m]) {
            std::printf("%-8s %-8s %8.1fx %8.1fx %8.1fx %8.1fx\n",
                        suite[m].name.c_str(), r.device.c_str(), r.su,
                        r.sa, r.ns, r.ideal);
        }
    }
    return 0;
}
