/**
 * @file
 * Figure 15: sensitivity of NetSparse to the RIG batch size (nonzeros
 * per RIG command), shown as speedup over a 16k batch.
 *
 * Shape to reproduce: an interior optimum - tiny batches expose the
 * host's command-issue overhead and under-fill the client units; huge
 * batches serialize each node's stream onto too few units (intra-node
 * load imbalance). The best point is input-dependent.
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
    banner("Sensitivity to RIG batch size (speedup over 16k batches)",
           "Figure 15");
    std::printf("(%u nodes, matrix scale %.2f, K=%u)\n\n", nodes, scale,
                k);

    const std::uint32_t batches[] = {1024, 4096, 16384, 65536, 262144};
    constexpr std::size_t nb = std::size(batches);
    std::printf("%-8s", "matrix");
    for (auto b : batches)
        std::printf("%9uk", b / 1024);
    std::printf("\n");

    auto suite = benchmarkSuite(scale);
    std::vector<Tick> times(suite.size() * nb);
    runSweep(times.size(), [&](std::size_t i) {
        const auto &bm = suite[i / nb];
        Partition1D part = Partition1D::equalRows(bm.matrix.rows, nodes);
        ClusterConfig cfg = defaultClusterConfig(nodes);
        cfg.host.batchSize = batches[i % nb];
        times[i] = ClusterSim(cfg).runGather(bm.matrix, part, k).commTicks;
    });

    for (std::size_t m = 0; m < suite.size(); ++m) {
        Tick base = times[m * nb + 2]; // the 16k column
        std::printf("%-8s", suite[m].name.c_str());
        for (std::size_t b = 0; b < nb; ++b)
            std::printf("%9.2fx",
                        static_cast<double>(base) / times[m * nb + b]);
        std::printf("\n");
    }
    return 0;
}
