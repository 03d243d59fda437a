/**
 * @file
 * Figure 18: speedup versus a cache-less NetSparse switch as the
 * Property Cache capacity grows from 0 to effectively infinite.
 *
 * Shape to reproduce: matrices with rack-level sharing (arabic, uk,
 * queen) gain from caching; stokes gains nothing at any size (its far
 * coupling partner is unique per node); the 32 MB design point captures
 * most of the available benefit.
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
    banner("Sensitivity to Property Cache size (speedup vs no cache)",
           "Figure 18");
    std::printf("(%u nodes, matrix scale %.2f, K=%u)\n\n", nodes, scale,
                k);

    // "inf" = 256 MB, far above any matrix's unique off-rack working
    // set, so nothing ever evicts (a 4 GB array would only add way
    // metadata, not hits). The sub-MB sizes expose the capacity knee,
    // which sits lower than the paper's because the matrices are
    // smaller.
    const std::uint64_t sizes[] = {0,           64ull << 10,
                                   256ull << 10, 2ull << 20,
                                   32ull << 20, 256ull << 20};
    const char *labels[] = {"none", "64KB", "256KB", "2MB", "32MB",
                            "inf"};
    constexpr std::size_t ns = std::size(sizes);
    std::printf("%-8s", "matrix");
    for (auto *l : labels)
        std::printf("%9s", l);
    std::printf("%9s\n", "hit@32M");

    auto suite = benchmarkSuite(scale);
    std::vector<Tick> times(suite.size() * ns);
    std::vector<double> hits(suite.size() * ns);
    runSweep(times.size(), [&](std::size_t i) {
        const auto &bm = suite[i / ns];
        Partition1D part = Partition1D::equalRows(bm.matrix.rows, nodes);
        ClusterConfig cfg = defaultClusterConfig(nodes);
        cfg.propertyCacheBytes = sizes[i % ns];
        if (cfg.propertyCacheBytes == 0)
            cfg.features.switchCache = false;
        GatherRunResult r = ClusterSim(cfg).runGather(bm.matrix, part, k);
        times[i] = r.commTicks;
        hits[i] = r.cacheHitRate();
    });

    for (std::size_t m = 0; m < suite.size(); ++m) {
        std::printf("%-8s", suite[m].name.c_str());
        for (std::size_t s = 0; s < ns; ++s)
            std::printf("%8.2fx", static_cast<double>(times[m * ns]) /
                                      times[m * ns + s]);
        std::printf("%8.0f%%\n", 100.0 * hits[m * ns + 4]); // 32MB column
    }
    return 0;
}
