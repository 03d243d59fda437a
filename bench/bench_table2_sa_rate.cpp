/**
 * @file
 * Table 2: transfer rate, line utilization and goodput of a naive
 * (fine-grained RDMA, no aggregation) SA implementation on a 2-node
 * Slingshot-like setup with K=32.
 *
 * Paper values: rates 0.2-0.7 Gbps, line utilization 0.09-0.36%,
 * goodput 0.04-0.16% - i.e. orders of magnitude below the line rate,
 * which is the motivation for offloading PR generation to hardware.
 */

#include "baseline/baselines.hh"
#include "bench_common.hh"

using namespace netsparse;
using namespace netsparse::bench;

int
benchMain(int, char **)
{
    banner("Naive SA transfer rate on 2 nodes (K=32)", "Table 2");
    double scale = benchScale();
    NaiveSaParams p;

    auto suite = benchmarkSuite(scale);
    std::vector<NaiveSaResult> results(suite.size());
    // char, not bool: vector<bool> packs bits, which parallel sweep
    // points must not write to concurrently.
    std::vector<char> keep(suite.size(), 0);
    runSweep(results.size(), [&](std::size_t i) {
        if (suite[i].kind == MatrixKind::Stokes)
            return; // Table 2 reports arabic, europe, queen, uk
        results[i] = runNaiveSa2Node(suite[i].matrix, 32, p);
        keep[i] = 1;
    });

    std::printf("%-8s %14s %12s %10s\n", "matrix", "rate(Gbps)",
                "line util", "goodput");
    for (std::size_t m = 0; m < suite.size(); ++m) {
        if (!keep[m])
            continue;
        std::printf("%-8s %14.2f %11.2f%% %9.2f%%\n",
                    suite[m].name.c_str(), results[m].transferRateGbps,
                    100.0 * results[m].lineUtilization,
                    100.0 * results[m].goodput);
    }
    return 0;
}
