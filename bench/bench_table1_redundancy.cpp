/**
 * @file
 * Table 1: ratio of useful to redundant property transfers for the SU
 * and SA approaches in a 128-node system, per benchmark matrix.
 *
 * Paper values for reference (1 : redundant-per-useful):
 *   matrix  arabic  europe  queen  stokes  uk
 *   SU      1:1947  1:582   1:74   1:32    1:966
 *   SA      1:27    1:0.02  1:25   1:3.6   1:4.5
 *
 * The synthetic matrices are ~100x smaller than the SuiteSparse
 * originals, and SU redundancy scales with total matrix size, so the
 * absolute SU ratios here are proportionally smaller; the orderings and
 * the SU >> SA gap are the reproduced shape.
 */

#include "analysis/comm_pattern.hh"
#include "bench_common.hh"

using namespace netsparse;
using namespace netsparse::bench;

int
benchMain(int, char **)
{
    banner("Useful vs redundant property transfers (SU and SA)",
           "Table 1");
    std::uint32_t nodes = benchNodes();
    double scale = benchScale();

    auto suite = benchmarkSuite(scale);
    std::vector<CommPattern> patterns(suite.size());
    runSweep(patterns.size(), [&](std::size_t i) {
        Partition1D part =
            Partition1D::equalRows(suite[i].matrix.rows, nodes);
        patterns[i] = analyzeCommPattern(suite[i].matrix, part);
    });

    std::printf("%-8s %12s %12s %10s %14s %14s\n", "matrix", "nnz",
                "remote-nnz", "useful", "SU(1:x)", "SA(1:x)");
    for (std::size_t m = 0; m < suite.size(); ++m) {
        const CommPattern &cp = patterns[m];
        std::printf("%-8s %12zu %12llu %10llu %14.1f %14.2f\n",
                    suite[m].name.c_str(), suite[m].matrix.nnz(),
                    (unsigned long long)cp.totalRemoteNnz,
                    (unsigned long long)cp.totalUseful,
                    cp.suRedundancyRatio(), cp.saRedundancyRatio());
    }
    return 0;
}
