/**
 * @file
 * Table 4: average number of unique remote destination nodes among 64
 * consecutive PRs from a node, in a 128-node system.
 *
 * Paper values: arabic 2.51, europe 7.43, queen 1.00, stokes 1.85,
 * uk 5.61. Low values mean strong temporal remote destination locality,
 * which is what makes PR concatenation effective (Figure 17).
 */

#include "analysis/comm_pattern.hh"
#include "bench_common.hh"

using namespace netsparse;
using namespace netsparse::bench;

int
benchMain(int, char **)
{
    banner("Temporal remote destination locality", "Table 4");
    std::uint32_t nodes = benchNodes();
    double scale = benchScale();

    auto suite = benchmarkSuite(scale);
    std::vector<double> uniques(suite.size());
    runSweep(uniques.size(), [&](std::size_t i) {
        Partition1D part =
            Partition1D::equalRows(suite[i].matrix.rows, nodes);
        uniques[i] = avgUniqueDestinations(suite[i].matrix, part, 64);
    });

    std::printf("%-8s %26s\n", "matrix", "unique dests / 64 PRs");
    for (std::size_t m = 0; m < suite.size(); ++m)
        std::printf("%-8s %26.2f\n", suite[m].name.c_str(), uniques[m]);
    return 0;
}
