/**
 * @file
 * Section 3 motivation: the fraction of useful off-rack PRs whose
 * property is useful to more than one node of the same 16-node rack
 * (the paper reports 85% on average), i.e. the sharing potential the
 * in-switch Property Cache exploits.
 */

#include "analysis/comm_pattern.hh"
#include "bench_common.hh"

using namespace netsparse;
using namespace netsparse::bench;

int
benchMain(int, char **)
{
    banner("Intra-rack property sharing potential", "Section 3, bullet 6");
    std::uint32_t nodes = benchNodes();
    std::uint32_t rack = 16;
    double scale = benchScale();

    auto suite = benchmarkSuite(scale);
    std::vector<double> fracs(suite.size());
    runSweep(fracs.size(), [&](std::size_t i) {
        Partition1D part =
            Partition1D::equalRows(suite[i].matrix.rows, nodes);
        fracs[i] = rackSharingFraction(suite[i].matrix, part, rack);
    });

    double sum = 0;
    std::printf("%-8s %22s\n", "matrix", "shared PR fraction");
    for (std::size_t m = 0; m < suite.size(); ++m) {
        std::printf("%-8s %21.1f%%\n", suite[m].name.c_str(),
                    100.0 * fracs[m]);
        sum += fracs[m];
    }
    std::printf("%-8s %21.1f%%   (paper: 85%% average)\n", "mean",
                100.0 * sum / suite.size());
    return 0;
}
