/**
 * @file
 * Figure 10: ideal SAOpt goodput (fraction of the 400 Gbps line) versus
 * the number of cores dedicated to communication, for two property
 * widths. Shape to reproduce: near-linear scaling with cores, yet far
 * from 100% even with 64 high-performance cores.
 */

#include "baseline/baselines.hh"
#include "bench_common.hh"

using namespace netsparse;
using namespace netsparse::bench;

int
benchMain(int, char **)
{
    banner("Ideal SAOpt goodput vs cores per node", "Figure 10");
    BaselineParams p;

    std::printf("%-8s", "cores");
    for (std::uint32_t c = 1; c <= 64; c *= 2)
        std::printf("%9u", c);
    std::printf("\n");
    for (std::uint32_t k : {32u, 128u}) {
        std::printf("K=%-6u", k);
        for (std::uint32_t c = 1; c <= 64; c *= 2)
            std::printf("%8.2f%%", 100.0 * saOptIdealGoodput(c, k, p));
        std::printf("\n");
    }
    std::printf("\n(per-PR software overhead calibrated to %.0f ns)\n",
                ticks::toNs(p.softwareOverheadPerPr));
    return 0;
}
