/**
 * @file
 * Figure 20 and Table 9: area/power of the NetSparse hardware
 * extensions at 10 nm, from the anchored analytic model.
 *
 * Paper reference points: SNIC extensions ~1.43 mm^2 / 2.1 W peak /
 * ~3.5 MB SRAM (L2s dominate area and static power, RIG units dominate
 * dynamic power); RIG-unit area is 53% Pending PR Table; switch caches
 * ~21.3 mm^2 and concatenators ~1.5 mm^2 at ~10 W combined.
 */

#include <cstdio>

#include "bench_common.hh"
#include "hwcost/hw_model.hh"

using namespace netsparse;
using namespace netsparse::bench;

namespace {

void
printReport(const char *title, const HwReport &r)
{
    std::printf("\n%s\n", title);
    std::printf("  %-18s %10s %10s %10s %10s\n", "component", "area mm2",
                "static W", "dynamic W", "SRAM KB");
    for (const auto &c : r.components) {
        std::printf("  %-18s %10.3f %10.3f %10.3f %10.1f\n",
                    c.name.c_str(), c.areaMm2, c.staticPowerW,
                    c.dynamicPowerW, c.sramBytes / 1024.0);
    }
    std::printf("  %-18s %10.3f %10.3f %10.3f %10.1f\n", "TOTAL",
                r.totalAreaMm2(), r.totalStaticW(), r.totalDynamicW(),
                r.totalSramBytes() / 1024.0);
}

} // namespace

int
benchMain(int, char **)
{
    banner("Hardware overheads of the NetSparse extensions",
           "Figure 20 and Table 9");

    printReport("SNIC extensions (Figure 20):", snicOverheads());
    printReport("Switch extensions (Section 9.5):", switchOverheads());

    std::printf("\nRIG unit area breakdown (Table 9):\n");
    for (const auto &[name, frac] : rigUnitAreaBreakdown())
        std::printf("  %-18s %5.1f%%\n", name.c_str(), 100.0 * frac);

    std::printf("\nTechnology scaling factors (45 nm -> 10 nm): "
                "area x%.3f, power x%.3f\n",
                TechScaling::areaFactor(45, 10),
                TechScaling::powerFactor(45, 10));
    return 0;
}
