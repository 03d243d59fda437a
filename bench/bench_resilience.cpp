/**
 * @file
 * Resilience sweep: goodput and communication-time degradation as the
 * per-packet drop rate rises, with the reliable-PR layer recovering
 * every loss (see docs/resilience.md).
 *
 * Shape to expect: goodput and comm time are flat up to ~1e-4 (the
 * retransmit tail hides inside the gather), then degrade smoothly as
 * retransmits start to serialize behind the timeout; permanent failures
 * stay at zero across the sweep - the layer never gives up on a
 * recoverable network.
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
    banner("Goodput vs packet-drop rate under reliable PRs",
           "the resilience extension (docs/resilience.md)");
    std::printf("(%u nodes, arabic analogue at scale %.2f, K=%u, "
                "corrupt rate = drop/10)\n\n",
                nodes, scale, k);

    const double rates[] = {0.0, 1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2};
    constexpr std::size_t nr = std::size(rates);
    Csr m = makeBenchmarkMatrix(MatrixKind::Arabic, scale);
    Partition1D part = Partition1D::equalRows(m.rows, nodes);

    std::vector<GatherRunResult> results(nr);
    runSweep(nr, [&](std::size_t i) {
        ClusterConfig cfg = defaultClusterConfig(nodes);
        cfg.faults.dropRate = rates[i];
        cfg.faults.corruptRate = rates[i] / 10.0;
        cfg.faults.seed = 11;
        results[i] = ClusterSim(cfg).runGather(m, part, k);
    });

    std::printf("%-10s%12s%10s%10s%12s%8s%8s%8s\n", "droprate",
                "comm(us)", "slowdown", "goodput", "drops", "rexmit",
                "nacks", "fail");
    for (std::size_t i = 0; i < nr; ++i) {
        const GatherRunResult &r = results[i];
        auto sum = [&r](auto field) { return r.sumNodes(field); };
        std::printf(
            "%-10.0e%12.2f%9.2fx%9.1f%%%12llu%8llu%8llu%8llu\n",
            rates[i], ticks::toNs(r.commTicks) / 1e3,
            static_cast<double>(r.commTicks) / results[0].commTicks,
            100.0 * r.tailGoodput,
            (unsigned long long)r.packetsDropped,
            (unsigned long long)sum([](const NodeRunStats &n) {
                return n.retransmits;
            }),
            (unsigned long long)sum(
                [](const NodeRunStats &n) { return n.nacks; }),
            (unsigned long long)sum([](const NodeRunStats &n) {
                return n.permanentFailures;
            }));
    }
    std::printf("\n(goodput = tail node's useful payload fraction of "
                "line rate;\n retransmit timeouts and budgets per "
                "docs/resilience.md)\n");
    return 0;
}
