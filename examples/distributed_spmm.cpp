/**
 * @file
 * Distributed SpMM, end to end: functionally executes Y = A * X across a
 * 1-D-partitioned cluster (verifying bit-exact results against a
 * single-node run) and reports the simulated end-to-end speedup with
 * per-node SPADE accelerators and NetSparse communication - the
 * experiment behind the paper's Figure 13.
 */

#include <cstdio>
#include <vector>

#include "baseline/baselines.hh"
#include "runtime/cluster.hh"
#include "runtime/distributed_kernels.hh"
#include "runtime/end_to_end.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sparse/generators.hh"
#include "sparse/kernels.hh"

using namespace netsparse;

namespace {

/** Deterministic pseudo-random dense operand. */
std::vector<float>
makeProperties(std::uint32_t count, std::uint32_t k)
{
    std::vector<float> x(static_cast<std::size_t>(count) * k);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(splitmix64(i) % 1000) / 1000.0f;
    return x;
}

} // namespace

int
main()
try {
    const std::uint32_t k = 16;
    const std::uint32_t nodes = 32;

    Csr a = makeBenchmarkMatrix(MatrixKind::Queen, 0.25);
    Partition1D part = Partition1D::equalRows(a.rows, nodes);
    std::vector<float> x = makeProperties(a.cols, k);

    std::printf("SpMM: %u x %u, %zu nnz, K=%u, %u nodes\n", a.rows, a.cols,
                a.nnz(), k, nodes);

    // --- Functional distributed execution ---
    // Each node computes its own Y rows from the X rows its nonzeros
    // reference, and the gather that fetches those rows runs through
    // the simulated cluster (iterations[0]).
    DistributedKernelResult dist =
        DistributedSpmm(defaultClusterConfig(nodes), a, part, k).run(x);
    std::vector<float> y_ref = spmm(a, x, k);
    for (std::size_t i = 0; i < y_ref.size(); ++i) {
        if (y_ref[i] != dist.output[i]) {
            std::fprintf(stderr, "MISMATCH at %zu\n", i);
            return 1;
        }
    }
    std::printf("functional check: distributed result matches "
                "single-node SpMM\n\n");

    // --- Simulated end-to-end timing ---
    const GatherRunResult &comm = dist.iterations[0];
    std::vector<Tick> per_node_comm(nodes);
    for (NodeId i = 0; i < nodes; ++i)
        per_node_comm[i] = comm.nodes[i].finishTick;

    EndToEndConfig e2e{spadeAccelerator(), 0.5};
    EndToEndResult r = composeEndToEnd(a, part, k, per_node_comm, e2e);
    Tick t1 = singleNodeTime(a, k, e2e.device);

    std::printf("single-node time        : %9.1f us\n",
                ticks::toNs(t1) / 1e3);
    std::printf("%u-node NetSparse time : %9.1f us  (speedup %.1fx)\n",
                nodes, ticks::toNs(r.totalTicks) / 1e3,
                double(t1) / r.totalTicks);
    std::printf("  tail comm/comp        : %.1f / %.1f us\n",
                ticks::toNs(r.tailCommTicks) / 1e3,
                ticks::toNs(r.tailCompTicks) / 1e3);
    std::printf("ideal (no-comm) speedup : %.1fx\n",
                double(t1) / r.idealTicks);

    // For contrast: the SUOpt software baseline on the same workload.
    BaselineParams bp;
    BaselineResult su = runSuOpt(a, part, k, bp);
    EndToEndResult rsu =
        composeEndToEnd(a, part, k, su.perNodeTicks, e2e);
    std::printf("SUOpt software speedup  : %.1fx\n",
                double(t1) / rsu.totalTicks);
    return 0;
} catch (const FatalError &) {
    return 1; // fatal() has printed the message
}
