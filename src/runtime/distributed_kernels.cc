#include "runtime/distributed_kernels.hh"

#include "sim/logging.hh"

namespace netsparse {

namespace {

/**
 * Functionally execute one distributed SpMM iteration: every node
 * computes its own output rows from its matrix block and the (locally
 * held or gathered) input properties. Because writes are local and the
 * gather is exact, the result equals the single-node reference.
 */
std::vector<float>
spmmIteration(const Csr &a, const Partition1D &part,
              const std::vector<float> &x, std::uint32_t k)
{
    std::vector<float> y(static_cast<std::size_t>(a.rows) * k, 0.0f);
    for (NodeId node = 0; node < part.numParts(); ++node) {
        for (std::uint32_t r = part.begin(node); r < part.end(node);
             ++r) {
            float *yr = y.data() + static_cast<std::size_t>(r) * k;
            for (std::uint64_t i = a.rowPtr[r]; i < a.rowPtr[r + 1];
                 ++i) {
                const float *xc =
                    x.data() + static_cast<std::size_t>(a.colIdx[i]) * k;
                float v = a.valueAt(i);
                for (std::uint32_t j = 0; j < k; ++j)
                    yr[j] += v * xc[j];
            }
        }
    }
    return y;
}

} // namespace

DistributedSpmm::DistributedSpmm(ClusterConfig cfg, const Csr &a,
                                 const Partition1D &part, std::uint32_t k,
                                 bool simulate)
    : cfg_(std::move(cfg)), a_(a), part_(part), k_(k), simulate_(simulate)
{
    ns_assert(a_.rows == a_.cols,
              "multi-iteration SpMM needs a square matrix");
    ns_assert(part_.numParts() == cfg_.numNodes,
              "partition does not match the cluster size");
    ns_assert(k_ >= 1 && k_ <= 128, "K must be in [1, 128]");
}

DistributedKernelResult
DistributedSpmm::run(const std::vector<float> &x0,
                     std::uint32_t iterations)
{
    ns_assert(x0.size() == static_cast<std::size_t>(a_.cols) * k_,
              "x0 must be cols x K");
    ns_assert(iterations >= 1, "need at least one iteration");

    DistributedKernelResult result;
    if (simulate_) {
        // Each iteration re-runs the control-plane setup (fresh Idx
        // Filters and invalidated Property Caches) and gathers the same
        // idxs, and the simulator is deterministic: one simulated
        // gather is every iteration's.
        result.iterations.assign(iterations,
                                 ClusterSim(cfg_).runGather(a_, part_, k_));
    }
    std::vector<float> x = x0;
    for (std::uint32_t it = 0; it < iterations; ++it)
        x = spmmIteration(a_, part_, x, k_);
    result.output = std::move(x);
    return result;
}

DistributedKernelResult
distributedSpmv(ClusterConfig cfg, const Csr &a, const Partition1D &part,
                const std::vector<float> &x, bool simulate)
{
    DistributedSpmm spmm(std::move(cfg), a, part, 1, simulate);
    return spmm.run(x, 1);
}

DistributedSddmmResult
distributedSddmm(ClusterConfig cfg, const Csr &a, const Partition1D &part,
                 const std::vector<float> &u, const std::vector<float> &v,
                 std::uint32_t k, bool simulate)
{
    ns_assert(u.size() == static_cast<std::size_t>(a.rows) * k,
              "U must be rows x K");
    ns_assert(v.size() == static_cast<std::size_t>(a.cols) * k,
              "V must be cols x K");
    ns_assert(part.numParts() == cfg.numNodes,
              "partition does not match the cluster size");

    DistributedSddmmResult result;
    if (simulate) {
        // The communication pattern of SDDMM matches the gather: each
        // nonzero reads the V row of its column index.
        ClusterSim sim(cfg);
        result.iterations.push_back(sim.runGather(a, part, k));
    }

    result.values.assign(a.nnz(), 0.0f);
    for (NodeId node = 0; node < part.numParts(); ++node) {
        for (std::uint32_t r = part.begin(node); r < part.end(node);
             ++r) {
            const float *ur = u.data() + static_cast<std::size_t>(r) * k;
            for (std::uint64_t i = a.rowPtr[r]; i < a.rowPtr[r + 1];
                 ++i) {
                const float *vc =
                    v.data() + static_cast<std::size_t>(a.colIdx[i]) * k;
                float dot = 0.0f;
                for (std::uint32_t j = 0; j < k; ++j)
                    dot += ur[j] * vc[j];
                result.values[i] = a.valueAt(i) * dot;
            }
        }
    }
    return result;
}

} // namespace netsparse
