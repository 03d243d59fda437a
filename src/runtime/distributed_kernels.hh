/**
 * @file
 * Distributed sparse kernel executors.
 *
 * These combine the three layers of the repository into the "user
 * facing" operation the paper accelerates:
 *
 *  - functionally execute SpMM / SpMV / SDDMM with the operands 1-D
 *    partitioned across the cluster (results are bit-identical to the
 *    single-node reference kernels - writes are always local, reads of
 *    remote input properties are the gathers);
 *  - simulate the communication phase through the full NetSparse
 *    hardware stack (ClusterSim), once, since every iteration gathers
 *    the same idxs: each iteration yields both the numeric output and
 *    the cluster timing;
 *  - support multi-iteration kernels (Section 2.1): the output property
 *    array of one iteration becomes the input of the next, the Idx
 *    Filters are cleared and the Property Caches are re-configured by
 *    the control plane between iterations.
 */

#ifndef NETSPARSE_RUNTIME_DISTRIBUTED_KERNELS_HH
#define NETSPARSE_RUNTIME_DISTRIBUTED_KERNELS_HH

#include <cstdint>
#include <vector>

#include "runtime/cluster.hh"
#include "sparse/csr.hh"
#include "sparse/partition.hh"

namespace netsparse {

/** Result of a (multi-iteration) distributed kernel execution. */
struct DistributedKernelResult
{
    /** The final output property array (rows x K, row-major). */
    std::vector<float> output;
    /** Communication results, one per executed iteration. */
    std::vector<GatherRunResult> iterations;
};

/**
 * Distributed SpMM executor: Y = A * X per iteration, with Y feeding
 * the next iteration's X.
 */
class DistributedSpmm
{
  public:
    /**
     * @param cfg cluster to simulate (numNodes must match @p part).
     * @param a the square sparse matrix (shared, must outlive this).
     * @param part 1-D partition of rows/properties over the nodes.
     * @param k property width in 4-byte elements.
     * @param simulate when false, skip the hardware simulation and only
     *        execute functionally (iterations[] stays empty).
     */
    DistributedSpmm(ClusterConfig cfg, const Csr &a,
                    const Partition1D &part, std::uint32_t k,
                    bool simulate = true);

    /** Run @p iterations iterations starting from @p x0 (cols x K). */
    DistributedKernelResult run(const std::vector<float> &x0,
                                std::uint32_t iterations = 1);

  private:
    ClusterConfig cfg_;
    const Csr &a_;
    const Partition1D &part_;
    std::uint32_t k_;
    bool simulate_;
};

/** One-iteration distributed SpMV (K = 1). */
DistributedKernelResult
distributedSpmv(ClusterConfig cfg, const Csr &a, const Partition1D &part,
                const std::vector<float> &x, bool simulate = true);

/**
 * Distributed SDDMM: out[i] = a.val[i] * dot(U[row(i)], V[col(i)]).
 * U is partitioned by rows (always local); V by columns (gathered).
 * @return per-nonzero values plus the gather's communication result.
 */
struct DistributedSddmmResult
{
    std::vector<float> values;
    std::vector<GatherRunResult> iterations;
};

DistributedSddmmResult
distributedSddmm(ClusterConfig cfg, const Csr &a, const Partition1D &part,
                 const std::vector<float> &u, const std::vector<float> &v,
                 std::uint32_t k, bool simulate = true);

} // namespace netsparse

#endif // NETSPARSE_RUNTIME_DISTRIBUTED_KERNELS_HH
