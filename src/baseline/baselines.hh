/**
 * @file
 * Software-only communication baselines (Section 8.1).
 *
 * SUOpt: the ideal sparsity-unaware limit. Every node receives every
 * non-local property at 100% line rate with zero header or software
 * overhead and perfect overlap. Communication time is simply the tail
 * node's byte volume divided by the line rate.
 *
 * SAOpt: an idealized sparsity-aware implementation built on the
 * Conveyors framework. Each of the node's cores runs a Conveyors rank
 * over a contiguous block of the node's rows; redundant PRs are
 * pre-filtered perfectly *within each rank* (cross-rank filtering is
 * impossible because ranks are independent endpoints, which is why
 * NetSparse still wins on PR count - Table 7, last column). Ranks
 * aggregate PRs per destination into MTU-sized messages, so header
 * overhead is amortized as in NetSparse's NIC-level concatenation.
 * Communication time per node is the maximum of:
 *   - software time: PRs handled * per-PR overhead / cores, and
 *   - wire time: bytes (with headers) / line rate,
 * with zero network latency - every assumption favoring the baseline.
 *
 * The per-PR software overhead is the calibration constant the paper
 * measures on a Delta node (Figure 10); saOptIdealGoodput() reproduces
 * that experiment's shape.
 */

#ifndef NETSPARSE_BASELINE_BASELINES_HH
#define NETSPARSE_BASELINE_BASELINES_HH

#include <cstdint>
#include <vector>

#include "net/protocol.hh"
#include "sim/types.hh"
#include "sparse/csr.hh"
#include "sparse/partition.hh"

namespace netsparse {

/** Shared parameters of the software baselines. */
struct BaselineParams
{
    Bandwidth lineRate = Bandwidth::fromGbps(400.0);
    /** Cores per node available for communication (Section 8.1: 64). */
    std::uint32_t coresPerNode = 64;
    /** Conveyors ranks per node (one per core). */
    std::uint32_t ranksPerNode = 64;
    /**
     * Calibrated per-PR software cost (generation, book-keeping,
     * synchronization, buffering) for the Conveyors-based SAOpt.
     */
    Tick softwareOverheadPerPr = 1310 * ticks::ns;
    /** Conveyors aggregation buffer (message) size. */
    std::uint32_t messageBytes = 1500;
};

/** Result of an analytic baseline evaluation. */
struct BaselineResult
{
    /** Cluster communication time (tail node). */
    Tick commTicks = 0;
    NodeId tailNode = 0;
    /** Per-node communication time. */
    std::vector<Tick> perNodeTicks;
    /** Per-node received wire bytes. */
    std::vector<std::uint64_t> perNodeRxBytes;
    /** Per-node PRs handled (0 for SUOpt). */
    std::vector<std::uint64_t> perNodePrs;
    /** Total wire traffic, headers included. */
    std::uint64_t totalWireBytes = 0;
    /** Total useful payload moved. */
    std::uint64_t totalPayloadBytes = 0;

    /** Tail-node goodput as a fraction of the line rate. */
    double tailGoodput = 0.0;
    /** Tail-node line utilization. */
    double tailLineUtil = 0.0;
};

/** Evaluate the SUOpt limit for property width @p k (elements). */
BaselineResult runSuOpt(const Csr &m, const Partition1D &part,
                        std::uint32_t k, const BaselineParams &p);

/** Evaluate the Conveyors-based SAOpt model. */
BaselineResult runSaOpt(const Csr &m, const Partition1D &part,
                        std::uint32_t k, const BaselineParams &p);

/**
 * Figure 10: ideal SAOpt goodput (fraction of line rate) as a function
 * of participating cores, with perfectly balanced load and no network.
 */
double saOptIdealGoodput(std::uint32_t cores, std::uint32_t k,
                         const BaselineParams &p);

/** Parameters of the naive (non-Conveyors) SA measurement of Table 2. */
struct NaiveSaParams
{
    Bandwidth lineRate = Bandwidth::fromGbps(200.0); // Slingshot NIC
    /** Cost to scan one nonzero and decide local/remote. */
    Tick scanCostPerNnz = 5 * ticks::ns;
    /** Cost to issue one fine-grained RDMA read and handle completion. */
    Tick overheadPerPr = 2000 * ticks::ns;
    std::uint32_t headerBytes = 78;
};

/** One row of Table 2 for a 2-node run. */
struct NaiveSaResult
{
    double transferRateGbps = 0.0;
    double lineUtilization = 0.0;
    double goodput = 0.0;
};

/**
 * Table 2: model the naive SA transfer rate for a 2-node split of
 * @p m with property width @p k.
 */
NaiveSaResult runNaiveSa2Node(const Csr &m, std::uint32_t k,
                              const NaiveSaParams &p);

} // namespace netsparse

#endif // NETSPARSE_BASELINE_BASELINES_HH
