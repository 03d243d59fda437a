/**
 * @file
 * Streaming generation of partitioned matrices at paper scale.
 *
 * The paper's matrices carry 108-640M nonzeros; materializing one as a
 * global COO (8 bytes/nnz) plus its CSR conversion (12 bytes/nnz) costs
 * ~13 GB at arabic-2005 size, which is what kept the repo's experiments
 * 100-200x under scale (EXPERIMENTS.md). Because every generator row is
 * an independent function of (params, row) - see sparse/generators.hh -
 * the matrix can instead be *streamed*: each row is emitted straight
 * into the per-node CSR partition that owns it, so peak memory is the
 * final partitioned form (~4 bytes/nnz for column indices plus row
 * pointers). No global COO or CSR is ever held.
 *
 * Determinism contract: buildPartitionedMatrix(params, nodes) builds
 * the nodes on parallel workers and yields byte-identical per-node
 * partitions at any worker count, and its concatenated rows equal
 * Csr::fromCoo(makeMatrix(params)) exactly (fromCoo's counting sort is
 * stable, so both paths carry each row's columns in emission order).
 * docs/scaling.md works through the memory model and the paper-scale
 * presets.
 */

#ifndef NETSPARSE_SPARSE_STREAM_GEN_HH
#define NETSPARSE_SPARSE_STREAM_GEN_HH

#include <cstdint>
#include <vector>

#include "sparse/generators.hh"
#include "sparse/partition.hh"

namespace netsparse {

/** One node's contiguous row slice, in CSR form. */
struct NodeCsr
{
    /** Global index of the first owned row. */
    std::uint32_t firstRow = 0;
    /** Local row pointers: rowPtr[i+1]-rowPtr[i] = degree of row i. */
    std::vector<std::uint64_t> rowPtr{0};
    /** Column indices, rows concatenated in emission order. */
    std::vector<std::uint32_t> colIdx;

    std::uint32_t
    numRows() const
    {
        return static_cast<std::uint32_t>(rowPtr.size()) - 1;
    }

    std::uint64_t nnz() const { return rowPtr.back(); }
};

/** A matrix held only as its per-node partitions. */
struct PartitionedMatrix
{
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    std::uint64_t nnz = 0;
    Partition1D part;
    std::vector<NodeCsr> nodes;

    /**
     * Surrender the per-node column streams (each node's row-scan
     * index stream, exactly what HostNode consumes), dropping the row
     * pointers. Leaves the struct empty of payload; avoids doubling
     * memory when handing a paper-scale build to runGather().
     */
    std::vector<std::vector<std::uint32_t>> takeStreams();
};

/**
 * Stream-generate a matrix directly into per-node CSR partitions, one
 * node at a time on each of min(hardware threads, @p numNodes) workers.
 *
 * @param params generator parameters (see benchmarkParams()).
 * @param numNodes parts of the equal-rows partition.
 */
PartitionedMatrix buildPartitionedMatrix(const GeneratorParams &params,
                                         std::uint32_t numNodes);

/** Streamed benchmarkParams(kind, scale) analogue. */
PartitionedMatrix buildPartitionedBenchmark(MatrixKind kind, double scale,
                                            std::uint32_t numNodes);

/**
 * Row-count scale at which a kind's analogue reaches the nonzero count
 * of its SuiteSparse original (Table 1: arabic-2005 640M, europe_osm
 * 108M, queen_4147 330M, stokes 349M, uk-2002 298M).
 */
double paperScale(MatrixKind kind);

/**
 * Scale of the CI paper-scale smoke run: a ~100M-nnz arabic analogue
 * (3.7M rows), the smallest size at which the warm-up and redundancy
 * effects EXPERIMENTS.md tracks are amortized like the paper's.
 */
constexpr double kCiPaperScale = 28.0;

} // namespace netsparse

#endif // NETSPARSE_SPARSE_STREAM_GEN_HH
