#include "sparse/stream_gen.hh"

#include <algorithm>
#include <thread>

#include "sim/logging.hh"
#include "sim/sweep.hh"

namespace netsparse {

std::vector<std::vector<std::uint32_t>>
PartitionedMatrix::takeStreams()
{
    std::vector<std::vector<std::uint32_t>> streams;
    streams.reserve(nodes.size());
    for (auto &n : nodes) {
        streams.push_back(std::move(n.colIdx));
        n.rowPtr = {0};
        n.colIdx.clear();
    }
    nodes.clear();
    return streams;
}

PartitionedMatrix
buildPartitionedMatrix(const GeneratorParams &params, std::uint32_t numNodes)
{
    ns_assert(numNodes > 0, "need at least one node");
    const RowEmitter gen(params);
    const std::uint32_t rows = gen.rows();
    ns_assert(rows >= numNodes, "fewer rows than nodes");

    PartitionedMatrix pm;
    pm.rows = pm.cols = rows;
    pm.part = Partition1D::equalRows(rows, numNodes);
    pm.nodes.resize(numNodes);
    auto buildNode = [&](std::size_t n) {
        NodeCsr &node = pm.nodes[n];
        const auto id = static_cast<NodeId>(n);
        const std::uint32_t first = pm.part.begin(id);
        const std::uint32_t count = pm.part.size(id);
        node.firstRow = first;
        node.rowPtr.reserve(count + 1);
        // Row degrees concentrate near the mean; reserving for it
        // avoids most mid-build reallocation without overcommitting.
        node.colIdx.reserve(static_cast<std::size_t>(
            count * std::max(1.0, gen.expectedDegree())));
        for (std::uint32_t r = first; r < first + count; ++r) {
            gen.emitRow(r, node.colIdx);
            node.rowPtr.push_back(node.colIdx.size());
        }
    };
    // A row is a pure function of (params, row) and each node owns a
    // contiguous row range, so nodes build independently and the output
    // is byte-identical at any worker count.
    parallelFor(numNodes, std::thread::hardware_concurrency(), buildNode);
    for (const NodeCsr &node : pm.nodes)
        pm.nnz += node.nnz();
    return pm;
}

PartitionedMatrix
buildPartitionedBenchmark(MatrixKind kind, double scale,
                          std::uint32_t numNodes)
{
    return buildPartitionedMatrix(benchmarkParams(kind, scale), numNodes);
}

double
paperScale(MatrixKind kind)
{
    // Paper Table 1 nnz over the analogue's nnz at scale 1 (the
    // comments in benchmarkParams()).
    switch (kind) {
      case MatrixKind::Arabic: return 640e6 / 3.67e6;
      case MatrixKind::Europe: return 108e6 / 0.55e6;
      case MatrixKind::Queen: return 330e6 / 5.18e6;
      case MatrixKind::Stokes: return 349e6 / 3.05e6;
      case MatrixKind::Uk: return 298e6 / 2.10e6;
    }
    ns_panic("unknown matrix kind");
}

} // namespace netsparse
