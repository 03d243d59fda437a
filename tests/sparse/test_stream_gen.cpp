/**
 * @file
 * The streaming builder's determinism contract (sparse/stream_gen.hh):
 * buildPartitionedMatrix's per-node partitions, built on parallel
 * workers, concatenate to exactly the matrix the sequential
 * materializing path produces. This is the guarantee docs/scaling.md
 * leans on for paper-scale runs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sparse/generators.hh"
#include "sparse/stream_gen.hh"

using namespace netsparse;

TEST(StreamGen, MatchesTheMaterializingPath)
{
    // Concatenating the per-node partitions reproduces, row for row
    // and column for column, the CSR the materializing generator
    // builds - the two paths must stay interchangeable. The node
    // counts put fewer, as many and more nodes than a typical host has
    // build workers.
    for (MatrixKind kind : allMatrixKinds()) {
        GeneratorParams p = benchmarkParams(kind, 0.05);
        Csr m = Csr::fromCoo(makeMatrix(p));
        for (std::uint32_t nodes : {1u, 3u, 8u, 64u}) {
            PartitionedMatrix pm = buildPartitionedMatrix(p, nodes);
            ASSERT_EQ(pm.rows, m.rows);
            ASSERT_EQ(pm.nnz, m.nnz());
            ASSERT_EQ(pm.nodes.size(), nodes);
            std::uint32_t next_row = 0;
            for (const NodeCsr &node : pm.nodes) {
                ASSERT_EQ(node.firstRow, next_row);
                for (std::uint32_t lr = 0; lr < node.numRows(); ++lr) {
                    std::uint32_t r = node.firstRow + lr;
                    auto begin = node.colIdx.begin() +
                                 static_cast<std::ptrdiff_t>(node.rowPtr[lr]);
                    auto end =
                        node.colIdx.begin() +
                        static_cast<std::ptrdiff_t>(node.rowPtr[lr + 1]);
                    std::vector<std::uint32_t> got(begin, end);
                    std::vector<std::uint32_t> want(
                        m.colIdx.begin() +
                            static_cast<std::ptrdiff_t>(m.rowPtr[r]),
                        m.colIdx.begin() +
                            static_cast<std::ptrdiff_t>(m.rowPtr[r + 1]));
                    ASSERT_EQ(got, want) << matrixName(kind) << " on "
                                         << nodes << " nodes, row " << r;
                }
                next_row += node.numRows();
            }
            ASSERT_EQ(next_row, pm.rows);
        }
    }
}

TEST(StreamGen, TakeStreamsMovesTheColumnPayload)
{
    PartitionedMatrix pm =
        buildPartitionedBenchmark(MatrixKind::Queen, 0.05, 4);
    std::uint64_t nnz = pm.nnz;
    std::vector<std::uint64_t> node_nnz;
    for (const NodeCsr &n : pm.nodes)
        node_nnz.push_back(n.nnz());

    std::vector<std::vector<std::uint32_t>> streams = pm.takeStreams();
    ASSERT_EQ(streams.size(), node_nnz.size());
    std::uint64_t total = 0;
    for (std::size_t n = 0; n < streams.size(); ++n) {
        EXPECT_EQ(streams[n].size(), node_nnz[n]);
        total += streams[n].size();
    }
    EXPECT_EQ(total, nnz);
    // The payload moved out; the struct no longer holds a second copy.
    for (const NodeCsr &n : pm.nodes)
        EXPECT_TRUE(n.colIdx.empty());
}

TEST(StreamGen, PaperScaleReachesTheTableOneNnz)
{
    // Table 1 nonzero counts the full-size scales must reproduce
    // within generator noise (the analogues draw per-row degrees).
    struct Target
    {
        MatrixKind kind;
        double nnz;
    };
    // Spot-check the smallest kind only: materializing a full-size
    // matrix here would defeat the point. Scale linearity of the
    // generators makes nnz(s)/s constant, so check at a small scale.
    for (const auto &[kind, want_nnz] :
         {Target{MatrixKind::Arabic, 640e6},
          Target{MatrixKind::Europe, 108e6}}) {
        double s = paperScale(kind);
        ASSERT_GT(s, 1.0);
        PartitionedMatrix pm = buildPartitionedBenchmark(kind, 0.1, 4);
        double nnz_at_scale = static_cast<double>(pm.nnz) * (s / 0.1);
        EXPECT_NEAR(nnz_at_scale / want_nnz, 1.0, 0.15)
            << matrixName(kind);
    }
}
