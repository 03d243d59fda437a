/** @file Unit tests for 1-D partitioning. */

#include <gtest/gtest.h>

#include "sparse/generators.hh"
#include "sparse/partition.hh"

using namespace netsparse;

TEST(Partition, EqualRowsCoversEverythingOnce)
{
    Partition1D p = Partition1D::equalRows(100, 7);
    EXPECT_EQ(p.numParts(), 7u);
    EXPECT_EQ(p.total(), 100u);
    EXPECT_EQ(p.begin(0), 0u);
    EXPECT_EQ(p.end(6), 100u);
    std::uint32_t covered = 0;
    for (NodeId n = 0; n < 7; ++n) {
        EXPECT_EQ(p.end(n) - p.begin(n), p.size(n));
        covered += p.size(n);
    }
    EXPECT_EQ(covered, 100u);
}

TEST(Partition, OwnerOfAgreesWithRanges)
{
    Partition1D p = Partition1D::equalRows(1000, 13);
    for (std::uint32_t i = 0; i < 1000; ++i) {
        NodeId o = p.ownerOf(i);
        EXPECT_GE(i, p.begin(o));
        EXPECT_LT(i, p.end(o));
    }
}

TEST(Partition, ExactDivisionUsesFastPath)
{
    Partition1D p = Partition1D::equalRows(128, 8);
    for (std::uint32_t i = 0; i < 128; ++i)
        EXPECT_EQ(p.ownerOf(i), i / 16);
}

TEST(Partition, SinglePartOwnsAll)
{
    Partition1D p = Partition1D::equalRows(50, 1);
    EXPECT_EQ(p.numParts(), 1u);
    EXPECT_EQ(p.ownerOf(0), 0u);
    EXPECT_EQ(p.ownerOf(49), 0u);
}

TEST(Partition, OutOfRangePanics)
{
    Partition1D p = Partition1D::equalRows(10, 2);
    EXPECT_THROW(p.ownerOf(10), std::logic_error);
}

TEST(Partition, TooManyPartsPanics)
{
    EXPECT_THROW(Partition1D::equalRows(3, 5), std::logic_error);
}

TEST(Partition, EqualNnzBalancesSkewedMatrices)
{
    // A matrix whose first rows are dense and the rest nearly empty.
    Coo coo;
    coo.rows = coo.cols = 1000;
    for (std::uint32_t r = 0; r < 100; ++r)
        for (std::uint32_t k = 0; k < 50; ++k)
            coo.push(r, (r + k) % 1000);
    for (std::uint32_t r = 100; r < 1000; ++r)
        coo.push(r, r);
    Csr m = Csr::fromCoo(coo);

    Partition1D rows = Partition1D::equalRows(m.rows, 4);
    Partition1D nnz = Partition1D::equalNnz(m, 4);

    auto node_nnz = [&](const Partition1D &p, NodeId n) {
        return m.rowPtr[p.end(n)] - m.rowPtr[p.begin(n)];
    };
    // Row partitioning puts nearly everything on node 0.
    EXPECT_GT(node_nnz(rows, 0), 4 * node_nnz(rows, 3));
    // Nnz partitioning is much more even.
    std::uint64_t mx = 0, mn = m.nnz();
    for (NodeId n = 0; n < 4; ++n) {
        mx = std::max(mx, node_nnz(nnz, n));
        mn = std::min(mn, node_nnz(nnz, n));
    }
    EXPECT_LT(mx, 2 * mn + 100);
    // Still a complete, ordered partition.
    EXPECT_EQ(nnz.total(), m.rows);
    for (std::uint32_t i = 0; i < m.rows; i += 97) {
        NodeId o = nnz.ownerOf(i);
        EXPECT_GE(i, nnz.begin(o));
        EXPECT_LT(i, nnz.end(o));
    }
}

TEST(Partition, NonUniformBinarySearchPath)
{
    Csr m = makeBenchmarkMatrix(MatrixKind::Arabic, 0.05);
    Partition1D p = Partition1D::equalNnz(m, 16);
    for (std::uint32_t i = 0; i < m.rows; i += 31) {
        NodeId o = p.ownerOf(i);
        EXPECT_GE(i, p.begin(o));
        EXPECT_LT(i, p.end(o));
    }
}
