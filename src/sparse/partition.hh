/**
 * @file
 * 1-D row partitioning of a square sparse matrix across cluster nodes.
 *
 * With 1-D partitioning (Section 2.1 of the paper), node i owns a
 * contiguous range of rows, the matching range of the input property
 * array, and the matching range of the output property array. Writes are
 * always local; reads of input properties whose index falls outside the
 * local range become remote Property Requests (PRs).
 */

#ifndef NETSPARSE_SPARSE_PARTITION_HH
#define NETSPARSE_SPARSE_PARTITION_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"
#include "sparse/csr.hh"

namespace netsparse {

/**
 * A 1-D partition: boundaries_[i] .. boundaries_[i+1]) is node i's range.
 */
class Partition1D
{
  public:
    Partition1D() = default;

    /** Split @p count indices into @p parts nearly-equal contiguous runs. */
    static Partition1D equalRows(std::uint32_t count, std::uint32_t parts);

    /**
     * Split rows so that each part holds a nearly-equal share of nonzeros
     * (greedy prefix split; still contiguous).
     */
    static Partition1D equalNnz(const Csr &m, std::uint32_t parts);

    /** Number of parts (nodes). */
    std::uint32_t numParts() const
    {
        return static_cast<std::uint32_t>(boundaries_.size()) - 1;
    }

    /** First index owned by @p part. */
    std::uint32_t begin(NodeId part) const { return boundaries_[part]; }

    /** One past the last index owned by @p part. */
    std::uint32_t end(NodeId part) const { return boundaries_[part + 1]; }

    /** Number of indices owned by @p part. */
    std::uint32_t
    size(NodeId part) const
    {
        return end(part) - begin(part);
    }

    /**
     * The node that owns global index @p idx. Inline: this is the
     * Destination Solver's lookup, called once per processed idx on
     * the RIG client fast path.
     */
    NodeId
    ownerOf(std::uint32_t idx) const
    {
        if (stride_ > 0 && idx < total_)
            return idx / stride_;
        return ownerOfSearch(idx);
    }

    /** Total index count covered by the partition. */
    std::uint32_t total() const { return boundaries_.back(); }

    const std::vector<std::uint32_t> &boundaries() const
    {
        return boundaries_;
    }

  private:
    explicit Partition1D(std::vector<std::uint32_t> b);

    /** Binary-search slow path of ownerOf (non-uniform partitions). */
    NodeId ownerOfSearch(std::uint32_t idx) const;

    std::vector<std::uint32_t> boundaries_;
    // Fast path for equal-rows partitions: owner = idx / stride_.
    // An out-of-range idx fails the total_ guard and falls through to
    // ownerOfSearch, which carries the range assertion.
    std::uint32_t stride_ = 0;
    std::uint32_t total_ = 0;
};

} // namespace netsparse

#endif // NETSPARSE_SPARSE_PARTITION_HH
