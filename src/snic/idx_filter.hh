/**
 * @file
 * The Idx Filter (Section 5.2): a per-node bitvector, one bit per column
 * of the sparse matrix, allocated in SNIC DRAM and shared by all client
 * RIG units of the node. A set bit means the property for that idx has
 * already been fetched and written to host memory, so any further PR for
 * it is redundant and can be dropped ("filtering").
 *
 * The RIG units reach the filter through a small L1/L2 hierarchy; those
 * accesses are fully pipelined in the paper's design and therefore do
 * not limit idx throughput, so the simulator models them as free.
 *
 * Host-memory footprint: the modeled device owns the full bitvector, but
 * the simulator backs it with lazily allocated 4 KB pages. At paper
 * scale (1024 nodes over a 23M-column matrix) each node touches only its
 * local band plus the hot foreign regions, so most pages of most nodes
 * are never materialized; sizeBytes() keeps reporting the *modeled*
 * dense footprint (it feeds the stats document; docs/scaling.md).
 */

#ifndef NETSPARSE_SNIC_IDX_FILTER_HH
#define NETSPARSE_SNIC_IDX_FILTER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace netsparse {

/** One per-node Idx Filter bitvector (paged lazily per 4 KB). */
class IdxFilter
{
  public:
    /** @param num_idxs number of columns of the sparse matrix. */
    explicit IdxFilter(std::uint64_t num_idxs)
        : pages_((num_idxs + kPageIdxs - 1) / kPageIdxs),
          numIdxs_(num_idxs)
    {}

    /** True when the property for @p idx has already been fetched. */
    bool
    test(PropIdx idx) const
    {
        ns_assert(idx < numIdxs_, "idx ", idx, " outside the filter");
        const Page *pg = pages_[idx / kPageIdxs].get();
        if (!pg)
            return false;
        std::uint64_t off = idx & (kPageIdxs - 1);
        return (*pg)[off >> 6] >> (off & 63) & 1;
    }

    /** Mark @p idx as fetched. */
    void
    set(PropIdx idx)
    {
        ns_assert(idx < numIdxs_, "idx ", idx, " outside the filter");
        auto &slot = pages_[idx / kPageIdxs];
        if (!slot)
            slot = std::make_unique<Page>();
        std::uint64_t off = idx & (kPageIdxs - 1);
        (*slot)[off >> 6] |= 1ull << (off & 63);
    }

    /** Reset for a new kernel iteration (drops the resident pages). */
    void
    clear()
    {
        for (auto &pg : pages_)
            pg.reset();
    }

    /**
     * Modeled SNIC DRAM footprint in bytes: the dense bitvector the
     * hardware would allocate, independent of simulator paging (this
     * value is exported to the stats document).
     */
    std::uint64_t sizeBytes() const { return (numIdxs_ + 63) / 64 * 8; }

    std::uint64_t numIdxs() const { return numIdxs_; }

  private:
    /** Idxs per page: 32768 bits = one 4 KB page. */
    static constexpr std::uint64_t kPageIdxs = 32768;
    using Page = std::array<std::uint64_t, kPageIdxs / 64>;

    std::vector<std::unique_ptr<Page>> pages_;
    std::uint64_t numIdxs_;
};

} // namespace netsparse

#endif // NETSPARSE_SNIC_IDX_FILTER_HH
