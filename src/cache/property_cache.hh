/**
 * @file
 * The in-switch Property Cache (Section 6.2.2, Figure 9).
 *
 * A set-associative cache indexed by the property idx that returns the
 * property value. To support different kernels' property sizes with full
 * capacity utilization, the data array is built from fixed-width (16 B)
 * *segments*: a property of S bytes occupies S/16 adjacent segments of
 * the same set/way. Before a kernel runs, the control plane configures
 * the single property size (the "Mode"), which also invalidates all
 * contents (sparse kernels are short-lived, so there is no cross-kernel
 * reuse to preserve).
 *
 * The simulator stores one 64-bit checksum per entry in place of the
 * property bytes; capacity accounting still uses the true property size.
 * A way is the full key and that checksum. A set keeps its ways most
 * recently used first, so LRU needs no timestamp: a hit moves its way to
 * the front, an insert writes the front, an eviction drops the last way.
 */

#ifndef NETSPARSE_CACHE_PROPERTY_CACHE_HH
#define NETSPARSE_CACHE_PROPERTY_CACHE_HH

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace netsparse {

/** Static (hardware) parameters of a Property Cache instance. */
struct PropertyCacheConfig
{
    /** Total data capacity in bytes; 0 disables the cache. */
    std::uint64_t totalBytes = 32ull << 20;
    /** Associativity. */
    std::uint32_t ways = 16;
};

/** One Property Cache (one per switch middle pipe). */
class PropertyCache
{
  public:
    /** Smallest supported property ("min cache line"). */
    static constexpr std::uint32_t kMinLineBytes = 16;
    /** Largest supported property ("max cache line"). */
    static constexpr std::uint32_t kMaxLineBytes = 512;
    /** Host bytes per way: the full key and its checksum. */
    static constexpr std::size_t kWayBytes =
        sizeof(PropIdx) + sizeof(std::uint64_t);

    explicit PropertyCache(const PropertyCacheConfig &cfg);

    /**
     * Control-plane reconfiguration before a kernel: set the property
     * size and invalidate everything.
     */
    void configureForKernel(std::uint32_t propertyBytes);

    /**
     * Look up @p idx (read-PR path). On a hit, @p checksum receives the
     * stored value and the entry's recency is refreshed.
     * @return true on hit.
     */
    bool lookup(PropIdx idx, std::uint64_t &checksum);

    /**
     * Insert @p idx (response-PR path). Does nothing when the value is
     * already present. Evicts the set's LRU way when the set is full.
     * @return true when a new entry was written.
     */
    bool insert(PropIdx idx, std::uint64_t checksum);

    /** Entries the cache can hold in the current mode. */
    std::uint64_t capacityEntries() const { return numSets_ * cfg_.ways; }

    std::uint32_t lineBytes() const { return lineBytes_; }
    bool enabled() const { return cfg_.totalBytes > 0; }

    // Statistics.
    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t inserts() const { return inserts_; }
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t duplicateInserts() const { return duplicateInserts_; }

    /** Hit rate over all lookups so far (0 when no lookups). */
    double
    hitRate() const
    {
        return lookups_ ? static_cast<double>(hits_) / lookups_ : 0.0;
    }

    /**
     * Register every counter under "<prefix>." (the docs/observability.md
     * property-cache contract, e.g. "tor0.cache.hits").
     */
    void exportStats(StatRegistry &reg, const std::string &prefix) const;

  private:
    /**
     * A set's live ways are its first @c fill ways, and only while
     * @c epoch matches the cache's: bumping the cache epoch invalidates
     * every set in O(1), so the per-kernel reconfiguration of a
     * multi-megabyte cache never rewrites it. An all-zero header (epoch
     * 0 < any live epoch) is an empty set. A 32-bit epoch keeps the
     * header at 8 B; configureForKernel panics if it ever wraps.
     */
    struct SetHeader
    {
        std::uint32_t epoch;
        std::uint32_t fill;
    };

    struct FreeDeleter
    {
        void operator()(void *p) const { std::free(p); }
    };

    /** Live ways of set @p s. */
    std::uint32_t
    fill(std::uint64_t s) const
    {
        return sets_[s].epoch == epoch_ ? sets_[s].fill : 0;
    }

    /**
     * Shift ways [0, @p w) of set @p s back by one, over way @p w, and
     * write (@p key, @p checksum) to the front.
     */
    void moveToFront(std::uint64_t s, std::uint32_t w, PropIdx key,
                     std::uint64_t checksum);

    PropertyCacheConfig cfg_;
    std::uint32_t lineBytes_ = kMinLineBytes;
    std::uint64_t numSets_ = 0;
    /**
     * calloc-backed and grow-only, sized by configureForKernel for the
     * kernel's mode: zero-on-demand pages cost nothing until their sets
     * are touched, where a vector would memset megabytes up front.
     */
    std::unique_ptr<SetHeader[], FreeDeleter> sets_;
    std::unique_ptr<PropIdx[], FreeDeleter> keys_;
    std::unique_ptr<std::uint64_t[], FreeDeleter> checksums_;
    std::uint64_t setCapacity_ = 0;
    std::uint32_t epoch_ = 1;

    std::uint64_t lookups_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t inserts_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t duplicateInserts_ = 0;
};

} // namespace netsparse

#endif // NETSPARSE_CACHE_PROPERTY_CACHE_HH
