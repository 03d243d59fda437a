#include "cache/property_cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace netsparse {

PropertyCache::PropertyCache(const PropertyCacheConfig &cfg) : cfg_(cfg)
{
    ns_assert(cfg_.ways > 0, "cache needs at least one way");
}

void
PropertyCache::configureForKernel(std::uint32_t propertyBytes)
{
    if (!enabled())
        return;
    if (propertyBytes > kMaxLineBytes) {
        ns_fatal("property size ", propertyBytes,
                 " exceeds the largest cache line ", kMaxLineBytes,
                 "; tile the property array (Section 6.2.2)");
    }
    // Round the mode up to the next supported line size.
    lineBytes_ = kMinLineBytes;
    while (lineBytes_ < propertyBytes)
        lineBytes_ *= 2;

    std::uint64_t entries = cfg_.totalBytes / lineBytes_;
    numSets_ = std::max<std::uint64_t>(1, entries / cfg_.ways);
    // Grow-only: carried-over sets are dead anyway once the epoch
    // advances, so invalidation never rewrites the arrays.
    if (setCapacity_ < numSets_) {
        std::uint64_t ways = numSets_ * cfg_.ways;
        sets_.reset(static_cast<SetHeader *>(
            std::calloc(numSets_, sizeof(SetHeader))));
        keys_.reset(
            static_cast<PropIdx *>(std::calloc(ways, sizeof(PropIdx))));
        checksums_.reset(static_cast<std::uint64_t *>(
            std::calloc(ways, sizeof(std::uint64_t))));
        ns_assert(sets_ && keys_ && checksums_,
                  "property cache allocation failed");
        setCapacity_ = numSets_;
    }
    ++epoch_;
    ns_assert(epoch_ != 0, "property cache epoch wrapped");
}

void
PropertyCache::moveToFront(std::uint64_t s, std::uint32_t w, PropIdx key,
                           std::uint64_t checksum)
{
    PropIdx *ks = keys_.get() + s * cfg_.ways;
    std::uint64_t *cs = checksums_.get() + s * cfg_.ways;
    std::copy_backward(ks, ks + w, ks + w + 1);
    std::copy_backward(cs, cs + w, cs + w + 1);
    ks[0] = key;
    cs[0] = checksum;
}

bool
PropertyCache::lookup(PropIdx idx, std::uint64_t &checksum)
{
    if (!enabled() || !keys_)
        return false;
    ++lookups_;
    std::uint64_t s = idx % numSets_;
    const PropIdx *ks = keys_.get() + s * cfg_.ways;
    const PropIdx *hit = std::find(ks, ks + fill(s), idx);
    if (hit == ks + fill(s))
        return false;
    ++hits_;
    checksum = checksums_[hit - keys_.get()];
    moveToFront(s, hit - ks, idx, checksum);
    return true;
}

bool
PropertyCache::insert(PropIdx idx, std::uint64_t checksum)
{
    if (!enabled() || !keys_)
        return false;
    std::uint64_t s = idx % numSets_;
    std::uint32_t n = fill(s);
    const PropIdx *ks = keys_.get() + s * cfg_.ways;
    if (std::find(ks, ks + n, idx) != ks + n) {
        ++duplicateInserts_;
        return false;
    }
    if (n == cfg_.ways) {
        --n; // the least recently used way makes room
        ++evictions_;
    }
    sets_[s] = {epoch_, n + 1};
    moveToFront(s, n, idx, checksum);
    ++inserts_;
    return true;
}

void
PropertyCache::exportStats(StatRegistry &reg,
                           const std::string &prefix) const
{
    reg.set(prefix + ".lookups", static_cast<double>(lookups_));
    reg.set(prefix + ".hits", static_cast<double>(hits_));
    reg.set(prefix + ".hitRate", hitRate());
    reg.set(prefix + ".inserts", static_cast<double>(inserts_));
    reg.set(prefix + ".evictions", static_cast<double>(evictions_));
    reg.set(prefix + ".duplicateInserts",
            static_cast<double>(duplicateInserts_));
    reg.set(prefix + ".capacityEntries",
            static_cast<double>(capacityEntries()));
    reg.set(prefix + ".lineBytes", static_cast<double>(lineBytes_));
}

} // namespace netsparse
