#include "cache/property_cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace netsparse {

PropertyCache::PropertyCache(const PropertyCacheConfig &cfg) : cfg_(cfg)
{
    ns_assert(cfg_.ways > 0, "cache needs at least one way");
    // The way array is allocated lazily by configureForKernel, sized
    // for the mode the kernel actually uses - not for the worst-case
    // minimum-line mode, whose array can be 4x larger.
    lineBytes_ = kMinLineBytes;
}

void
PropertyCache::configureForKernel(std::uint32_t propertyBytes)
{
    if (!enabled()) {
        lineBytes_ = kMinLineBytes;
        numSets_ = 0;
        ways_.reset();
        wayCapacity_ = 0;
        return;
    }
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
    // Grow-only: carried-over entries are dead anyway once the epoch
    // advances, so invalidation never rewrites the (multi-megabyte)
    // way array. calloc hands back zero-on-demand pages, so even the
    // initial allocation costs nothing until sets are actually touched.
    std::uint64_t needed = numSets_ * cfg_.ways;
    if (wayCapacity_ < needed) {
        ways_.reset(
            static_cast<Way *>(std::calloc(needed, sizeof(Way))));
        ns_assert(ways_, "property cache allocation failed");
        wayCapacity_ = needed;
    }
    ++epoch_;
    useClock_ = 0;
}

void
PropertyCache::invalidateAll()
{
    ++epoch_;
}

bool
PropertyCache::lookup(PropIdx idx, std::uint64_t &checksum)
{
    if (!enabled() || !ways_)
        return false;
    ++lookups_;
    std::uint64_t s = idx % numSets_;
    std::uint64_t tag = idx / numSets_;
    Way *ws = set(s);
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if (live(ws[w]) && ws[w].tag == tag) {
            ++hits_;
            ws[w].lastUse = ++useClock_;
            checksum = ws[w].checksum;
            return true;
        }
    }
    return false;
}

bool
PropertyCache::insert(PropIdx idx, std::uint64_t checksum)
{
    if (!enabled() || !ways_)
        return false;
    std::uint64_t s = idx % numSets_;
    std::uint64_t tag = idx / numSets_;
    Way *ws = set(s);

    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if (live(ws[w]) && ws[w].tag == tag) {
            ++duplicateInserts_;
            return false;
        }
    }
    // Prefer an invalid way; otherwise evict the least recently used.
    Way *victim = nullptr;
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if (!live(ws[w])) {
            victim = &ws[w];
            break;
        }
        if (!victim || ws[w].lastUse < victim->lastUse)
            victim = &ws[w];
    }
    ns_assert(victim, "no victim way found");
    if (live(*victim))
        ++evictions_;
    victim->epoch = epoch_;
    victim->tag = tag;
    victim->checksum = checksum;
    victim->lastUse = ++useClock_;
    ++inserts_;
    return true;
}

void
PropertyCache::resetStats()
{
    lookups_ = hits_ = inserts_ = evictions_ = duplicateInserts_ = 0;
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
