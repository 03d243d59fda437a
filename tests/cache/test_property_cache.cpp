/** @file Tests for the segmented Property Cache (Section 6.2.2). */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/property_cache.hh"
#include "net/protocol.hh"
#include "sim/rng.hh"

using namespace netsparse;

namespace {

PropertyCacheConfig
tinyConfig(std::uint64_t bytes = 1024, std::uint32_t ways = 4)
{
    PropertyCacheConfig cfg;
    cfg.totalBytes = bytes;
    cfg.ways = ways;
    return cfg;
}

/**
 * Reference model: the cache as it was built before its sets were
 * compacted, one 32 B record per way holding the tag (key / sets), the
 * checksum, a last-use timestamp for LRU and the epoch that wrote it.
 * An insert takes the first invalid way, else the least recently used.
 */
class ReferenceCache
{
  public:
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t checksum = 0;
        std::uint64_t lastUse = 0;
        std::uint64_t epoch = 0; // 0 = never written
    };

    explicit ReferenceCache(const PropertyCacheConfig &cfg) : cfg_(cfg) {}

    void
    configureForKernel(std::uint32_t propertyBytes)
    {
        std::uint32_t line = PropertyCache::kMinLineBytes;
        while (line < propertyBytes)
            line *= 2;
        numSets_ = std::max<std::uint64_t>(
            1, cfg_.totalBytes / line / cfg_.ways);
        // Grow-only, like the cache: stale ways stay behind, dead by
        // their epoch.
        if (ways_.size() < numSets_ * cfg_.ways)
            ways_.resize(numSets_ * cfg_.ways);
        ++epoch_;
        useClock_ = 0;
    }

    bool
    lookup(PropIdx idx, std::uint64_t &checksum)
    {
        ++lookups;
        Way *ws = set(idx);
        for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
            if (live(ws[w]) && ws[w].tag == idx / numSets_) {
                ++hits;
                ws[w].lastUse = ++useClock_;
                checksum = ws[w].checksum;
                return true;
            }
        }
        return false;
    }

    bool
    insert(PropIdx idx, std::uint64_t checksum)
    {
        Way *ws = set(idx);
        for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
            if (live(ws[w]) && ws[w].tag == idx / numSets_) {
                ++duplicateInserts;
                return false;
            }
        }
        Way *victim = nullptr;
        for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
            if (!live(ws[w])) {
                victim = &ws[w];
                break;
            }
            if (!victim || ws[w].lastUse < victim->lastUse)
                victim = &ws[w];
        }
        if (live(*victim))
            ++evictions;
        *victim = {idx / numSets_, checksum, ++useClock_, epoch_};
        ++inserts;
        return true;
    }

    std::uint64_t capacityEntries() const { return numSets_ * cfg_.ways; }

    std::uint64_t lookups = 0, hits = 0, inserts = 0, evictions = 0,
                  duplicateInserts = 0;

  private:
    Way *set(PropIdx idx) { return &ways_[idx % numSets_ * cfg_.ways]; }
    bool live(const Way &w) const { return w.epoch == epoch_; }

    PropertyCacheConfig cfg_;
    std::uint64_t numSets_ = 0;
    std::vector<Way> ways_;
    std::uint64_t useClock_ = 0;
    std::uint64_t epoch_ = 1;
};

} // namespace

TEST(PropertyCache, MissThenHitAfterInsert)
{
    PropertyCache c(tinyConfig());
    c.configureForKernel(64);
    std::uint64_t csum = 0;
    EXPECT_FALSE(c.lookup(42, csum));
    EXPECT_TRUE(c.insert(42, 0xabcd));
    EXPECT_TRUE(c.lookup(42, csum));
    EXPECT_EQ(csum, 0xabcdu);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.lookups(), 2u);
}

TEST(PropertyCache, DuplicateInsertIsANoOp)
{
    PropertyCache c(tinyConfig());
    c.configureForKernel(64);
    EXPECT_TRUE(c.insert(7, 111));
    EXPECT_FALSE(c.insert(7, 222));
    std::uint64_t csum = 0;
    EXPECT_TRUE(c.lookup(7, csum));
    EXPECT_EQ(csum, 111u); // the original value survives
    EXPECT_EQ(c.duplicateInserts(), 1u);
}

TEST(PropertyCache, CapacityMatchesModeGeometry)
{
    PropertyCacheConfig cfg = tinyConfig(32 << 10, 16);
    PropertyCache c(cfg);
    c.configureForKernel(64);
    EXPECT_EQ(c.lineBytes(), 64u);
    EXPECT_EQ(c.capacityEntries(), (32u << 10) / 64u);
    // Smaller properties -> more entries: the whole capacity is usable
    // regardless of property size (the point of the segmented design).
    c.configureForKernel(16);
    EXPECT_EQ(c.capacityEntries(), (32u << 10) / 16u);
    c.configureForKernel(512);
    EXPECT_EQ(c.capacityEntries(), (32u << 10) / 512u);
}

TEST(PropertyCache, LineSizeRoundsUpToSupportedMode)
{
    PropertyCache c(tinyConfig(4096));
    c.configureForKernel(40); // K=10 -> next mode is 64 B
    EXPECT_EQ(c.lineBytes(), 64u);
    c.configureForKernel(4); // K=1 -> minimum 16 B line
    EXPECT_EQ(c.lineBytes(), 16u);
}

TEST(PropertyCache, ReconfigureInvalidates)
{
    PropertyCache c(tinyConfig());
    c.configureForKernel(64);
    c.insert(5, 99);
    c.configureForKernel(64);
    std::uint64_t csum = 0;
    EXPECT_FALSE(c.lookup(5, csum));
}

TEST(PropertyCache, LruEvictionWithinASet)
{
    // 4 sets x 4 ways of 16 B lines = 256 B.
    PropertyCache c(tinyConfig(256, 4));
    c.configureForKernel(16);
    ASSERT_EQ(c.capacityEntries(), 16u);
    // Idxs congruent mod 4 share a set. Fill set 0 with 0,4,8,12.
    for (PropIdx i : {0u, 4u, 8u, 12u})
        EXPECT_TRUE(c.insert(i, i));
    // Touch 0 so 4 becomes LRU.
    std::uint64_t csum;
    EXPECT_TRUE(c.lookup(0, csum));
    // Inserting 16 (same set) evicts 4.
    EXPECT_TRUE(c.insert(16, 16));
    EXPECT_EQ(c.evictions(), 1u);
    EXPECT_TRUE(c.lookup(0, csum));
    EXPECT_FALSE(c.lookup(4, csum));
    EXPECT_TRUE(c.lookup(8, csum));
    EXPECT_TRUE(c.lookup(16, csum));
}

TEST(PropertyCache, ZeroCapacityIsDisabled)
{
    PropertyCache c(tinyConfig(0));
    c.configureForKernel(64);
    EXPECT_FALSE(c.enabled());
    EXPECT_FALSE(c.insert(1, 1));
    std::uint64_t csum;
    EXPECT_FALSE(c.lookup(1, csum));
    EXPECT_EQ(c.lookups(), 0u);
}

TEST(PropertyCache, OversizedPropertyIsFatal)
{
    PropertyCache c(tinyConfig());
    EXPECT_THROW(c.configureForKernel(1024), std::runtime_error);
}

TEST(PropertyCache, HitRateIsHitsOverLookups)
{
    PropertyCache c(tinyConfig());
    c.configureForKernel(16);
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.0); // no lookups yet
    c.insert(1, 1);
    std::uint64_t csum;
    c.lookup(1, csum);
    c.lookup(2, csum);
    EXPECT_EQ(c.lookups(), 2u);
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.5);
}

TEST(PropertyCache, RandomizedChecksumIntegrity)
{
    // Property test: the cache never returns a wrong value.
    PropertyCache c(tinyConfig(4096, 4));
    c.configureForKernel(64);
    Rng rng(3);
    for (int i = 0; i < 20000; ++i) {
        PropIdx idx = rng.uniformInt(0, 499);
        if (rng.uniform() < 0.5) {
            c.insert(idx, propertyChecksum(idx));
        } else {
            std::uint64_t csum;
            if (c.lookup(idx, csum)) {
                ASSERT_EQ(csum, propertyChecksum(idx));
            }
        }
    }
    EXPECT_GT(c.hits(), 0u);
    EXPECT_GT(c.evictions(), 0u);
}

TEST(PropertyCache, MatchesThe32ByteWayReferenceModel)
{
    // A way is now its key and checksum alone, half the reference's.
    static_assert(PropertyCache::kWayBytes == 16);
    static_assert(sizeof(ReferenceCache::Way) == 2 * PropertyCache::kWayBytes);

    // Property sizes in the order each cache is reconfigured: the
    // arrays grow, then shrink and regrow over their stale contents.
    const std::uint32_t modes[] = {512, 64, 4, 200, 16, 40, 512, 8};
    for (std::uint32_t ways : {1u, 4u, 16u}) {
        // Budgets whose set counts are not powers of two (16000 B at
        // 16 ways: 62, 31, 15, 7, 3 and 1 sets over the line sizes).
        for (std::uint64_t bytes : {16000u, 12288u, 1u << 14}) {
            PropertyCacheConfig cfg = tinyConfig(bytes, ways);
            PropertyCache c(cfg);
            ReferenceCache ref(cfg);
            Rng rng(ways * 131 + bytes);
            for (std::uint32_t mode : modes) {
                SCOPED_TRACE(::testing::Message() << ways << " ways, "
                                                  << bytes << " B, mode "
                                                  << mode);
                c.configureForKernel(mode);
                ref.configureForKernel(mode);
                ASSERT_EQ(c.capacityEntries(), ref.capacityEntries());
                // Keys over three times the capacity, a hot half of it
                // drawn often, and three tenants' idx | tenant << 40.
                std::uint64_t cap = ref.capacityEntries();
                for (int op = 0; op < 3000; ++op) {
                    PropIdx idx = rng.uniform() < 0.5
                                      ? rng.uniformInt(0, cap / 2)
                                      : rng.uniformInt(0, 3 * cap);
                    PropIdx key = idx | rng.uniformInt(0, 2) << 40;
                    if (rng.uniform() < 0.5) {
                        std::uint64_t value = rng.uniformInt(0, ~0ull);
                        ASSERT_EQ(c.insert(key, value),
                                  ref.insert(key, value));
                    } else {
                        std::uint64_t got = 1, want = 1;
                        ASSERT_EQ(c.lookup(key, got), ref.lookup(key, want));
                        ASSERT_EQ(got, want);
                    }
                    ASSERT_EQ(c.lookups(), ref.lookups);
                    ASSERT_EQ(c.hits(), ref.hits);
                    ASSERT_EQ(c.inserts(), ref.inserts);
                    ASSERT_EQ(c.evictions(), ref.evictions);
                    ASSERT_EQ(c.duplicateInserts(), ref.duplicateInserts);
                }
            }
            EXPECT_GT(c.hits(), 0u);
            EXPECT_GT(c.evictions(), 0u);
            EXPECT_GT(c.duplicateInserts(), 0u);
        }
    }
}
