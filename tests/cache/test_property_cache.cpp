/** @file Tests for the segmented Property Cache (Section 6.2.2). */

#include <gtest/gtest.h>

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

TEST(PropertyCache, InvalidateAllKeepsGeometry)
{
    PropertyCache c(tinyConfig());
    c.configureForKernel(32);
    c.insert(5, 99);
    c.invalidateAll();
    std::uint64_t csum = 0;
    EXPECT_FALSE(c.lookup(5, csum));
    EXPECT_EQ(c.lineBytes(), 32u);
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

TEST(PropertyCache, HitRateAndResetStats)
{
    PropertyCache c(tinyConfig());
    c.configureForKernel(16);
    c.insert(1, 1);
    std::uint64_t csum;
    c.lookup(1, csum);
    c.lookup(2, csum);
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.5);
    c.resetStats();
    EXPECT_EQ(c.lookups(), 0u);
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.0);
}

TEST(SegmentSelector, Figure9Example)
{
    // 32 segments, 32 B mode (2 segments per entry), segment bits
    // 1110x: the pair one before last -> enables bits 28 and 29.
    std::uint32_t mask = segmentEnableMask(32, 2, 0b11100);
    EXPECT_EQ(mask, 0b11u << 28);
    mask = segmentEnableMask(32, 2, 0b11101);
    EXPECT_EQ(mask, 0b11u << 28); // the LSB is ignored in 32 B mode
}

TEST(SegmentSelector, ModesEnableTheRightWidth)
{
    // 16 B mode: one segment.
    EXPECT_EQ(segmentEnableMask(32, 1, 5), 1u << 5);
    // 64 B mode: four adjacent segments, aligned.
    EXPECT_EQ(segmentEnableMask(32, 4, 9), 0xfu << 8);
    // 512 B mode: all 32 segments.
    EXPECT_EQ(segmentEnableMask(32, 32, 17), 0xffffffffu);
}

TEST(SegmentSelector, PopcountMatchesSegmentsPerEntry)
{
    for (std::uint32_t spe : {1u, 2u, 4u, 8u, 16u, 32u}) {
        for (std::uint32_t bits = 0; bits < 32; ++bits) {
            std::uint32_t mask = segmentEnableMask(32, spe, bits);
            EXPECT_EQ(static_cast<std::uint32_t>(
                          __builtin_popcount(mask)),
                      spe);
        }
    }
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
