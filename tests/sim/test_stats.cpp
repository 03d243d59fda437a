/** @file Unit tests for the statistics package. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/stats.hh"

using namespace netsparse;

TEST(Average, TracksMomentsAndExtremes)
{
    Average a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(2.0);
    a.sample(4.0);
    a.sample(9.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 15.0);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(0.0, 10.0, 5); // buckets of width 2
    h.sample(-1.0);            // underflow
    h.sample(0.0);             // bucket 1
    h.sample(1.9);             // bucket 1
    h.sample(9.9);             // bucket 5
    h.sample(10.0);            // overflow
    h.sample(100.0);           // overflow
    EXPECT_EQ(h.totalSamples(), 6u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(5), 1u);
    EXPECT_EQ(h.bucket(h.numBuckets() - 1), 2u);
}

TEST(Histogram, PercentileEmptyAndClamping)
{
    Histogram h(0.0, 100.0, 10);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0); // empty

    for (int v = 0; v < 100; ++v)
        h.sample(static_cast<double>(v));
    // Out-of-range p clamps to [0, 100].
    EXPECT_DOUBLE_EQ(h.percentile(-5.0), h.percentile(0.0));
    EXPECT_DOUBLE_EQ(h.percentile(150.0), h.percentile(100.0));
}

TEST(Histogram, PercentileInterpolatesUniformDistribution)
{
    // One sample per integer 0..99 in 10-wide buckets: percentiles
    // interpolate to the exact rank values.
    Histogram h(0.0, 100.0, 10);
    for (int v = 0; v < 100; ++v)
        h.sample(static_cast<double>(v));
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 50.0);
    EXPECT_DOUBLE_EQ(h.percentile(90.0), 90.0);
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 99.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 100.0);
}

TEST(Histogram, PercentileResolvesEdgeBinsToRange)
{
    Histogram under(0.0, 10.0, 5);
    under.sample(-3.0);
    EXPECT_DOUBLE_EQ(under.percentile(50.0), 0.0); // underflow -> lo

    Histogram over(0.0, 10.0, 5);
    over.sample(42.0);
    EXPECT_DOUBLE_EQ(over.percentile(50.0), 10.0); // overflow -> hi

    // A single in-range sample resolves to its bucket's right edge.
    Histogram one(0.0, 10.0, 5);
    one.sample(5.0); // bucket [4, 6)
    EXPECT_DOUBLE_EQ(one.percentile(0.0), 6.0);
    EXPECT_DOUBLE_EQ(one.percentile(99.0), 6.0);
}

TEST(Histogram, MergeSumsMatchingGeometry)
{
    Histogram a(0.0, 10.0, 5);
    Histogram b(0.0, 10.0, 5);
    a.sample(1.0);
    a.sample(9.0);
    b.sample(1.5);
    b.sample(-1.0);
    b.sample(100.0);
    a.merge(b);
    EXPECT_EQ(a.totalSamples(), 5u);
    EXPECT_EQ(a.bucket(0), 1u);                  // underflow from b
    EXPECT_EQ(a.bucket(1), 2u);                  // 1.0 and 1.5
    EXPECT_EQ(a.bucket(5), 1u);                  // 9.0
    EXPECT_EQ(a.bucket(a.numBuckets() - 1), 1u); // overflow from b
}

TEST(Histogram, MergeIgnoresMismatchedGeometry)
{
    Histogram a(0.0, 10.0, 5);
    a.sample(1.0);
    Histogram widened(0.0, 20.0, 5);
    widened.sample(1.0);
    a.merge(widened);
    EXPECT_EQ(a.totalSamples(), 1u);
    Histogram rebucketed(0.0, 10.0, 10);
    rebucketed.sample(1.0);
    a.merge(rebucketed);
    EXPECT_EQ(a.totalSamples(), 1u);
}

TEST(StatRegistry, SetAddGetDump)
{
    StatRegistry reg;
    EXPECT_FALSE(reg.has("x"));
    EXPECT_DOUBLE_EQ(reg.get("x"), 0.0);
    reg.set("node0.prs", 10);
    reg.add("node0.prs", 5);
    reg.add("node1.prs", 1);
    EXPECT_TRUE(reg.has("node0.prs"));
    EXPECT_DOUBLE_EQ(reg.get("node0.prs"), 15.0);

    // The scalars the documents dump come out sorted by name.
    std::vector<std::string> names;
    for (const auto &[name, value] : reg.all())
        names.push_back(name);
    EXPECT_EQ(names, (std::vector<std::string>{"node0.prs", "node1.prs"}));
}
