/** @file Unit tests for the deterministic RNG utilities. */

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <set>

#include "sim/rng.hh"

using namespace netsparse;

TEST(Mt19937_64, MatchesTheStdEngineBitForBit)
{
    // std::mt19937_64 is the oracle: small seeds and mixed full-width
    // ones, over 1001 draws each - across the first twist and three
    // more at every 312th draw.
    static_assert(Mt19937_64::min() == std::mt19937_64::min());
    static_assert(Mt19937_64::max() == std::mt19937_64::max());
    for (std::uint64_t s = 0; s < 1000; ++s) {
        for (std::uint64_t seed : {s, splitmix64(s)}) {
            Mt19937_64 eng(seed);
            std::mt19937_64 ref(seed);
            for (int draw = 0; draw <= 1000; ++draw)
                ASSERT_EQ(eng(), ref())
                    << "seed " << seed << " draw " << draw;
        }
    }
}

TEST(Rng, DrawsMatchTheStdDistributionsOnTheStdEngine)
{
    // Every Rng draw is the std distribution (zipf: the inverse
    // transform of a std uniform) over std::mt19937_64 seeded with
    // splitmix64(seed), interleaved so the engines must also advance
    // in lockstep across draw kinds.
    auto std_uniform = [](std::mt19937_64 &e) {
        return std::uniform_real_distribution<double>(0.0, 1.0)(e);
    };
    auto std_zipf = [&](std::mt19937_64 &e, std::uint64_t n, double alpha) {
        double u = std_uniform(e);
        double nmax = static_cast<double>(n);
        double x = alpha == 1.0
                       ? std::exp(u * std::log(nmax))
                       : std::pow(u * (std::pow(nmax, 1.0 - alpha) - 1.0) +
                                      1.0,
                                  1.0 / (1.0 - alpha));
        auto idx = static_cast<std::uint64_t>(x - 1.0);
        return idx >= n ? n - 1 : idx;
    };
    const std::uint64_t ranges[][2] = {
        {0, 4}, {10, 20}, {0, 1ull << 30}, {0, ~0ull}};
    const double means[] = {0.5, 1.0, 4.2, 150.0};
    const double alphas[] = {1.0, 1.08, 1.3};
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        Rng rng(seed);
        std::mt19937_64 ref(splitmix64(seed));
        for (int i = 0; i < 1000; ++i) {
            switch (i % 4) {
              case 0: {
                auto [lo, hi] = ranges[i / 4 % 4];
                ASSERT_EQ(rng.uniformInt(lo, hi),
                          std::uniform_int_distribution<std::uint64_t>(
                              lo, hi)(ref));
                break;
              }
              case 1:
                ASSERT_EQ(rng.uniform(), std_uniform(ref));
                break;
              case 2: {
                double mean = means[i / 4 % 4];
                std::uint64_t want =
                    mean <= 1.0
                        ? 1
                        : std::geometric_distribution<std::uint64_t>(
                              1.0 / mean)(ref) +
                              1;
                ASSERT_EQ(rng.geometric(mean), want);
                break;
              }
              default: {
                double alpha = alphas[i / 4 % 3];
                ASSERT_EQ(rng.zipf(1000, alpha), std_zipf(ref, 1000, alpha));
              }
            }
        }
    }
}

TEST(SplitMix, IsDeterministicAndMixes)
{
    EXPECT_EQ(splitmix64(42), splitmix64(42));
    EXPECT_NE(splitmix64(42), splitmix64(43));
    // Single-bit input changes flip roughly half the output bits.
    std::uint64_t a = splitmix64(0x1000);
    std::uint64_t b = splitmix64(0x1001);
    int diff = __builtin_popcountll(a ^ b);
    EXPECT_GT(diff, 16);
    EXPECT_LT(diff, 48);
}

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1 << 30), b.uniformInt(0, 1 << 30));
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.uniformInt(0, 1000) == b.uniformInt(0, 1000);
    EXPECT_LT(same, 10);
}

TEST(Rng, UniformIntRespectsBounds)
{
    Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
        auto v = rng.uniformInt(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, UniformInHalfOpenUnitInterval)
{
    Rng rng(6);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double v = rng.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, GeometricMeanIsApproximatelyRight)
{
    Rng rng(7);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(10.0));
    EXPECT_NEAR(sum / n, 10.0, 0.5);
    // Degenerate mean never returns zero.
    for (int i = 0; i < 100; ++i)
        EXPECT_GE(rng.geometric(0.5), 1u);
}

TEST(Rng, ZipfStaysInRangeAndIsSkewed)
{
    Rng rng(8);
    const std::uint64_t n = 1000;
    std::vector<std::uint64_t> counts(n, 0);
    for (int i = 0; i < 50000; ++i) {
        auto v = rng.zipf(n, 1.2);
        ASSERT_LT(v, n);
        ++counts[v];
    }
    // Rank 0 must be much more popular than rank n/2.
    EXPECT_GT(counts[0], 10 * std::max<std::uint64_t>(1, counts[n / 2]));
    // Degenerate cases.
    EXPECT_EQ(rng.zipf(1, 1.2), 0u);
    EXPECT_EQ(rng.zipf(0, 1.2), 0u);
}
