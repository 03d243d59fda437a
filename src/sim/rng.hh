/**
 * @file
 * Deterministic random-number utilities.
 *
 * All stochastic pieces of the repository (matrix generators, fault
 * injection) draw from a seeded Rng so that runs are reproducible.
 */

#ifndef NETSPARSE_SIM_RNG_HH
#define NETSPARSE_SIM_RNG_HH

#include <cmath>
#include <cstdint>
#include <random>

namespace netsparse {

/**
 * splitmix64: a tiny, high-quality 64-bit mixing function.
 *
 * Used both for seeding and as the deterministic "property checksum"
 * carried by PR payloads for end-to-end data-path verification.
 */
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * MT19937-64: the exact stream of std::mt19937_64 (same seeding
 * recurrence, twist and tempering), with a branch-free twist.
 *
 * Generators seed one engine per matrix row, so every row pays a full
 * 312-word twist. libstdc++ picks the twist's matrix term with a branch
 * on the random bit y & 1, which mispredicts half the time; here the
 * term is the mask -(y & 1) & A, several times cheaper.
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    explicit Mt19937_64(std::uint64_t seed)
    {
        mt_[0] = seed;
        for (unsigned i = 1; i < kN; ++i)
            mt_[i] = 6364136223846793005ull *
                         (mt_[i - 1] ^ (mt_[i - 1] >> 62)) +
                     i;
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    result_type
    operator()()
    {
        if (idx_ == kN)
            twist();
        std::uint64_t z = mt_[idx_++];
        z ^= (z >> 29) & 0x5555555555555555ull;
        z ^= (z << 17) & 0x71d67fffeda60000ull;
        z ^= (z << 37) & 0xfff7eee000000000ull;
        return z ^ (z >> 43);
    }

  private:
    static constexpr unsigned kN = 312;
    static constexpr unsigned kM = 156;

    /** One twisted word from words i, i+1 and i+kM (mod kN). */
    static std::uint64_t
    twisted(std::uint64_t cur, std::uint64_t next, std::uint64_t far)
    {
        std::uint64_t y =
            (cur & 0xffffffff80000000ull) | (next & 0x7fffffffull);
        return far ^ (y >> 1) ^ (-(y & 1) & 0xb5026f5aa96619e9ull);
    }

    void
    twist()
    {
        for (unsigned i = 0; i < kN - kM; ++i)
            mt_[i] = twisted(mt_[i], mt_[i + 1], mt_[i + kM]);
        for (unsigned i = kN - kM; i < kN - 1; ++i)
            mt_[i] = twisted(mt_[i], mt_[i + 1], mt_[i + kM - kN]);
        mt_[kN - 1] = twisted(mt_[kN - 1], mt_[0], mt_[kM - 1]);
        idx_ = 0;
    }

    std::uint64_t mt_[kN];
    unsigned idx_ = kN;
};

/** Seedable MT19937-64 with convenience draws. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 1) : eng_(splitmix64(seed)) {}

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    uniformInt(std::uint64_t lo, std::uint64_t hi)
    {
        std::uniform_int_distribution<std::uint64_t> d(lo, hi);
        return d(eng_);
    }

    /** Uniform real in [0, 1). */
    double
    uniform()
    {
        std::uniform_real_distribution<double> d(0.0, 1.0);
        return d(eng_);
    }

    /** Geometric-ish positive integer with mean approximately @p mean. */
    std::uint64_t
    geometric(double mean)
    {
        if (mean <= 1.0)
            return 1;
        std::geometric_distribution<std::uint64_t> d(1.0 / mean);
        return d(eng_) + 1;
    }

    /**
     * Bounded Zipf-like draw in [0, n): index i is picked with probability
     * proportional to 1 / (i + 1)^alpha. Implemented by inverse-CDF over
     * a precomputed-free approximation (rejection on the continuous
     * bounded Pareto), which is accurate enough for workload synthesis.
     */
    std::uint64_t
    zipf(std::uint64_t n, double alpha)
    {
        if (n <= 1)
            return 0;
        // Inverse transform on the continuous bounded power law.
        double u = uniform();
        double nmax = static_cast<double>(n);
        double x;
        if (alpha == 1.0) {
            x = std::exp(u * std::log(nmax));
        } else {
            double a1 = 1.0 - alpha;
            x = std::pow(u * (std::pow(nmax, a1) - 1.0) + 1.0, 1.0 / a1);
        }
        auto idx = static_cast<std::uint64_t>(x - 1.0);
        return idx >= n ? n - 1 : idx;
    }

  private:
    Mt19937_64 eng_;
};

} // namespace netsparse

#endif // NETSPARSE_SIM_RNG_HH
