/**
 * @file
 * Lightweight statistics package (averages, histograms) with a named
 * registry of scalars, in the spirit of the gem5/SST stats packages.
 */

#ifndef NETSPARSE_SIM_STATS_HH
#define NETSPARSE_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace netsparse {

/** Accumulates samples; reports count / sum / mean / min / max. */
class Average
{
  public:
    void
    sample(double v)
    {
        ++count_;
        sum_ += v;
        if (count_ == 1 || v < min_)
            min_ = v;
        if (count_ == 1 || v > max_)
            max_ = v;
    }

    /**
     * Fold @p count samples known only in aggregate: their @p sum and
     * extrema. Produces bit-identical state to count individual
     * sample() calls whenever the values are integers below 2^53
     * (every tick statistic is), because each partial sum is then an
     * exactly-representable double either way.
     */
    void
    sampleBatch(std::uint64_t count, double sum, double lo, double hi)
    {
        if (count == 0)
            return;
        if (count_ == 0 || lo < min_)
            min_ = lo;
        if (count_ == 0 || hi > max_)
            max_ = hi;
        count_ += count;
        sum_ += sum;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    void reset() { *this = Average(); }

    /** Fold another accumulation into this one (exact). */
    void
    merge(const Average &o)
    {
        if (o.count_ == 0)
            return;
        if (count_ == 0) {
            *this = o;
            return;
        }
        count_ += o.count_;
        sum_ += o.sum_;
        min_ = o.min_ < min_ ? o.min_ : min_;
        max_ = o.max_ > max_ ? o.max_ : max_;
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Fixed-bucket linear histogram over [lo, hi) with under/overflow bins. */
class Histogram
{
  public:
    /**
     * Degenerate geometries are repaired rather than trusted: zero
     * buckets would divide by zero in percentile() (and underflow the
     * bucket index in sample()), and hi <= lo would make every bucket
     * width negative - both become a single bucket of width >= 1.
     */
    Histogram(double lo, double hi, std::size_t buckets)
        : lo_(lo), hi_(hi < lo + 1.0 ? lo + 1.0 : hi),
          counts_((buckets < 1 ? 1 : buckets) + 2, 0)
    {}

    void sample(double v);

    /**
     * The value at percentile @p p (0..100), by linear interpolation
     * inside the owning bucket. Samples in the underflow bin resolve
     * to lo() and samples in the overflow bin to hi() - the histogram
     * has no edge information beyond its range. An empty histogram
     * returns 0.
     */
    double percentile(double p) const;

    /** Fold another histogram in; geometries must match exactly. */
    void merge(const Histogram &o);

    /** Count in bucket @p i; bucket 0 is underflow, last is overflow. */
    std::uint64_t bucket(std::size_t i) const { return counts_[i]; }
    std::size_t numBuckets() const { return counts_.size(); }
    std::uint64_t totalSamples() const { return total_; }

    double lo() const { return lo_; }
    double hi() const { return hi_; }

  private:
    double lo_, hi_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/**
 * A registry of named statistics.
 *
 * Components register values under hierarchical dotted names
 * (e.g. "node3.snic.rig0.prsIssued"), kept sorted by name. Besides
 * scalars the registry holds snapshots of Average and Histogram
 * statistics, which keep their structure (count/sum/min/max, bucket
 * counts) through the JSON export (see sim/stats_export.hh).
 * The naming contract for everything the simulator exports lives in
 * docs/observability.md.
 */
class StatRegistry
{
  public:
    /** Set (or overwrite) a named scalar. */
    void set(const std::string &name, double value);

    /** Add to a named scalar (creating it at zero). */
    void add(const std::string &name, double value);

    /** Fetch a scalar; returns 0 when absent. */
    double get(const std::string &name) const;

    /** True when the name exists (any type). */
    bool has(const std::string &name) const;

    /** Store a snapshot of an Average under @p name. */
    void setAverage(const std::string &name, const Average &avg);

    /** Store a snapshot of a Histogram under @p name. */
    void setHistogram(const std::string &name, const Histogram &hist);

    const std::map<std::string, double> &all() const { return values_; }
    const std::map<std::string, Average> &averages() const
    {
        return averages_;
    }
    const std::map<std::string, Histogram> &histograms() const
    {
        return histograms_;
    }

  private:
    std::map<std::string, double> values_;
    std::map<std::string, Average> averages_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace netsparse

#endif // NETSPARSE_SIM_STATS_HH
