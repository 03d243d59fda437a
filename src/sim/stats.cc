#include "sim/stats.hh"

namespace netsparse {

void
Histogram::sample(double v)
{
    ++total_;
    if (v < lo_) {
        ++counts_.front();
        return;
    }
    if (v >= hi_) {
        ++counts_.back();
        return;
    }
    std::size_t inner = counts_.size() - 2;
    auto idx = static_cast<std::size_t>((v - lo_) / (hi_ - lo_) * inner);
    if (idx >= inner)
        idx = inner - 1;
    ++counts_[idx + 1];
}

double
Histogram::percentile(double p) const
{
    if (total_ == 0)
        return 0.0;
    if (p < 0.0)
        p = 0.0;
    if (p > 100.0)
        p = 100.0;
    // The rank of the requested sample, 1-based: p=0 targets the first
    // sample, p=100 the last. Walk the cumulative counts to the bucket
    // that holds it, then interpolate within the bucket.
    double rank = p / 100.0 * static_cast<double>(total_);
    if (rank < 1.0)
        rank = 1.0;
    std::uint64_t cum = 0;
    std::size_t inner = counts_.size() - 2;
    double width = (hi_ - lo_) / static_cast<double>(inner);
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        double before = static_cast<double>(cum);
        cum += counts_[i];
        if (static_cast<double>(cum) < rank)
            continue;
        if (i == 0)
            return lo_; // underflow: all we know is "below lo".
        if (i + 1 == counts_.size())
            return hi_; // overflow: all we know is "at or above hi".
        double left = lo_ + static_cast<double>(i - 1) * width;
        double frac = (rank - before) / static_cast<double>(counts_[i]);
        return left + frac * width;
    }
    return hi_; // unreachable: total_ > 0 guarantees the walk lands.
}

void
Histogram::merge(const Histogram &o)
{
    if (o.lo_ != lo_ || o.hi_ != hi_ ||
        o.counts_.size() != counts_.size())
        return; // incompatible geometry: nothing sensible to fold.
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += o.counts_[i];
    total_ += o.total_;
}

void
StatRegistry::set(const std::string &name, double value)
{
    values_[name] = value;
}

void
StatRegistry::add(const std::string &name, double value)
{
    values_[name] += value;
}

double
StatRegistry::get(const std::string &name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

bool
StatRegistry::has(const std::string &name) const
{
    return values_.count(name) != 0 || averages_.count(name) != 0 ||
           histograms_.count(name) != 0;
}

void
StatRegistry::setAverage(const std::string &name, const Average &avg)
{
    averages_.insert_or_assign(name, avg);
}

void
StatRegistry::setHistogram(const std::string &name, const Histogram &hist)
{
    histograms_.insert_or_assign(name, hist);
}

} // namespace netsparse
