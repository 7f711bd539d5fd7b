#include "stats/distribution.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace neu10
{

void
Distribution::add(double value)
{
    samples_.push_back(value);
    sum_ += value;
}

double
Distribution::mean() const
{
    if (samples_.empty())
        return 0.0;
    return sum_ / static_cast<double>(samples_.size());
}

double
Distribution::min() const
{
    if (samples_.empty())
        return 0.0;
    return *std::min_element(samples_.begin(), samples_.end());
}

double
Distribution::max() const
{
    if (samples_.empty())
        return 0.0;
    return *std::max_element(samples_.begin(), samples_.end());
}

double
Distribution::percentile(double p) const
{
    return percentiles({p})[0];
}

void
Distribution::selectQuantiles(std::span<const double> ps,
                              std::span<double> out) const
{
    for (size_t i = 0; i < ps.size(); ++i) {
        NEU10_ASSERT(ps[i] >= 0.0 && ps[i] <= 1.0,
                     "quantile must be in [0,1]");
        NEU10_ASSERT(i == 0 || ps[i] >= ps[i - 1],
                     "quantiles must be non-decreasing");
    }
    if (samples_.size() <= 1) {
        std::fill(out.begin(), out.end(),
                  samples_.empty() ? 0.0 : samples_[0]);
        return;
    }
    // Ranks [base, n) of the scratch copy hold exactly the order
    // statistics base..n-1, unordered. Selecting rank lo leaves the
    // larger ones above it, so the next order statistic is their
    // minimum, and the next (higher) query partitions only those.
    std::vector<double> s = samples_;
    const size_t n = s.size();
    const auto at = [&s](size_t rank) {
        return s.begin() + static_cast<std::ptrdiff_t>(rank);
    };
    size_t base = 0;
    size_t lo_rank = n; // no rank selected yet
    double lo_val = 0.0;
    double hi_val = 0.0;
    for (size_t i = 0; i < ps.size(); ++i) {
        const double pos = ps[i] * static_cast<double>(n - 1);
        const size_t lo = static_cast<size_t>(pos);
        const double frac = pos - static_cast<double>(lo);
        if (lo != lo_rank) {
            std::nth_element(at(base), at(lo), s.end());
            lo_val = s[lo];
            hi_val = lo + 1 < n ? *std::min_element(at(lo + 1), s.end())
                                : lo_val;
            lo_rank = lo;
            base = lo + 1;
        }
        out[i] = lo_val * (1.0 - frac) + hi_val * frac;
    }
}

double
Distribution::stddev() const
{
    if (samples_.size() < 2)
        return 0.0;
    const double m = mean();
    double acc = 0.0;
    for (double s : samples_)
        acc += (s - m) * (s - m);
    return std::sqrt(acc / static_cast<double>(samples_.size()));
}

void
Distribution::merge(const Distribution &other)
{
    // An empty rhs is a true no-op (fleet aggregation merges hundreds
    // of empty per-epoch distributions).
    if (other.samples_.empty())
        return;
    if (&other == this) {
        // Self-merge doubles every sample. Appending a range that
        // aliases the destination while it reallocates is undefined,
        // so stage a copy first.
        const std::vector<double> copy = samples_;
        samples_.insert(samples_.end(), copy.begin(), copy.end());
        sum_ += sum_;
        return;
    }
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sum_ += other.sum_;
}

void
Distribution::reset()
{
    samples_.clear();
    sum_ = 0.0;
}

} // namespace neu10
