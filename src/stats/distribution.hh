/**
 * @file
 * Sample distribution with exact quantiles.
 *
 * Latency studies in the paper report 95th-percentile tail latency
 * (Fig. 19); with closed-loop request streams the sample counts are small
 * enough (thousands) that exact order statistics are affordable, so no
 * sketching is used. Samples are kept in insertion order and never
 * sorted; quantiles are exact order statistics found by selection.
 */

#ifndef NEU10_STATS_DISTRIBUTION_HH
#define NEU10_STATS_DISTRIBUTION_HH

#include <array>
#include <cstddef>
#include <span>
#include <vector>

namespace neu10
{

/**
 * A set of scalar samples with mean/min/max/percentile queries.
 *
 * Order statistics are exact and found by selection: one query copies
 * the samples into scratch space, and std::nth_element places each
 * requested rank, O(n) on average. Nothing is cached between queries,
 * so the distribution holds only its samples, and adding or merging
 * samples invalidates nothing. min() and max() are linear scans.
 */
class Distribution
{
  public:
    /** Record one sample. */
    void add(double value);

    /** Number of recorded samples. */
    size_t count() const { return samples_.size(); }

    /** True if no samples were recorded. */
    bool empty() const { return samples_.empty(); }

    /** Arithmetic mean; 0 when empty. */
    double mean() const;

    /** Smallest sample; 0 when empty. */
    double min() const;

    /** Largest sample; 0 when empty. */
    double max() const;

    /** Sum of all samples. */
    double sum() const { return sum_; }

    /**
     * Exact p-quantile by linear interpolation between order statistics.
     * Defined on every distribution: 0 when empty, the sample itself
     * when only one was recorded (no out-of-range reads either way).
     * @param p quantile in [0, 1], e.g. 0.95 for the p95 tail.
     */
    double percentile(double p) const;

    /**
     * Several exact quantiles from one scratch copy: element i is
     * percentile(ps[i]), bit for bit. Each selection after the first
     * partitions only the ranks above the previous one.
     * @param ps quantiles in [0, 1], in non-decreasing order.
     */
    template <std::size_t N>
    std::array<double, N>
    percentiles(const double (&ps)[N]) const
    {
        std::array<double, N> out{};
        selectQuantiles(ps, out);
        return out;
    }

    /** Standard deviation (population); 0 when fewer than 2 samples. */
    double stddev() const;

    /**
     * Absorb every sample of @p other (fleet-wide aggregation: merge
     * per-core latency distributions into one cluster distribution).
     * Merging an empty distribution is a no-op; self-merge doubles
     * every sample.
     */
    void merge(const Distribution &other);

    /** Drop all samples. */
    void reset();

    /** Read-only access to raw samples (unsorted insertion order). */
    const std::vector<double> &samples() const { return samples_; }

  private:
    void selectQuantiles(std::span<const double> ps,
                         std::span<double> out) const;

    std::vector<double> samples_;
    double sum_ = 0.0;
};

} // namespace neu10

#endif // NEU10_STATS_DISTRIBUTION_HH
