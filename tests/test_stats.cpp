/**
 * @file
 * Unit tests for src/stats: distributions and exact percentiles,
 * piecewise-constant time series, utilization integrators.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "stats/distribution.hh"
#include "stats/timeseries.hh"
#include "stats/utilization.hh"

namespace neu10
{
namespace
{

TEST(Distribution, EmptyIsSafe)
{
    Distribution d;
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.percentile(0.95), 0.0);
    EXPECT_EQ(d.stddev(), 0.0);
}

TEST(Distribution, BasicMoments)
{
    Distribution d;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        d.add(v);
    EXPECT_DOUBLE_EQ(d.mean(), 2.5);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 4.0);
    EXPECT_DOUBLE_EQ(d.sum(), 10.0);
}

TEST(Distribution, PercentilesInterpolate)
{
    Distribution d;
    for (int i = 1; i <= 100; ++i)
        d.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 100.0);
    // p50 over 1..100 with linear interpolation: 50.5.
    EXPECT_NEAR(d.percentile(0.5), 50.5, 1e-9);
    EXPECT_NEAR(d.percentile(0.95), 95.05, 1e-9);
}

TEST(Distribution, PercentileSingleSample)
{
    Distribution d;
    d.add(7.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 7.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.99), 7.0);
}

TEST(Distribution, PercentileRejectsBadQuantile)
{
    setLogLevel(LogLevel::Silent);
    Distribution d;
    d.add(1.0);
    EXPECT_THROW(d.percentile(-0.1), PanicError);
    EXPECT_THROW(d.percentile(1.1), PanicError);
    setLogLevel(LogLevel::Warn);
}

TEST(Distribution, AddAfterQueryResorts)
{
    // Queries keep no state: each one reads the samples as they are
    // now, so an add after a query shows in the next min/max.
    Distribution d;
    d.add(10.0);
    EXPECT_DOUBLE_EQ(d.max(), 10.0);
    d.add(20.0);
    EXPECT_DOUBLE_EQ(d.max(), 20.0);
    d.add(5.0);
    EXPECT_DOUBLE_EQ(d.min(), 5.0);
}

TEST(Distribution, StddevKnownValue)
{
    Distribution d;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.add(v);
    EXPECT_NEAR(d.stddev(), 2.0, 1e-12);
}

TEST(Distribution, ResetClearsEverything)
{
    Distribution d;
    d.add(1.0);
    d.reset();
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(d.sum(), 0.0);
}

TEST(Distribution, MergeAbsorbsOtherSamples)
{
    Distribution a, b;
    for (double v : {1.0, 3.0})
        a.add(v);
    for (double v : {2.0, 4.0, 6.0})
        b.add(v);
    a.merge(b);
    EXPECT_EQ(a.count(), 5u);
    EXPECT_DOUBLE_EQ(a.sum(), 16.0);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 6.0);
    EXPECT_DOUBLE_EQ(a.percentile(0.5), 3.0);
    // The source is untouched; merging an empty set is a no-op.
    EXPECT_EQ(b.count(), 3u);
    a.merge(Distribution{});
    EXPECT_EQ(a.count(), 5u);
}

TEST(Distribution, MergeEmptyIntoEmpty)
{
    Distribution a, b;
    a.merge(b);
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.sum(), 0.0);
    EXPECT_EQ(a.percentile(0.99), 0.0);
    EXPECT_EQ(a.stddev(), 0.0);
}

TEST(Distribution, MergeSingleSampleEdges)
{
    // empty <- single: the merged set IS the single sample.
    Distribution single;
    single.add(7.0);
    Distribution into;
    into.merge(single);
    EXPECT_EQ(into.count(), 1u);
    EXPECT_DOUBLE_EQ(into.mean(), 7.0);
    EXPECT_DOUBLE_EQ(into.percentile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(into.percentile(0.5), 7.0);
    EXPECT_DOUBLE_EQ(into.percentile(1.0), 7.0);
    EXPECT_DOUBLE_EQ(into.stddev(), 0.0);

    // single <- empty leaves it alone.
    into.merge(Distribution{});
    EXPECT_EQ(into.count(), 1u);

    // single <- single interpolates percentiles over both.
    Distribution other;
    other.add(9.0);
    into.merge(other);
    EXPECT_EQ(into.count(), 2u);
    EXPECT_DOUBLE_EQ(into.min(), 7.0);
    EXPECT_DOUBLE_EQ(into.max(), 9.0);
    EXPECT_DOUBLE_EQ(into.percentile(0.5), 8.0);
}

TEST(Distribution, MergeSelfDoublesSamples)
{
    // d.merge(d) used to append a range aliasing the reallocating
    // destination (undefined behavior / out-of-range reads). It must
    // simply double every sample.
    Distribution d;
    for (double v : {1.0, 2.0, 3.0})
        d.add(v);
    d.merge(d);
    EXPECT_EQ(d.count(), 6u);
    EXPECT_DOUBLE_EQ(d.sum(), 12.0);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 3.0);
    EXPECT_DOUBLE_EQ(d.mean(), 2.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 2.0);
}

TEST(Distribution, MergeEmptyRhsKeepsEverything)
{
    // Merging an empty distribution is a complete no-op: count, sum
    // and every order statistic are untouched (fleet aggregation
    // merges hundreds of empty per-epoch distributions).
    Distribution d;
    for (double v : {4.0, 1.0, 9.0})
        d.add(v);
    const double p50_before = d.percentile(0.5);
    Distribution empty;
    d.merge(empty);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.sum(), 14.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), p50_before);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
}

TEST(Distribution, MergeInvalidatesSortedCache)
{
    // Query first, then merge: nothing left over from the earlier
    // query may hide the merged samples from the next one.
    Distribution a;
    a.add(5.0);
    EXPECT_DOUBLE_EQ(a.percentile(0.5), 5.0);
    Distribution b;
    b.add(1.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.percentile(0.5), 3.0);
}

/**
 * Sort-and-interpolate, as Distribution answered percentiles before
 * it selected them: the oracle for selection. Sort a copy, then
 * interpolate between the order statistics around p * (n - 1).
 */
double
sortedPercentile(std::vector<double> s, double p)
{
    if (s.empty())
        return 0.0;
    std::sort(s.begin(), s.end());
    if (s.size() == 1)
        return s[0];
    const double pos = p * static_cast<double>(s.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, s.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return s[lo] * (1.0 - frac) + s[hi] * frac;
}

/** Bitwise double equality: selection must reproduce the oracle's
 * exact bits, not a nearby value. */
::testing::AssertionResult
sameBits(double got, double want)
{
    if (std::bit_cast<std::uint64_t>(got) ==
        std::bit_cast<std::uint64_t>(want))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << got << " != oracle " << want;
}

/** Every query of @p d against the oracle over @p samples. */
void
expectMatchesOracle(const Distribution &d,
                    const std::vector<double> &samples, Rng &rng)
{
    ASSERT_EQ(d.count(), samples.size());
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(sameBits(d.min(), sorted.empty() ? 0.0 : sorted.front()));
    EXPECT_TRUE(sameBits(d.max(), sorted.empty() ? 0.0 : sorted.back()));

    constexpr double kFixed[] = {0.0, 0.5, 0.95, 0.99, 1.0};
    std::vector<double> ps(std::begin(kFixed), std::end(kFixed));
    for (int i = 0; i < 8; ++i)
        ps.push_back(rng.uniform());
    for (double p : ps)
        EXPECT_TRUE(sameBits(d.percentile(p), sortedPercentile(samples, p)))
            << "p = " << p;

    // Batched: the fixed set, then sorted random quantiles with a
    // repeated one (two queries on the same rank).
    const auto fixed = d.percentiles(kFixed);
    for (size_t i = 0; i < fixed.size(); ++i)
        EXPECT_TRUE(
            sameBits(fixed[i], sortedPercentile(samples, kFixed[i])))
            << "batched p = " << kFixed[i];
    double rp[4] = {rng.uniform(), rng.uniform(), rng.uniform(), 0.0};
    std::sort(rp, rp + 3);
    rp[3] = rp[2];
    const auto random = d.percentiles(rp);
    for (size_t i = 0; i < random.size(); ++i)
        EXPECT_TRUE(sameBits(random[i], sortedPercentile(samples, rp[i])))
            << "batched p = " << rp[i];

    // Queries select on a scratch copy: the samples keep insertion
    // order.
    EXPECT_EQ(d.samples(), samples);
}

TEST(Distribution, SelectionMatchesSortOracle)
{
    Rng rng(0x5e1ec7ull);
    std::vector<std::vector<double>> sets;
    // Seeded sets of 0..2000 samples: few distinct values (heavy
    // duplicates) and a continuous spread, at fixed and random sizes.
    std::vector<size_t> sizes = {0, 1, 2, 3, 5, 64, 101, 1000, 2000};
    for (int i = 0; i < 6; ++i)
        sizes.push_back(rng.next() % 2001);
    for (size_t n : sizes) {
        std::vector<double> dup, spread;
        for (size_t i = 0; i < n; ++i) {
            dup.push_back(std::floor(rng.uniform(0.0, 6.0)) * 1.25);
            spread.push_back(rng.exponential(1e4));
        }
        sets.push_back(dup);
        sets.push_back(spread);
    }
    // All-equal, sorted and reverse-sorted runs.
    sets.emplace_back(257, 3.5);
    std::vector<double> ascending;
    for (int i = 0; i < 777; ++i)
        ascending.push_back(0.5 * (i / 3));
    sets.push_back(ascending);
    sets.emplace_back(ascending.rbegin(), ascending.rend());

    for (size_t k = 0; k < sets.size(); ++k) {
        SCOPED_TRACE(::testing::Message()
                     << "set " << k << " (" << sets[k].size()
                     << " samples)");
        Distribution d;
        for (double v : sets[k])
            d.add(v);
        expectMatchesOracle(d, sets[k], rng);

        // Merge with the next set; self-merge doubles every sample.
        const std::vector<double> &next = sets[(k + 1) % sets.size()];
        Distribution other;
        for (double v : next)
            other.add(v);
        std::vector<double> merged = sets[k];
        merged.insert(merged.end(), next.begin(), next.end());
        d.merge(other);
        expectMatchesOracle(d, merged, rng);
        std::vector<double> doubled = merged;
        doubled.insert(doubled.end(), merged.begin(), merged.end());
        d.merge(d);
        expectMatchesOracle(d, doubled, rng);

        d.reset();
        expectMatchesOracle(d, {}, rng);
        EXPECT_EQ(d.sum(), 0.0);
    }
}

TEST(TimeSeries, AverageOfPiecewiseConstant)
{
    TimeSeries ts;
    ts.record(0.0, 2.0);   // 2 on [0, 10)
    ts.record(10.0, 4.0);  // 4 on [10, 20)
    EXPECT_DOUBLE_EQ(ts.average(0.0, 20.0), 3.0);
    EXPECT_DOUBLE_EQ(ts.average(0.0, 10.0), 2.0);
    EXPECT_DOUBLE_EQ(ts.average(5.0, 15.0), 3.0);
}

TEST(TimeSeries, ValueBeforeFirstPointIsZero)
{
    TimeSeries ts;
    ts.record(10.0, 6.0);
    EXPECT_DOUBLE_EQ(ts.average(0.0, 20.0), 3.0);
}

TEST(TimeSeries, LastValueExtendsToQueryEnd)
{
    TimeSeries ts;
    ts.record(0.0, 5.0);
    EXPECT_DOUBLE_EQ(ts.average(0.0, 100.0), 5.0);
}

TEST(TimeSeries, DuplicateValueCollapsed)
{
    TimeSeries ts;
    ts.record(0.0, 1.0);
    ts.record(5.0, 1.0);
    ts.record(10.0, 2.0);
    EXPECT_EQ(ts.size(), 2u);
}

TEST(TimeSeries, OutOfOrderRecordPanics)
{
    setLogLevel(LogLevel::Silent);
    TimeSeries ts;
    ts.record(10.0, 1.0);
    EXPECT_THROW(ts.record(5.0, 2.0), PanicError);
    setLogLevel(LogLevel::Warn);
}

TEST(TimeSeries, RebinAverages)
{
    TimeSeries ts;
    ts.record(0.0, 0.0);
    ts.record(10.0, 10.0);
    auto bins = ts.rebin(0.0, 20.0, 2);
    ASSERT_EQ(bins.size(), 2u);
    EXPECT_DOUBLE_EQ(bins[0], 0.0);
    EXPECT_DOUBLE_EQ(bins[1], 10.0);
}

TEST(TimeSeries, PeakTracksMax)
{
    TimeSeries ts;
    ts.record(0.0, 1.0);
    ts.record(1.0, 9.0);
    ts.record(2.0, 3.0);
    EXPECT_DOUBLE_EQ(ts.peak(), 9.0);
}

TEST(Utilization, FullBusyIsOne)
{
    UtilizationTracker u(4.0);
    u.setBusy(0.0, 4.0);
    u.setBusy(100.0, 0.0);
    EXPECT_DOUBLE_EQ(u.utilization(0.0, 100.0), 1.0);
}

TEST(Utilization, HalfBusyIsHalf)
{
    UtilizationTracker u(4.0);
    u.setBusy(0.0, 2.0);
    u.setBusy(50.0, 2.0);
    EXPECT_DOUBLE_EQ(u.utilization(0.0, 100.0), 0.5);
}

TEST(Utilization, WindowedQuery)
{
    UtilizationTracker u(2.0);
    u.setBusy(0.0, 0.0);
    u.setBusy(10.0, 2.0);
    u.setBusy(20.0, 0.0);
    EXPECT_DOUBLE_EQ(u.utilization(0.0, 10.0), 0.0);
    EXPECT_DOUBLE_EQ(u.utilization(10.0, 20.0), 1.0);
    EXPECT_DOUBLE_EQ(u.utilization(0.0, 40.0), 0.25);
}

TEST(Utilization, BusyIntegralExtendsOpenInterval)
{
    UtilizationTracker u(1.0);
    u.setBusy(0.0, 1.0);
    EXPECT_DOUBLE_EQ(u.busyIntegral(10.0), 10.0);
}

TEST(Utilization, CapacityMustBePositive)
{
    setLogLevel(LogLevel::Silent);
    EXPECT_THROW(UtilizationTracker(-1.0), PanicError);
    EXPECT_THROW(UtilizationTracker(0.0), PanicError);
    setLogLevel(LogLevel::Warn);
}

TEST(Utilization, OutOfOrderUpdatePanics)
{
    setLogLevel(LogLevel::Silent);
    UtilizationTracker u(1.0);
    u.setBusy(10.0, 1.0);
    EXPECT_THROW(u.setBusy(5.0, 0.0), PanicError);
    setLogLevel(LogLevel::Warn);
}

TEST(Utilization, ResetRestartsIntegration)
{
    UtilizationTracker u(1.0);
    u.setBusy(0.0, 1.0);
    u.setBusy(10.0, 0.0);
    u.reset();
    EXPECT_DOUBLE_EQ(u.utilization(0.0, 10.0), 0.0);
}

} // anonymous namespace
} // namespace neu10
