/**
 * @file
 * Metrics registry: counters, gauges and histograms sampled at epoch
 * boundaries into time-series (stats/timeseries), exported as
 * machine-readable JSON next to the trace (a schema-versioned record
 * tools can diff).
 *
 * The registry follows the trace subsystem's determinism and
 * zero-overhead-off rules (obs/trace.hh): a disabled registry's
 * mutators cost one branch on a cached flag; recording and sampling
 * happen on the fleet's serial aggregation thread in deterministic
 * order; and the export walks metrics in registration order — never
 * a hash order — so identical runs produce byte-identical files.
 *
 * Schema: docs/OBSERVABILITY.md ("neu10-metrics-v1").
 */

#ifndef NEU10_OBS_METRICS_HH
#define NEU10_OBS_METRICS_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/types.hh"
#include "stats/distribution.hh"
#include "stats/timeseries.hh"

namespace neu10
{

/** Metric families (see file doc). */
enum class MetricKind
{
    Counter = 0, ///< monotone accumulator (completions, failures)
    Gauge,       ///< last-write-wins level (backlog, imbalance)
    Histogram,   ///< sample distribution + per-sample count series
};

/** Stable handle returned by registration; cheap to copy. */
using MetricId = std::uint32_t;

/** One registered metric and its sampled history. */
struct Metric
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    double value = 0.0;     ///< current counter/gauge level
    Distribution dist;      ///< histogram samples
    TimeSeries series;      ///< value (or sample count) per sample()
};

/**
 * Registry of named metrics. Register once up front, mutate through
 * the ids, call sample() at each epoch boundary, export at the end.
 * Single-writer like TraceBuffer: the fleet mutates it only from the
 * serial aggregation path.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    explicit MetricsRegistry(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    void enable(bool on) { enabled_ = on; }

    /** Register (or look up, by exact name) a metric. Disabled
     * registries still register — ids must be valid either way so
     * call sites stay branch-free at registration time. */
    MetricId counter(const std::string &name);
    MetricId gauge(const std::string &name);
    MetricId histogram(const std::string &name);

    /** Counter increment (no-op when disabled). */
    void add(MetricId id, double delta);

    /** Gauge level set (no-op when disabled). */
    void set(MetricId id, double value);

    /** Histogram observation (no-op when disabled). */
    void observe(MetricId id, double value);

    /** Snapshot every metric's current value (histograms: their
     * sample count) into its time-series at @p now. */
    void sample(Cycles now);

    /** Current counter/gauge level (histograms: sample count). */
    double value(MetricId id) const;

    const std::vector<Metric> &metrics() const { return metrics_; }

    /** Find by name; nullptr when absent (tests, tooling). */
    const Metric *find(const std::string &name) const;

    bool empty() const { return metrics_.empty(); }

    /** Render as "neu10-metrics-v1" JSON (deterministic bytes). */
    std::string json(double freqHz) const;

    /** Write json() to @p path. @return false on I/O error. */
    bool writeJson(const std::string &path, double freqHz) const;

  private:
    MetricId registerMetric(const std::string &name, MetricKind kind);

    bool enabled_ = false;
    std::vector<Metric> metrics_;
};

} // namespace neu10

#endif // NEU10_OBS_METRICS_HH
