#include "obs/metrics.hh"

#include "common/logging.hh"
#include "common/strings.hh"

namespace neu10
{

MetricId
MetricsRegistry::registerMetric(const std::string &name,
                                MetricKind kind)
{
    for (MetricId i = 0; i < metrics_.size(); ++i) {
        if (metrics_[i].name == name) {
            NEU10_ASSERT(metrics_[i].kind == kind,
                         "metric '%s' re-registered with a different "
                         "kind", name.c_str());
            return i;
        }
    }
    Metric m;
    m.name = name;
    m.kind = kind;
    metrics_.push_back(std::move(m));
    return static_cast<MetricId>(metrics_.size() - 1);
}

MetricId
MetricsRegistry::counter(const std::string &name)
{
    return registerMetric(name, MetricKind::Counter);
}

MetricId
MetricsRegistry::gauge(const std::string &name)
{
    return registerMetric(name, MetricKind::Gauge);
}

MetricId
MetricsRegistry::histogram(const std::string &name)
{
    return registerMetric(name, MetricKind::Histogram);
}

void
MetricsRegistry::add(MetricId id, double delta)
{
    if (!enabled_)
        return;
    metrics_[id].value += delta;
}

void
MetricsRegistry::set(MetricId id, double value)
{
    if (!enabled_)
        return;
    metrics_[id].value = value;
}

void
MetricsRegistry::observe(MetricId id, double value)
{
    if (!enabled_)
        return;
    metrics_[id].dist.add(value);
}

void
MetricsRegistry::sample(Cycles now)
{
    if (!enabled_)
        return;
    for (Metric &m : metrics_) {
        const double v = m.kind == MetricKind::Histogram
                             ? static_cast<double>(m.dist.count())
                             : m.value;
        m.series.record(now, v);
    }
}

double
MetricsRegistry::value(MetricId id) const
{
    const Metric &m = metrics_[id];
    return m.kind == MetricKind::Histogram
               ? static_cast<double>(m.dist.count())
               : m.value;
}

const Metric *
MetricsRegistry::find(const std::string &name) const
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            return &m;
    return nullptr;
}

namespace
{

const char *
kindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
      case MetricKind::Histogram:
        return "histogram";
    }
    return "unknown";
}

} // anonymous namespace

std::string
MetricsRegistry::json(double freqHz) const
{
    std::string out;
    out += "{\n";
    out += "\"schema\": \"neu10-metrics-v1\",\n";
    out += csprintf("\"freq_hz\": %.0f,\n", freqHz);
    out += "\"metrics\": [\n";
    // Registration order: deterministic (registration happens on the
    // serial fleet path) and meaningful to a reader, unlike any
    // hash order.
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        out += csprintf("{\"name\":\"%s\",\"kind\":\"%s\"",
                        m.name.c_str(), kindName(m.kind));
        if (m.kind == MetricKind::Histogram) {
            const auto [p50, p95, p99] =
                m.dist.percentiles({0.50, 0.95, 0.99});
            out += csprintf(
                ",\"count\":%zu,\"mean\":%.9g,\"p50\":%.9g,"
                "\"p95\":%.9g,\"p99\":%.9g",
                m.dist.count(), m.dist.mean(), p50, p95, p99);
        }
        out += ",\"points\":[";
        const std::vector<TimePoint> &pts = m.series.points();
        for (size_t p = 0; p < pts.size(); ++p) {
            if (p > 0)
                out += ",";
            out += csprintf("[%.9g,%.9g]", pts[p].time,
                            pts[p].value);
        }
        out += "]}";
        out += i + 1 < metrics_.size() ? ",\n" : "\n";
    }
    out += "]}\n";
    return out;
}

bool
MetricsRegistry::writeJson(const std::string &path,
                           double freqHz) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::string body = json(freqHz);
    const bool written =
        std::fwrite(body.data(), 1, body.size(), f) == body.size();
    return std::fclose(f) == 0 && written;
}

} // namespace neu10
