#include "stats/utilization.hh"

#include "common/logging.hh"

namespace neu10
{

UtilizationTracker::UtilizationTracker(double capacity)
    : capacity_(capacity)
{
    NEU10_ASSERT(capacity > 0.0, "capacity must be positive");
}

void
UtilizationTracker::setCaptureSeries(bool on)
{
    NEU10_ASSERT(!updated_, "series capture must be set before the "
                            "first update");
    capture_ = on;
}

void
UtilizationTracker::setBusy(Cycles time, double busy)
{
    NEU10_ASSERT(time >= lastTime_, "utilization updates must be ordered");
    NEU10_ASSERT(busy >= -1e-9, "busy count cannot be negative");
    lastTime_ = time;
    updated_ = true;
    const double value = busy < 0.0 ? 0.0 : busy;
    if (capture_)
        series_.record(time, value);
    // Sum the way TimeSeries::average(0, t) does over the series:
    // a repeated value extends the open segment (record() collapses
    // it), and a segment adds value x length only when its length is
    // positive. Before the first update the pool is idle since 0,
    // which adds exactly nothing, like the series' empty prefix.
    // neu10-lint: allow(float-eq): the collapse must match
    // TimeSeries::record's exact test for the sums to be bit-identical.
    if (value == busy_)
        return;
    if (time > since_)
        closed_ += busy_ * (time - since_);
    busy_ = value;
    since_ = time;
}

double
UtilizationTracker::busyIntegral(Cycles time) const
{
    NEU10_ASSERT(time >= lastTime_,
                 "busy integral at %g precedes the last update at %g",
                 time, lastTime_);
    double integral = closed_;
    if (time > since_)
        integral += busy_ * (time - since_);
    return integral;
}

double
UtilizationTracker::utilization(Cycles t1) const
{
    const double integral = busyIntegral(t1);
    return t1 > 0.0 ? integral / t1 / capacity_ : 0.0;
}

const TimeSeries &
UtilizationTracker::series() const
{
    NEU10_ASSERT(capture_, "busy-count series read from a tracker that "
                           "does not capture it");
    return series_;
}

void
UtilizationTracker::reset()
{
    busy_ = 0.0;
    since_ = 0.0;
    lastTime_ = 0.0;
    closed_ = 0.0;
    updated_ = false;
    series_.reset();
}

} // namespace neu10
