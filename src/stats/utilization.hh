/**
 * @file
 * Time-weighted busy-resource integrators.
 *
 * The paper quantifies ME/VE utilization as the fraction of core cycles
 * the engines are busy (Figs. 5, 22, 27). A UtilizationTracker integrates
 * "busy units x time" for a pool of @c capacity units whose busy count
 * changes at scheduling events, yielding exact utilization since time 0
 * without per-cycle sampling. Like a hardware performance counter it
 * integrates in place, in O(1) memory; the busy-count series behind the
 * "over time" figures (Fig. 5) is kept only when asked for.
 */

#ifndef NEU10_STATS_UTILIZATION_HH
#define NEU10_STATS_UTILIZATION_HH

#include "common/types.hh"
#include "stats/timeseries.hh"

namespace neu10
{

/** Integrates busy-unit-cycles for a pool of identical resources. */
class UtilizationTracker
{
  public:
    /**
     * @param capacity total number of units in the pool (e.g. 4 MEs).
     */
    explicit UtilizationTracker(double capacity = 1.0);

    double capacity() const { return capacity_; }

    /**
     * Also record every busy-count change as a TimeSeries point
     * (series()). Off by default. Must be set before the first update.
     */
    void setCaptureSeries(bool on);

    /**
     * Report that from @p time onwards @p busy units are in use.
     * Times must be non-decreasing; floating-point dust below zero is
     * clamped to zero.
     */
    void setBusy(Cycles time, double busy);

    /** Busy units currently in use. */
    double busy() const { return busy_; }

    /** Integrated busy-unit-cycles in [0, time]; @p time must not
     * precede the last update. */
    double busyIntegral(Cycles time) const;

    /**
     * Utilization over [0, t1]: integral of busy units divided by
     * capacity x t1. Returns 0 for an empty window. Bit-identical to
     * series().average(0, t1) / capacity(); other windows go through
     * the captured series.
     */
    double utilization(Cycles t1) const;

    /** The busy-count series (for "over time" figures). Only a
     * tracker that captures it (setCaptureSeries) may be asked. */
    const TimeSeries &series() const;

    void reset();

  private:
    double capacity_;
    double busy_ = 0.0;       ///< value of the open segment
    Cycles since_ = 0.0;      ///< start of the open segment
    Cycles lastTime_ = 0.0;   ///< time of the last update
    double closed_ = 0.0;     ///< busy x length over closed segments
    bool updated_ = false;
    bool capture_ = false;
    TimeSeries series_;
};

} // namespace neu10

#endif // NEU10_STATS_UTILIZATION_HH
