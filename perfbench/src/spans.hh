/**
 * @file
 * Host-time span recorder and heap-allocation counter of the
 * benchmark's traced run.
 *
 * Spans are recorded only from the benchmark's own code, around calls
 * into the simulator's public functions: a span has a name, a start
 * and end (steady_clock, ns since the recorder was created), the span
 * that was open when it started (its parent) and the sub-run it
 * belongs to. They stay in memory and are written out once, when the
 * run ends.
 *
 * The allocation counter hooks the global operator new of the
 * benchmark binary. It counts only between AllocCount construction
 * and destruction; outside such a scope (and in every timed run) the
 * hook is a plain malloc behind one relaxed atomic load.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = -1;  ///< -1 while open
    int parent = -1;          ///< index into spans(), -1 = root
    int subRun = 0;
};

class SpanRecorder
{
  public:
    SpanRecorder();

    /** Open a span under the innermost open one. @return its index. */
    int open(const std::string &name, int sub_run);

    /** Close span @p index, which must be the innermost open one. */
    void close(int index);

    /** Summed duration of every span called @p name, ms. */
    double totalMs(const std::string &name) const;

    /** Summed duration of spans called @p name in sub-run @p sub, ms. */
    double totalMs(const std::string &name, int sub) const;

    /** Every span plus a per-name {count, total_ms, self_ms} summary;
     * a span's self time is its duration minus the time its children
     * cover. */
    std::string json() const;

  private:
    std::int64_t nowNs() const;
    std::int64_t selfNs(size_t index) const;

    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::vector<std::vector<int>> children_;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const std::string &name, int sub_run)
        : rec_(rec), index_(rec.open(name, sub_run))
    {}
    ~ScopedSpan() { rec_.close(index_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
    int index_;
};

/** Counts operator new calls made (by any thread) while it lives.
 * Scopes do not nest. */
class AllocCount
{
  public:
    AllocCount();
    ~AllocCount();
    AllocCount(const AllocCount &) = delete;
    AllocCount &operator=(const AllocCount &) = delete;

    /** Allocations since construction. */
    std::uint64_t count() const;

  private:
    std::uint64_t base_;
};

/** Monotonic seconds, for the timed loop. */
double nowSeconds();

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
