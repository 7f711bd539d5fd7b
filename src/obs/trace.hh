/**
 * @file
 * Sim-time event tracing with Chrome trace-event export.
 *
 * The fleet's determinism contract (bit-identical results at any
 * FleetConfig::threads width) extends to traces: every event carries
 * *simulated* time, recording happens in the deterministic event
 * order of the owning per-core simulation, and per-core buffers
 * merge at epoch boundaries keyed by core index — the same scheme
 * EpochRunCollector uses for results. Two identical configs
 * therefore yield byte-identical trace files regardless of host
 * threading (enforced by tests/test_obs.cpp).
 *
 * Recording is lock-free in the hot path by construction, not by
 * atomics: a TraceBuffer has exactly one writer (the thread driving
 * its core's simulation), and ownership is handed to the aggregation
 * thread with the ServingResult it rides in. Disabled tracing costs
 * one branch on a cached pointer/flag at every instrumentation site.
 * perfbench's `sim_req_per_s` (perfbench/README.md) is measured with
 * tracing off on fleet_dc, llm_serve and paper_pairs, so a change
 * that taxes the off path shows up there; on fleet_churn it includes
 * recording the trace and rendering it with chromeJson().
 *
 * Export is the Chrome trace-event JSON array format understood by
 * chrome://tracing and https://ui.perfetto.dev: one process per
 * board (pid = board index), one thread per core (tid = fleet-wide
 * core index), plus a synthetic "controller" process for fleet-level
 * events (epochs, placement, rebalance, failover). Request lifecycle
 * spans use async nestable 'b'/'e' pairs — a core serves overlapping
 * requests, which duration ('X') events cannot represent — while
 * engine fast-forward jumps and epoch windows, which never overlap
 * on their track, are plain 'X' spans. tools/check_trace.py
 * validates schema, per-track monotonicity and span nesting.
 *
 * Event taxonomy and schema details: docs/OBSERVABILITY.md.
 */

#ifndef NEU10_OBS_TRACE_HH
#define NEU10_OBS_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"

namespace neu10
{

/** Tracing knobs, threaded through ServingConfig / FleetConfig. */
struct TraceConfig
{
    /** Master switch. Off (the default) must cost nothing beyond a
     * predictable branch at each instrumentation site. */
    bool enabled = false;

    /** Also record one span per engine fast-forward jump
     * (NpuCoreSim::advanceTo). High volume — one event per
     * scheduling event — so benches keep it off unless asked;
     * the trace determinism tests and perfbench's traced replay
     * turn it on. */
    bool engineEvents = false;

    /** Sample fleet metrics (obs/metrics.hh) at epoch boundaries
     * into FleetResult::metrics. */
    bool metrics = false;
};

/** One typed event argument (numeric: counts, ids, cycles). */
struct TraceArg
{
    const char *key = "";
    double value = 0.0;
};

/** Maximum args per event (fixed so recording never allocates). */
inline constexpr int kTraceMaxArgs = 3;

/**
 * One recorded event. `name`/`cat` must be string literals (the
 * taxonomy in docs/OBSERVABILITY.md): events store the pointers and
 * outlive every recording scope.
 */
struct TraceEvent
{
    Cycles at = 0.0;        ///< start, cycles (buffer-relative)
    Cycles dur = 0.0;       ///< span length; 0 for instants
    std::uint64_t id = 0;   ///< async-span id ('b' phase only)
    char phase = 'i';       ///< 'X' span, 'i' instant, 'b' async span
    const char *name = "";
    const char *cat = "";
    int nargs = 0;
    TraceArg args[kTraceMaxArgs] = {};
};

/**
 * Per-core event recorder: single writer, no locks, append-only.
 * A disabled buffer drops everything; callers on hot paths should
 * still branch on enabled() (or a cached pointer) themselves so the
 * argument evaluation is skipped too.
 */
class TraceBuffer
{
  public:
    TraceBuffer() = default;
    explicit TraceBuffer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    void enable(bool on) { enabled_ = on; }

    /** Point event at @p at. */
    void instant(Cycles at, const char *cat, const char *name);
    void instant(Cycles at, const char *cat, const char *name,
                 const char *k0, double v0);
    void instant(Cycles at, const char *cat, const char *name,
                 const char *k0, double v0, const char *k1, double v1);
    void instant(Cycles at, const char *cat, const char *name,
                 const char *k0, double v0, const char *k1, double v1,
                 const char *k2, double v2);

    /** Duration ('X') span [from, to). Spans of one (cat, name) on a
     * track must not partially overlap (Chrome requires nesting). */
    void span(Cycles from, Cycles to, const char *cat,
              const char *name);
    void span(Cycles from, Cycles to, const char *cat,
              const char *name, const char *k0, double v0);
    void span(Cycles from, Cycles to, const char *cat,
              const char *name, const char *k0, double v0,
              const char *k1, double v1);

    /** Async nestable span [from, to) under @p id — the request-
     * lifecycle shape: spans of distinct ids may overlap freely. */
    void asyncSpan(std::uint64_t id, Cycles from, Cycles to,
                   const char *cat, const char *name);
    void asyncSpan(std::uint64_t id, Cycles from, Cycles to,
                   const char *cat, const char *name, const char *k0,
                   double v0);
    void asyncSpan(std::uint64_t id, Cycles from, Cycles to,
                   const char *cat, const char *name, const char *k0,
                   double v0, const char *k1, double v1);

    const std::vector<TraceEvent> &events() const { return events_; }
    size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty(); }
    void clear() { events_.clear(); }

  private:
    TraceEvent *start(Cycles at, Cycles dur, char phase,
                      const char *cat, const char *name);

    bool enabled_ = false;
    std::vector<TraceEvent> events_;
};

/**
 * A merged fleet trace: per-track (core) event lists assembled in
 * deterministic order by the aggregation thread. Track index is the
 * fleet-wide core index; kControllerTrack holds fleet-level events.
 */
class Trace
{
  public:
    /** Synthetic track for fleet-controller events (epoch windows,
     * placement, rebalance, failover bookkeeping). */
    static constexpr int kControllerTrack = -1;

    /** Board/core shape for pid/tid assignment in the export:
     * pid = track / cores_per_board, tid = track. The controller
     * track exports as its own pseudo-process (pid = num_boards). */
    void setTopology(unsigned coresPerBoard, unsigned numBoards);

    /** Core clock for the cycles -> microseconds conversion. */
    void setFreqHz(double freqHz) { freqHz_ = freqHz; }

    /** Append one event directly (controller-side serial use). */
    void add(int track, const TraceEvent &ev);

    /**
     * Merge a per-core buffer: every event time is shifted by
     * @p offset (the epoch's absolute start) and every nonzero async
     * id by @p idSalt (disambiguates per-epoch id spaces; pass
     * (epoch + 1) << 56). Call in core-index order on the
     * aggregation thread — the append order is the tie-break for
     * same-timestamp events in the export.
     */
    void append(int track, const TraceBuffer &buf, Cycles offset,
                std::uint64_t idSalt);

    bool empty() const { return tracks_.empty(); }
    std::uint64_t totalEvents() const;

    /** Tracks in ascending order (controller first). */
    const std::map<int, std::vector<TraceEvent>> &tracks() const
    {
        return tracks_;
    }

    /**
     * Render the whole trace as Chrome trace-event JSON. The output
     * is a pure function of the recorded events — the byte stream
     * the determinism tests compare.
     */
    std::string chromeJson() const;

    /** Write chromeJson()'s bytes to @p f. @return false if the
     * write came up short or @p f is in an error state. */
    [[nodiscard]] bool writeChromeJson(std::FILE *f) const;

    /** Write chromeJson()'s bytes to @p path. @return false if the
     * file cannot be opened, written or closed. */
    [[nodiscard]] bool writeChromeJson(const std::string &path) const;

  private:
    // Ordered map: export order (and thus the byte stream) must not
    // depend on insertion order or hashing.
    std::map<int, std::vector<TraceEvent>> tracks_;
    unsigned coresPerBoard_ = 0;
    unsigned numBoards_ = 0;
    double freqHz_ = 1e9;
};

} // namespace neu10

#endif // NEU10_OBS_TRACE_HH
