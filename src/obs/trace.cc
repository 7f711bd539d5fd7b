#include "obs/trace.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <string_view>
#include <system_error>
#include <utility>

#include "common/logging.hh"

namespace neu10
{

// ------------------------------------------------------ TraceBuffer

TraceEvent *
TraceBuffer::start(Cycles at, Cycles dur, char phase, const char *cat,
                   const char *name)
{
    events_.emplace_back();
    TraceEvent &ev = events_.back();
    ev.at = at;
    ev.dur = dur;
    ev.phase = phase;
    ev.cat = cat;
    ev.name = name;
    return &ev;
}

void
TraceBuffer::instant(Cycles at, const char *cat, const char *name)
{
    if (!enabled_)
        return;
    start(at, 0.0, 'i', cat, name);
}

void
TraceBuffer::instant(Cycles at, const char *cat, const char *name,
                     const char *k0, double v0)
{
    if (!enabled_)
        return;
    TraceEvent *ev = start(at, 0.0, 'i', cat, name);
    ev->nargs = 1;
    ev->args[0] = {k0, v0};
}

void
TraceBuffer::instant(Cycles at, const char *cat, const char *name,
                     const char *k0, double v0, const char *k1,
                     double v1)
{
    if (!enabled_)
        return;
    TraceEvent *ev = start(at, 0.0, 'i', cat, name);
    ev->nargs = 2;
    ev->args[0] = {k0, v0};
    ev->args[1] = {k1, v1};
}

void
TraceBuffer::instant(Cycles at, const char *cat, const char *name,
                     const char *k0, double v0, const char *k1,
                     double v1, const char *k2, double v2)
{
    if (!enabled_)
        return;
    TraceEvent *ev = start(at, 0.0, 'i', cat, name);
    ev->nargs = 3;
    ev->args[0] = {k0, v0};
    ev->args[1] = {k1, v1};
    ev->args[2] = {k2, v2};
}

void
TraceBuffer::span(Cycles from, Cycles to, const char *cat,
                  const char *name)
{
    if (!enabled_)
        return;
    start(from, to - from, 'X', cat, name);
}

void
TraceBuffer::span(Cycles from, Cycles to, const char *cat,
                  const char *name, const char *k0, double v0)
{
    if (!enabled_)
        return;
    TraceEvent *ev = start(from, to - from, 'X', cat, name);
    ev->nargs = 1;
    ev->args[0] = {k0, v0};
}

void
TraceBuffer::span(Cycles from, Cycles to, const char *cat,
                  const char *name, const char *k0, double v0,
                  const char *k1, double v1)
{
    if (!enabled_)
        return;
    TraceEvent *ev = start(from, to - from, 'X', cat, name);
    ev->nargs = 2;
    ev->args[0] = {k0, v0};
    ev->args[1] = {k1, v1};
}

void
TraceBuffer::asyncSpan(std::uint64_t id, Cycles from, Cycles to,
                       const char *cat, const char *name)
{
    if (!enabled_)
        return;
    TraceEvent *ev = start(from, to - from, 'b', cat, name);
    ev->id = id;
}

void
TraceBuffer::asyncSpan(std::uint64_t id, Cycles from, Cycles to,
                       const char *cat, const char *name,
                       const char *k0, double v0)
{
    if (!enabled_)
        return;
    TraceEvent *ev = start(from, to - from, 'b', cat, name);
    ev->id = id;
    ev->nargs = 1;
    ev->args[0] = {k0, v0};
}

void
TraceBuffer::asyncSpan(std::uint64_t id, Cycles from, Cycles to,
                       const char *cat, const char *name,
                       const char *k0, double v0, const char *k1,
                       double v1)
{
    if (!enabled_)
        return;
    TraceEvent *ev = start(from, to - from, 'b', cat, name);
    ev->id = id;
    ev->nargs = 2;
    ev->args[0] = {k0, v0};
    ev->args[1] = {k1, v1};
}

// ------------------------------------------------------------ Trace

void
Trace::setTopology(unsigned coresPerBoard, unsigned numBoards)
{
    coresPerBoard_ = coresPerBoard;
    numBoards_ = numBoards;
}

void
Trace::add(int track, const TraceEvent &ev)
{
    tracks_[track].push_back(ev);
}

void
Trace::append(int track, const TraceBuffer &buf, Cycles offset,
              std::uint64_t idSalt)
{
    if (buf.empty())
        return;
    // insert() keeps the vector's geometric growth. Reserving the
    // exact new size instead would reallocate and copy the whole
    // track at every epoch merge.
    std::vector<TraceEvent> &dst = tracks_[track];
    const size_t first = dst.size();
    dst.insert(dst.end(), buf.events().begin(), buf.events().end());
    for (size_t i = first; i < dst.size(); ++i) {
        dst[i].at += offset;
        if (dst[i].id != 0)
            dst[i].id += idSalt;
    }
}

std::uint64_t
Trace::totalEvents() const
{
    std::uint64_t n = 0;
    for (const auto &[track, evs] : tracks_)
        n += evs.size();
    return n;
}

namespace
{

/**
 * String builder of the Chrome trace renderer. Numbers go through
 * std::to_chars, which C++17 defines to print exactly what printf does
 * at the same precision (%.6f, %.9g, %llx), without its format parsing
 * or locale.
 */
class ChromeJsonWriter
{
  public:
    /** Start a document in a buffer of @p reserve bytes, which grows if
     * the document needs more. */
    explicit ChromeJsonWriter(size_t reserve) { buf_.reserve(reserve); }

    void text(std::string_view s) { buf_.append(s); }

    void
    uint(std::uint64_t v, int base = 10)
    {
        put(std::to_chars(num_, num_ + sizeof(num_), v, base));
    }

    void
    number(double v, std::chars_format fmt, int precision)
    {
        put(std::to_chars(num_, num_ + sizeof(num_), v, fmt,
                          precision));
    }

    /** Start the next element of the traceEvents array. */
    void
    row()
    {
        if (rows_++ > 0)
            text(",\n");
    }

    std::string take() { return std::move(buf_); }

  private:
    void
    put(std::to_chars_result r)
    {
        NEU10_ASSERT(r.ec == std::errc(),
                     "trace number does not fit its buffer");
        buf_.append(num_, r.ptr);
    }

    std::string buf_;
    std::uint64_t rows_ = 0;
    // Fits any double in fixed notation (at most 309 integer digits).
    char num_[400] = {};
};

/**
 * An upper bound on the size of the Chrome trace of @p tracks while
 * timestamps stay below 1e16 us. It copies the fixed text of every row
 * form in Trace::chromeJson(), which asserts that it holds.
 */
size_t
chromeJsonBound(const std::map<int, std::vector<TraceEvent>> &tracks)
{
    // Per row: at most 61 bytes of fixed text with its separator, a
    // pid and a tid of at most 10 digits each, and two numbers of at
    // most 24 characters (a hex id, or a %.6f value below 1e16 us).
    constexpr size_t kRowBytes = 61 + 2 * 10 + 2 * 24;
    // Per argument list, its 10 bytes of fixed text; per argument, its
    // quotes, colon and comma, and a %.9g value of at most 16
    // characters.
    constexpr size_t kArgsBytes = 10;
    constexpr size_t kArgBytes = 4 + 16;
    size_t bytes = 256; // header and trailer
    for (const auto &[track, evs] : tracks) {
        bytes += 2 * (kRowBytes + 32); // process and thread names
        for (const TraceEvent &ev : evs) {
            size_t row =
                kRowBytes + std::strlen(ev.cat) + std::strlen(ev.name);
            if (ev.nargs > 0)
                row += kArgsBytes;
            for (int i = 0; i < ev.nargs; ++i)
                row += kArgBytes + std::strlen(ev.args[i].key);
            bytes += ev.phase == 'b' ? 2 * row : row;
        }
    }
    return bytes;
}

} // anonymous namespace

std::string
Trace::chromeJson() const
{
    // Reserve once: a string that doubles holds its old and its new
    // buffer at the same time, up to twice the document's size.
    const size_t bound = chromeJsonBound(tracks_);
    ChromeJsonWriter out(bound);

    // Cycles -> microseconds (the trace-event time unit), clamped at
    // zero: a standalone serving trace can hold carried-backlog
    // stamps from before its own t = 0 (fleet merges re-anchor them
    // to absolute time before export).
    const auto us = [&](Cycles at) {
        const double v = at / freqHz_ * 1e6;
        return v < 0.0 ? 0.0 : v;
    };
    const auto pid_of = [&](int track) -> unsigned {
        if (track < 0)
            return numBoards_;
        return coresPerBoard_ > 0
                   ? static_cast<unsigned>(track) / coresPerBoard_
                   : 0u;
    };
    const auto tid_of = [&](int track) -> unsigned {
        return track < 0 ? 0u : static_cast<unsigned>(track);
    };
    const auto head = [&](const char *ph, unsigned pid, unsigned tid) {
        out.row();
        out.text("{\"ph\":\"");
        out.text(ph);
        out.text("\",\"pid\":");
        out.uint(pid);
        out.text(",\"tid\":");
        out.uint(tid);
    };
    const auto us_field = [&](const char *key, double v) {
        out.text(key);
        out.number(v, std::chars_format::fixed, 6);
    };
    const auto names = [&](const TraceEvent &ev) {
        out.text(",\"cat\":\"");
        out.text(ev.cat);
        out.text("\",\"name\":\"");
        out.text(ev.name);
        out.text("\"");
    };
    const auto id = [&](const TraceEvent &ev) {
        out.text(",\"id\":\"0x");
        out.uint(ev.id, 16);
        out.text("\"");
    };
    const auto args = [&](const TraceEvent &ev) {
        for (int i = 0; i < ev.nargs; ++i) {
            out.text(i == 0 ? ",\"args\":{\"" : ",\"");
            out.text(ev.args[i].key);
            out.text("\":");
            // JSON has no infinity/NaN literal; kCyclesInf sentinels
            // (e.g. a board lost for good) export as -1.
            const double v = ev.args[i].value;
            out.number(std::isfinite(v) ? v : -1.0,
                       std::chars_format::general, 9);
        }
        if (ev.nargs > 0)
            out.text("}");
    };

    out.text("{\n\"displayTimeUnit\": \"ms\",\n"
             "\"otherData\": {\"clock_hz\": ");
    out.number(freqHz_, std::chars_format::fixed, 0);
    out.text("},\n\"traceEvents\": [\n");

    // Metadata: name every process (board) once and every thread
    // (core). Map order makes this deterministic.
    std::vector<unsigned> named_pids;
    for (const auto &[track, evs] : tracks_) {
        (void)evs;
        const unsigned pid = pid_of(track);
        const unsigned tid = tid_of(track);
        if (std::find(named_pids.begin(), named_pids.end(), pid) ==
            named_pids.end()) {
            named_pids.push_back(pid);
            head("M", pid, tid);
            out.text(",\"name\":\"process_name\",\"args\":"
                     "{\"name\":\"");
            if (track < 0) {
                out.text("controller");
            } else {
                out.text("board ");
                out.uint(pid);
            }
            out.text("\"}}");
        }
        head("M", pid, tid);
        out.text(",\"name\":\"thread_name\",\"args\":{\"name\":\"");
        if (track < 0) {
            out.text("fleet");
        } else {
            out.text("core ");
            out.uint(tid);
        }
        out.text("\"}}");
    }

    // One export row: its sort key (simulated time) and the event it
    // renders. A 'b' event yields two rows, its begin and then its
    // end ('e'), pushed in recording order so the stable sort keeps
    // that order among same-time rows.
    struct Row
    {
        Cycles ts;
        size_t event;
        bool end;
    };
    std::vector<Row> rows;
    for (const auto &[track, evs] : tracks_) {
        const unsigned pid = pid_of(track);
        const unsigned tid = tid_of(track);
        rows.clear();
        rows.reserve(2 * evs.size());
        for (size_t i = 0; i < evs.size(); ++i) {
            rows.push_back({evs[i].at, i, false});
            if (evs[i].phase == 'b')
                rows.push_back({evs[i].at + evs[i].dur, i, true});
        }
        // Per-track monotonic timestamps.
        std::stable_sort(rows.begin(), rows.end(),
                         [](const Row &a, const Row &b) {
                             return a.ts < b.ts;
                         });
        for (const Row &row : rows) {
            const TraceEvent &ev = evs[row.event];
            switch (ev.phase) {
              case 'X':
                head("X", pid, tid);
                us_field(",\"ts\":", us(ev.at));
                us_field(",\"dur\":", us(ev.at + ev.dur) - us(ev.at));
                names(ev);
                args(ev);
                break;
              case 'b':
                if (row.end) {
                    head("e", pid, tid);
                    us_field(",\"ts\":", us(ev.at + ev.dur));
                    names(ev);
                    id(ev);
                } else {
                    head("b", pid, tid);
                    us_field(",\"ts\":", us(ev.at));
                    names(ev);
                    id(ev);
                    args(ev);
                }
                break;
              default:
                head("i", pid, tid);
                us_field(",\"ts\":", us(ev.at));
                out.text(",\"s\":\"t\"");
                names(ev);
                args(ev);
                break;
            }
            out.text("}");
        }
    }

    out.text("\n]}\n");

    std::string json = out.take();
    NEU10_ASSERT(json.size() <= bound,
                 "trace export of %zu bytes outgrew its bound of %zu",
                 json.size(), bound);
    return json;
}

bool
Trace::writeChromeJson(std::FILE *f) const
{
    const std::string json = chromeJson();
    return std::fwrite(json.data(), 1, json.size(), f) == json.size() &&
           std::ferror(f) == 0;
}

bool
Trace::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const bool written = writeChromeJson(f);
    return std::fclose(f) == 0 && written;
}

} // namespace neu10
