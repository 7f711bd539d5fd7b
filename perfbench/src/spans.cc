#include "spans.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <stdexcept>

namespace
{

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

} // namespace

// Global allocation hook. The standard library's array and nothrow
// forms route through this one, and its operator delete frees with
// std::free, which matches the malloc below.
void *
operator new(std::size_t n)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

namespace perfbench
{

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now())
{}

std::int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

int
SpanRecorder::open(const std::string &name, int sub_run)
{
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.subRun = sub_run;
    const int index = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
    children_.emplace_back();
    if (!stack_.empty())
        children_[static_cast<size_t>(stack_.back())].push_back(index);
    stack_.push_back(index);
    spans_.back().startNs = nowNs();
    return index;
}

void
SpanRecorder::close(int index)
{
    const std::int64_t end = nowNs();
    if (stack_.empty() || stack_.back() != index)
        throw std::logic_error("span closed out of order");
    stack_.pop_back();
    spans_[static_cast<size_t>(index)].endNs = end;
}

std::int64_t
SpanRecorder::selfNs(size_t index) const
{
    // close() enforces LIFO order, so children lie inside their parent
    // and one after another.
    const Span &s = spans_[index];
    std::int64_t children = 0;
    for (const int c : children_[index]) {
        const Span &ch = spans_[static_cast<size_t>(c)];
        children += ch.endNs - ch.startNs;
    }
    return (s.endNs - s.startNs) - children;
}

double
SpanRecorder::totalMs(const std::string &name) const
{
    std::int64_t ns = 0;
    for (const Span &s : spans_)
        if (s.name == name)
            ns += s.endNs - s.startNs;
    return static_cast<double>(ns) * 1e-6;
}

double
SpanRecorder::totalMs(const std::string &name, int sub) const
{
    std::int64_t ns = 0;
    for (const Span &s : spans_)
        if (s.name == name && s.subRun == sub)
            ns += s.endNs - s.startNs;
    return static_cast<double>(ns) * 1e-6;
}

std::string
SpanRecorder::json() const
{
    struct Sum
    {
        unsigned count = 0;
        std::int64_t total = 0, self = 0;
    };
    std::map<std::string, Sum> sums;
    std::string out = "{\"spans\": [\n";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\": \"%s\", \"start_ns\": %lld, "
                      "\"end_ns\": %lld, \"parent\": %d, "
                      "\"sub_run\": %d}",
                      i == 0 ? "" : ",\n", s.name.c_str(),
                      static_cast<long long>(s.startNs),
                      static_cast<long long>(s.endNs), s.parent,
                      s.subRun);
        out += buf;
        Sum &sum = sums[s.name];
        ++sum.count;
        sum.total += s.endNs - s.startNs;
        sum.self += selfNs(i);
    }
    out += "\n], \"summary\": {\n";
    bool first = true;
    for (const auto &[name, sum] : sums) {
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"count\": %u, \"total_ms\": %.6f, "
                      "\"self_ms\": %.6f}",
                      first ? "" : ",\n", name.c_str(), sum.count,
                      static_cast<double>(sum.total) * 1e-6,
                      static_cast<double>(sum.self) * 1e-6);
        out += buf;
        first = false;
    }
    out += "\n}}\n";
    return out;
}

AllocCount::AllocCount() : base_(g_allocs.load())
{
    if (g_counting.exchange(true))
        throw std::logic_error("allocation counts do not nest");
}

AllocCount::~AllocCount()
{
    g_counting.store(false);
}

std::uint64_t
AllocCount::count() const
{
    return g_allocs.load() - base_;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace perfbench
