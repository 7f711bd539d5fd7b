#include "common/logging.hh"

#include <atomic>
#include <cstdio>

namespace neu10
{

namespace
{

// Read on every message — including from fleet worker threads, which
// warn() about capped runs — while tests and tools may set the level
// concurrently. Relaxed atomics make that torn-free and TSan-clean; a
// message racing a level change may use either level, which is the
// only sane semantic for a verbosity knob.
std::atomic<LogLevel> g_level{LogLevel::Warn};

// Per-thread simulation context for message attribution. Thread-local
// (no synchronization needed): each fleet worker drives exactly one
// core simulation at a time and scopes it with ScopedLogContext.
struct LogContext
{
    bool active = false;
    unsigned board = 0;
    unsigned core = 0;
    double cycle = 0.0;
    bool hasCycle = false;
};

thread_local LogContext t_ctx;

// Open ScopedQuietFatal scopes on this thread; fatal() prints only
// at zero.
thread_local unsigned t_quietFatal = 0;

/**
 * Emit one complete message line with a single fwrite. stderr is
 * unbuffered and stdout line-buffered, so building the whole line
 * (context prefix, severity tag, message, newline) first keeps
 * concurrent epoch workers from interleaving half-lines — stdio
 * locks the stream for the duration of one fwrite call.
 */
void
emitLine(std::FILE *stream, const char *tag, const std::string &msg)
{
    std::string line;
    line.reserve(msg.size() + 32);
    if (t_ctx.active) {
        line += csprintf("[%u.%u", t_ctx.board, t_ctx.core);
        if (t_ctx.hasCycle)
            line += csprintf(" @%.0f", t_ctx.cycle);
        line += "] ";
    }
    line += tag;
    line += ": ";
    line += msg;
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), stream);
}

} // anonymous namespace

void
setLogLevel(LogLevel level)
{
    g_level.store(level, std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return g_level.load(std::memory_order_relaxed);
}

ScopedLogContext::ScopedLogContext(unsigned board, unsigned core)
{
    t_ctx.active = true;
    t_ctx.board = board;
    t_ctx.core = core;
    t_ctx.cycle = 0.0;
    t_ctx.hasCycle = false;
}

ScopedLogContext::~ScopedLogContext()
{
    t_ctx = LogContext{};
}

ScopedQuietFatal::ScopedQuietFatal()
{
    ++t_quietFatal;
}

ScopedQuietFatal::~ScopedQuietFatal()
{
    --t_quietFatal;
}

void
logContextCycle(double cycle)
{
    if (!t_ctx.active)
        return;
    t_ctx.cycle = cycle;
    t_ctx.hasCycle = true;
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vcsprintf(fmt, ap);
    va_end(ap);
    if (g_level.load(std::memory_order_relaxed) >= LogLevel::Warn)
        emitLine(stderr, "panic", msg);
    throw PanicError(msg);
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vcsprintf(fmt, ap);
    va_end(ap);
    if (t_quietFatal == 0 &&
        g_level.load(std::memory_order_relaxed) >= LogLevel::Warn)
        emitLine(stderr, "fatal", msg);
    throw FatalError(msg);
}

void
warn(const char *fmt, ...)
{
    if (g_level.load(std::memory_order_relaxed) < LogLevel::Warn)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vcsprintf(fmt, ap);
    va_end(ap);
    emitLine(stderr, "warn", msg);
}

void
inform(const char *fmt, ...)
{
    if (g_level.load(std::memory_order_relaxed) < LogLevel::Inform)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vcsprintf(fmt, ap);
    va_end(ap);
    emitLine(stdout, "info", msg);
}

} // namespace neu10
