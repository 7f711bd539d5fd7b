/**
 * @file
 * Status-message and error-reporting facilities in the gem5 idiom.
 *
 * Two error levels are provided, mirroring gem5's base/logging.hh:
 *
 *  - panic():  something happened that should never happen regardless of
 *              what the user does, i.e. an internal simulator bug.
 *  - fatal():  the simulation cannot continue due to a user-level problem
 *              (bad configuration, invalid arguments).
 *
 * Unlike gem5, both raise C++ exceptions (PanicError / FatalError) rather
 * than calling abort()/exit(); a library embedded in tests and services
 * must not tear down the host process. Callers that want gem5's behaviour
 * can catch at top level and abort.
 *
 * warn()/inform() emit status messages; they never stop the simulation.
 */

#ifndef NEU10_COMMON_LOGGING_HH
#define NEU10_COMMON_LOGGING_HH

#include <cstdarg>
#include <stdexcept>
#include <string>

#include "common/strings.hh"

namespace neu10
{

/** Raised by panic(): an internal invariant was violated (a Neu10 bug). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Raised by fatal(): the user asked for something impossible. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Verbosity levels for status messages. */
enum class LogLevel { Silent = 0, Warn = 1, Inform = 2, Debug = 3 };

/** Set the global verbosity; messages above the level are suppressed. */
void setLogLevel(LogLevel level);

/** Current global verbosity. */
LogLevel logLevel();

/**
 * Report an internal error and throw PanicError.
 * @param fmt printf-style format string.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report a user error and throw FatalError.
 * @param fmt printf-style format string.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Alert the user that something might be subtly wrong. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Provide a normal operating status message. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * RAII scope marking the calling thread as simulating one fleet core:
 * while active, every warn()/inform() from this thread carries a
 * "[board.core @cycle]" prefix so concurrent epoch workers' messages
 * stay attributable. The whole line (prefix included) is emitted
 * through a single buffered fwrite, so half-lines from different
 * workers can no longer interleave on stderr.
 *
 * The context is thread-local: nesting is not supported (the fleet
 * runs one core simulation per worker at a time), and the destructor
 * clears it.
 */
class ScopedLogContext
{
  public:
    ScopedLogContext(unsigned board, unsigned core);
    ~ScopedLogContext();

    ScopedLogContext(const ScopedLogContext &) = delete;
    ScopedLogContext &operator=(const ScopedLogContext &) = delete;
};

/**
 * RAII scope in which fatal() on the calling thread throws its
 * FatalError without printing it. For a caller that catches the error
 * and re-raises it with more context (the scenario parser adds
 * file:line), so the user sees one "fatal:" line, not two. Scopes
 * nest; the thread prints again when the outermost one ends.
 */
class ScopedQuietFatal
{
  public:
    ScopedQuietFatal();
    ~ScopedQuietFatal();

    ScopedQuietFatal(const ScopedQuietFatal &) = delete;
    ScopedQuietFatal &operator=(const ScopedQuietFatal &) = delete;
};

/**
 * Update the simulated-time component of the calling thread's log
 * context (cycles; fractional values are floored for display). A
 * no-op outside a ScopedLogContext scope. Instrumented loops call
 * this right before a warn() so the prefix pins the message to a
 * simulated instant, not just a core.
 */
void logContextCycle(double cycle);

/**
 * Panic if @p cond is false. Used for internal invariants; cheap enough
 * to keep enabled in release builds.
 */
#define NEU10_ASSERT(cond, ...)                                             \
    do {                                                                    \
        if (!(cond))                                                        \
            ::neu10::panic("assertion '%s' failed: %s", #cond,              \
                           ::neu10::csprintf(__VA_ARGS__).c_str());         \
    } while (0)

} // namespace neu10

#endif // NEU10_COMMON_LOGGING_HH
