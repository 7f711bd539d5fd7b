/**
 * @file
 * Small string-formatting helpers used by reports and benches.
 *
 * GCC 12 lacks std::format, so a printf-backed csprintf() (gem5 naming)
 * plus a handful of human-readable unit formatters are provided here.
 */

#ifndef NEU10_COMMON_STRINGS_HH
#define NEU10_COMMON_STRINGS_HH

#include <cstdarg>
#include <string>
#include <vector>

#include "common/types.hh"

namespace neu10
{

/** printf into a std::string. */
std::string csprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** csprintf() over a va_list, for variadic wrappers; the caller
 * va_end()s @p ap. */
std::string vcsprintf(const char *fmt, va_list ap)
    __attribute__((format(printf, 1, 0)));

/** "10.59MB" / "1.27GB" style byte formatting (decimal units). */
std::string formatBytes(Bytes bytes);

/** "347.59 GB/s" style bandwidth formatting from bytes per second. */
std::string formatBandwidth(double bytes_per_sec);

/** "1.23ms" / "456.7us" style duration formatting from seconds. */
std::string formatSeconds(double seconds);

/** Join strings with a separator. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** ASCII lowercase copy (name parsers: policies, traffic shapes). */
std::string toLower(const std::string &s);

} // namespace neu10

#endif // NEU10_COMMON_STRINGS_HH
