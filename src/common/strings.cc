#include "common/strings.hh"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace neu10
{

std::string
vcsprintf(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    std::string out;
    if (n > 0) {
        out.resize(static_cast<size_t>(n));
        std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    }
    va_end(ap2);
    return out;
}

std::string
csprintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string out = vcsprintf(fmt, ap);
    va_end(ap);
    return out;
}

std::string
formatBytes(Bytes bytes)
{
    const double b = static_cast<double>(bytes);
    if (b >= 1e9)
        return csprintf("%.2fGB", b / 1e9);
    if (b >= 1e6)
        return csprintf("%.2fMB", b / 1e6);
    if (b >= 1e3)
        return csprintf("%.2fKB", b / 1e3);
    return csprintf("%lluB", static_cast<unsigned long long>(bytes));
}

std::string
formatBandwidth(double bytes_per_sec)
{
    if (bytes_per_sec >= 1e12)
        return csprintf("%.2f TB/s", bytes_per_sec / 1e12);
    if (bytes_per_sec >= 1e9)
        return csprintf("%.2f GB/s", bytes_per_sec / 1e9);
    return csprintf("%.2f MB/s", bytes_per_sec / 1e6);
}

std::string
formatSeconds(double seconds)
{
    if (seconds >= 1.0)
        return csprintf("%.3fs", seconds);
    if (seconds >= 1e-3)
        return csprintf("%.3fms", seconds * 1e3);
    if (seconds >= 1e-6)
        return csprintf("%.1fus", seconds * 1e6);
    return csprintf("%.0fns", seconds * 1e9);
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::string
toLower(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s)
        out += static_cast<char>(std::tolower(
            static_cast<unsigned char>(c)));
    return out;
}

} // namespace neu10
