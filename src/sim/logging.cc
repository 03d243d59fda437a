#include "sim/logging.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace netsparse {

namespace {
bool gVerbose = true;
} // namespace

void
setVerbose(bool verbose)
{
    gVerbose = verbose;
}

bool
verbose()
{
    return gVerbose;
}

bool
readUint(const char *text, std::uint64_t &v)
{
    const char *end = text + std::strlen(text);
    auto [last, ec] = std::from_chars(text, end, v);
    return ec == std::errc() && last == end;
}

bool
readNumber(const char *text, double &v, bool positive)
{
    const char *end = text + std::strlen(text);
    auto [last, ec] = std::from_chars(text, end, v);
    return ec == std::errc() && last == end && std::isfinite(v) &&
           v >= 0.0 && !(positive && v == 0.0);
}

std::uint64_t
parseUint(const char *name, const char *text, std::uint64_t min,
          std::uint64_t max)
{
    std::uint64_t v = 0;
    if (!readUint(text, v))
        ns_fatal(name, ": expected a non-negative integer, got '", text, "'");
    if (v < min || v > max)
        ns_fatal(name, ": expected an integer in [", min, ", ", max,
                 "], got '", text, "'");
    return v;
}

double
parseNumber(const char *name, const char *text, bool positive)
{
    double v = 0.0;
    if (!readNumber(text, v, positive))
        ns_fatal(name, ": expected a ", positive ? "positive" : "non-negative",
                 " number, got '", text, "'");
    return v;
}

std::uint32_t
envUint(const char *var, std::uint32_t fallback, std::uint32_t min)
{
    const char *text = std::getenv(var);
    return text && *text ? static_cast<std::uint32_t>(
                               parseUint(var, text, min, UINT32_MAX))
                         : fallback;
}

double
envPositive(const char *var, double fallback)
{
    const char *text = std::getenv(var);
    return text && *text ? parseNumber(var, text, true) : fallback;
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    // Throw instead of abort() so tests can assert on panics; uncaught,
    // the exception still terminates the process with a diagnostic.
    throw std::logic_error("panic: " + msg);
}

void
fatalImpl(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::fflush(stderr);
    throw FatalError("fatal: " + msg);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (gVerbose)
        std::fprintf(stdout, "info: %s\n", msg.c_str());
}

} // namespace detail
} // namespace netsparse
