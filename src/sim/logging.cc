#include "sim/logging.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <stdexcept>

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

std::uint32_t
envUint(const char *var, std::uint32_t fallback, std::uint32_t min)
{
    const char *text = std::getenv(var);
    if (!text || !*text)
        return fallback;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || !std::isdigit(static_cast<unsigned char>(*text)) ||
        *end != '\0' || v < min || v > UINT32_MAX)
        ns_fatal(var, ": expected a 32-bit integer >= ", min, ", got '",
                 text, "'");
    return static_cast<std::uint32_t>(v);
}

double
envPositive(const char *var, double fallback)
{
    const char *text = std::getenv(var);
    if (!text || !*text)
        return fallback;
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text, &end);
    if (errno != 0 || end == text || *end != '\0' || !std::isfinite(v) ||
        v <= 0.0)
        ns_fatal(var, ": expected a positive number, got '", text, "'");
    return v;
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
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    throw std::runtime_error("fatal: " + msg);
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
