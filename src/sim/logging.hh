/**
 * @file
 * gem5-style status and error reporting helpers.
 *
 * panic()  - an internal simulator invariant was violated (aborts,
 *            naming the source line of the check).
 * fatal()  - the user asked for something impossible (exits cleanly;
 *            the message names the input, not the source line).
 * warn()   - something suspicious but survivable happened.
 * inform() - plain status output.
 *
 * parseUint() and parseNumber() read every number a flag or an
 * environment variable gives; a malformed one is a fatal() user error.
 */

#ifndef NETSPARSE_SIM_LOGGING_HH
#define NETSPARSE_SIM_LOGGING_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace netsparse {

namespace detail {

/** Build a message string from a stream of arguments. */
template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/** What fatal() throws once it has printed its message: every main
 *  returns 1 on it, which still writes the opened documents. */
struct FatalError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Global verbosity switch: when false, inform() output is suppressed. */
void setVerbose(bool verbose);
bool verbose();

/** The grammar of parseUint() and parseNumber() without the error, for
 *  parsers that report failure themselves: false when std::from_chars
 *  does not read all of @p text as a base-10 integer of 64 bits (a
 *  finite number >= 0, > 0 when @p positive): no space, sign or hex. */
bool readUint(const char *text, std::uint64_t &v);
bool readNumber(const char *text, double &v, bool positive = false);

/** @p text, the value of the flag or variable @p name, as a whole base-10
 *  integer in [@p min, @p max]; anything else is fatal, naming both. */
std::uint64_t parseUint(const char *name, const char *text,
                        std::uint64_t min = 0, std::uint64_t max = UINT64_MAX);

/** The same for a finite number >= 0 (> 0 when @p positive). */
double parseNumber(const char *name, const char *text, bool positive = false);

/** Environment variable @p var by parseUint() as a 32-bit integer >=
 *  @p min, or @p fallback when it is unset or empty. */
std::uint32_t envUint(const char *var, std::uint32_t fallback,
                      std::uint32_t min);

/** The same by parseNumber() for a positive number. */
double envPositive(const char *var, double fallback);

} // namespace netsparse

#define ns_panic(...)                                                       \
    ::netsparse::detail::panicImpl(__FILE__, __LINE__,                      \
                                   ::netsparse::detail::format(__VA_ARGS__))

#define ns_fatal(...)                                                       \
    ::netsparse::detail::fatalImpl(::netsparse::detail::format(__VA_ARGS__))

#define ns_warn(...)                                                        \
    ::netsparse::detail::warnImpl(::netsparse::detail::format(__VA_ARGS__))

#define ns_inform(...)                                                      \
    ::netsparse::detail::informImpl(                                        \
        ::netsparse::detail::format(__VA_ARGS__))

/** Check an invariant; panic with a message when it does not hold. */
#define ns_assert(cond, ...)                                                \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ns_panic("assertion failed: ", #cond, ": ",                     \
                     ::netsparse::detail::format(__VA_ARGS__));             \
        }                                                                   \
    } while (0)

#endif // NETSPARSE_SIM_LOGGING_HH
