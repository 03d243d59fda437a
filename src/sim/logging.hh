/**
 * @file
 * gem5-style status and error reporting helpers.
 *
 * panic()  - an internal simulator invariant was violated (aborts).
 * fatal()  - the user asked for something impossible (exits cleanly).
 * warn()   - something suspicious but survivable happened.
 * inform() - plain status output.
 *
 * envUint() and envPositive() read a numeric environment variable and
 * treat a malformed value as a fatal() user error.
 */

#ifndef NETSPARSE_SIM_LOGGING_HH
#define NETSPARSE_SIM_LOGGING_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
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
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/** Global verbosity switch: when false, inform() output is suppressed. */
void setVerbose(bool verbose);
bool verbose();

/**
 * Environment variable @p var as a whole number in [@p min, 2^32), or
 * @p fallback when it is unset or empty. Anything else is fatal, in the
 * CLI's format: "<var>: expected a 32-bit integer >= <min>, got '<value>'".
 */
std::uint32_t envUint(const char *var, std::uint32_t fallback,
                      std::uint32_t min);

/** The same for a positive finite number ("expected a positive
 *  number"). */
double envPositive(const char *var, double fallback);

} // namespace netsparse

#define ns_panic(...)                                                       \
    ::netsparse::detail::panicImpl(__FILE__, __LINE__,                      \
                                   ::netsparse::detail::format(__VA_ARGS__))

#define ns_fatal(...)                                                       \
    ::netsparse::detail::fatalImpl(__FILE__, __LINE__,                      \
                                   ::netsparse::detail::format(__VA_ARGS__))

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
