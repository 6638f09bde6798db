/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic()  — an internal invariant was violated (simulator bug); aborts.
 * fatal()  — the user supplied an impossible input (flag, config value,
 *            request body, result/cache file); throws
 *            vpr::Error. No library call ends the process: main()
 *            reports the Error through runMain() and exits 1, and the
 *            sweep daemon answers it with a 400.
 * warn()   — something questionable happened but simulation continues.
 * inform() — neutral status output.
 */

#ifndef VPR_COMMON_LOGGING_HH
#define VPR_COMMON_LOGGING_HH

#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>

namespace vpr
{

/** A user error; the message names the offending key, value or file. */
class Error : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * The one place an Error ends a process: run an argv-reading main()'s
 * @p body and return its status, or print "fatal: <message>" to stderr
 * and return 1 when it throws an Error.
 */
int runMain(const std::function<int()> &body);

/** Terminate with an "internal bug" diagnostic (calls std::abort). */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Print a warning to stderr; simulation continues. */
void warnImpl(const char *file, int line, const std::string &msg);

/** Print an informational message to stderr. */
void informImpl(const std::string &msg);

namespace detail
{

/** Concatenate a heterogeneous argument pack via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail
} // namespace vpr

#define VPR_PANIC(...) \
    ::vpr::panicImpl(__FILE__, __LINE__, ::vpr::detail::concat(__VA_ARGS__))

#define VPR_FATAL(...) \
    throw ::vpr::Error(::vpr::detail::concat(__VA_ARGS__))

#define VPR_WARN(...) \
    ::vpr::warnImpl(__FILE__, __LINE__, ::vpr::detail::concat(__VA_ARGS__))

#define VPR_INFORM(...) \
    ::vpr::informImpl(::vpr::detail::concat(__VA_ARGS__))

/** Assert an internal invariant; compiled in all build types. */
#define VPR_ASSERT(cond, ...)                                             \
    do {                                                                  \
        if (!(cond)) {                                                    \
            VPR_PANIC("assertion failed: " #cond                          \
                      " " __VA_OPT__(,) __VA_ARGS__);                     \
        }                                                                 \
    } while (0)

#endif // VPR_COMMON_LOGGING_HH
