/**
 * @file
 * Minimal logging / assertion helpers in the gem5 style: panic() for
 * simulator bugs, fatal() for user errors, warn()/inform() for status.
 *
 * Thread safety: every entry point may be called from sweep-executor
 * worker lanes (lib/sweep.hh). The log level is an atomic, warn/inform
 * serialize their writes through one process-wide mutex (messages never
 * interleave mid-line).
 */

#ifndef RSN_COMMON_LOG_HH
#define RSN_COMMON_LOG_HH

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace rsn {

/** Global verbosity: 0 = quiet, 1 = inform, 2 = debug trace.
 *  Atomic underneath: safe to read from worker lanes (set it from the
 *  main thread before spawning a sweep). */
int logLevel();
void setLogLevel(int level);

/**
 * What rsn_fatal throws, after it has written "fatal: <reason>" to
 * stderr: a driver that catches it exits without printing the reason
 * again.
 */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

namespace detail {
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
std::string formatv(const char *fmt, ...) __attribute__((format(printf, 1, 2)));
} // namespace detail

/** Abort: something happened that indicates a simulator bug. */
#define rsn_panic(...) \
    ::rsn::detail::panicImpl(__FILE__, __LINE__, \
                             ::rsn::detail::formatv(__VA_ARGS__))

/** Exit(1): the simulation cannot continue due to a user/config error. */
#define rsn_fatal(...) \
    ::rsn::detail::fatalImpl(__FILE__, __LINE__, \
                             ::rsn::detail::formatv(__VA_ARGS__))

/** Warning that does not stop the simulation. */
#define rsn_warn(...) \
    ::rsn::detail::warnImpl(::rsn::detail::formatv(__VA_ARGS__))

/** Status message shown at logLevel() >= 1. */
#define rsn_inform(...) \
    ::rsn::detail::informImpl(::rsn::detail::formatv(__VA_ARGS__))

/** Internal invariant check that survives NDEBUG builds. */
#define rsn_assert(cond, ...) \
    do { \
        if (!(cond)) { \
            rsn_panic("assertion failed: %s — %s", #cond, \
                      ::rsn::detail::formatv(__VA_ARGS__).c_str()); \
        } \
    } while (0)

} // namespace rsn

#endif // RSN_COMMON_LOG_HH
