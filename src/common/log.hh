/**
 * @file
 * Logging and error-reporting helpers.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (bugs in the simulator itself) and aborts; fatal() is for
 * user errors (bad configuration, invalid arguments) and exits cleanly;
 * warn()/inform() report conditions without stopping the run.
 */

#ifndef PMILL_COMMON_LOG_HH
#define PMILL_COMMON_LOG_HH

#include <cstdarg>
#include <string>

namespace pmill {

/**
 * Report an internal invariant violation (a simulator bug) and abort.
 * Never returns.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user error (bad config, bad arguments) and
 * exit with status 1. Never returns.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a suspicious-but-survivable condition. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report normal operating status. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** vprintf-style formatting into a std::string. */
std::string vstrprintf(const char *fmt, va_list ap);

/**
 * Assert a simulator invariant; on failure, panic with location info.
 * Active in all build types (unlike assert()).
 */
#define PMILL_ASSERT(cond, ...)                                           \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::pmill::panic("assertion '%s' failed at %s:%d: %s", #cond,   \
                           __FILE__, __LINE__,                            \
                           ::pmill::strprintf(__VA_ARGS__).c_str());      \
        }                                                                 \
    } while (0)

} // namespace pmill

#endif // PMILL_COMMON_LOG_HH
