/**
 * @file
 * Minimal gem5-style logging: panic() for simulator bugs, fatal() for
 * user errors, warn()/inform() for status messages.
 */

#ifndef FLEXCORE_COMMON_LOG_H_
#define FLEXCORE_COMMON_LOG_H_

#include <sstream>
#include <string>

namespace flexcore {

/** Verbosity levels for status messages. */
enum class LogLevel { kQuiet, kNormal, kVerbose };

/** Set the global verbosity (default kNormal). */
void setLogLevel(LogLevel level);
LogLevel logLevel();

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Fold a list of streamable values into one string. */
template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

}  // namespace detail

/**
 * panic: a condition that indicates a bug in the simulator itself.
 * Aborts so a debugger/core dump can capture state.
 */
#define FLEX_PANIC(...)                                                 \
    ::flexcore::detail::panicImpl(__FILE__, __LINE__,                   \
                                  ::flexcore::detail::format(__VA_ARGS__))

/**
 * fatal: a condition caused by user input (bad configuration, malformed
 * assembly, ...). Exits with an error code.
 */
#define FLEX_FATAL(...)                                                 \
    ::flexcore::detail::fatalImpl(__FILE__, __LINE__,                   \
                                  ::flexcore::detail::format(__VA_ARGS__))

/** warn: suspicious but recoverable condition. */
#define FLEX_WARN(...)                                                  \
    ::flexcore::detail::warnImpl(::flexcore::detail::format(__VA_ARGS__))

/** inform: normal operating status for the user. */
#define FLEX_INFORM(...)                                                \
    ::flexcore::detail::informImpl(::flexcore::detail::format(__VA_ARGS__))

}  // namespace flexcore

#endif  // FLEXCORE_COMMON_LOG_H_
