#include "common/log.h"

#include <cstdio>
#include <cstdlib>

namespace flexcore {

namespace {
LogLevel g_level = LogLevel::kNormal;
}  // namespace

void
setLogLevel(LogLevel level)
{
    g_level = level;
}

LogLevel
logLevel()
{
    return g_level;
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (g_level != LogLevel::kQuiet)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (g_level == LogLevel::kVerbose)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

}  // namespace detail

}  // namespace flexcore
