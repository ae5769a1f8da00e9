#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "reference.h"

namespace fb {

double
clockNow(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
wallNow()
{
    return clockNow(CLOCK_MONOTONIC);
}

double
processCpuNow()
{
    return clockNow(CLOCK_PROCESS_CPUTIME_ID);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

HostPace::HostPace() : checksum_(runReference()) {}

void
HostPace::sample()
{
    const double w0 = wallNow();
    const double c0 = processCpuNow();
    const u64 sum = runReference();
    cpu_s_.push_back(processCpuNow() - c0);
    wall_s_.push_back(wallNow() - w0);
    check(sum == checksum_,
          "the host-speed reference computed another result");
}

double
HostPace::scale(const std::vector<double> &ref_s)
{
    check(!ref_s.empty(), "no host-speed reference taken yet");
    const size_t n = ref_s.size();
    const double ref = n == 1 ? ref_s[0] : (ref_s[n - 2] + ref_s[n - 1]) / 2;
    return kNominalS / ref;
}

double
quantile(std::vector<double> values, double q)
{
    check(!values.empty(), "quantile of an empty sample");
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
tailPercentile(const std::vector<double> &values, double p,
               std::string_view what)
{
    const double beyond =
        static_cast<double>(values.size()) * (1.0 - p / 100.0);
    check(beyond >= 10.0,
          std::string(what) + ": p" + std::to_string(p) + " over " +
              std::to_string(values.size()) +
              " samples would have fewer than ten beyond it");
    return quantile(values, p / 100.0);
}

double
geomean(const std::vector<double> &values)
{
    check(!values.empty(), "geomean of an empty sample");
    double log_sum = 0;
    for (double v : values) {
        check(v > 0, "geomean of a non-positive value");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

void
Digest::add(std::string_view bytes)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    add(static_cast<u64>(bytes.size()));
}

void
Digest::add(u64 value)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (value >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
}

std::string
hex64(u64 v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

u64
mixSeed(u64 seed, u64 salt)
{
    u64 z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
checkFailed(const std::string &why)
{
    std::fprintf(stderr, "flexbench: output check failed: %s\n",
                 why.c_str());
    std::fflush(stderr);
    std::_Exit(1);
}

void
Sheet::set(const std::string &name, double value, const std::string &unit,
           double base, const std::string &base_unit)
{
    check(std::isfinite(value), "metric " + name + " is not finite");
    for (Metric &m : metrics_) {
        if (m.name == name) {
            m = {name, value, unit, base, base_unit};
            return;
        }
    }
    metrics_.push_back({name, value, unit, base, base_unit});
}

const Metric *
Sheet::find(std::string_view name) const
{
    for (const Metric &m : metrics_) {
        if (m.name == name)
            return &m;
    }
    return nullptr;
}

std::string
socketPath()
{
    static int counter = 0;
    return std::string(kOutDir) + "/s" + std::to_string(getpid()) + "-" +
           std::to_string(counter++) + ".sock";
}

}  // namespace fb
