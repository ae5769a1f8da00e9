/**
 * @file
 * Shared pieces of the flexbench benchmark: clocks, order statistics,
 * the metric sheets a run fills, the correctness gate, and the run
 * context every workload receives. See flexbench/README.md for what
 * each workload measures and why.
 */

#ifndef FLEXBENCH_BENCH_H_
#define FLEXBENCH_BENCH_H_

#include <ctime>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace fb {

using flexcore::u32;
using flexcore::u64;

// ---- Clocks (seconds) ----
double wallNow();
/** CPU time of the whole process (CLOCK_PROCESS_CPUTIME_ID). */
double processCpuNow();
/** Reading of any clock, e.g. another thread's CPU-time clock. */
double clockNow(clockid_t id);
/** Peak resident set size of the process so far, MiB. */
double peakRssMiB();

// ---- Order statistics ----
double median(std::vector<double> values);
/** Linearly interpolated quantile @p q in [0, 1] of @p values. */
double quantile(std::vector<double> values, double q);
/**
 * The p-th percentile, refused (check failure) unless at least ten
 * samples lie beyond it — a p99 needs at least 1000 samples.
 */
double tailPercentile(const std::vector<double> &values, double p,
                      std::string_view what);
double geomean(const std::vector<double> &values);

/**
 * Host-speed reference. On a shared host the speed of a vCPU moves by
 * up to 2x between phases that last from seconds to minutes, so two
 * runs of the same code can differ that much on any clock. The
 * reference (reference.h) is a frozen copy of the simulator running
 * three small kernels, so it slows down as the simulator under test
 * does, and it does the same work whatever later changes do to src/.
 * A run times it after every slice of its measured work, on the wall
 * clock and on the process CPU clock, and scales each slice's host
 * times by kNominalS / (the mean of the two reference times around it,
 * on the same clock). The result reads as seconds on a host that runs
 * the reference in kNominalS: a slower simulator still reads slower, a
 * slower host does not.
 */
class HostPace
{
  public:
    /** About the reference's time on the recorded host when quiet. */
    static constexpr double kNominalS = 0.003;

    /** Runs the reference once untimed, to warm it up. */
    HostPace();
    /** Time the reference once (check failure if its result differs
     * from the warm-up's). */
    void sample();
    int samples() const { return static_cast<int>(wall_s_.size()); }
    /** Quantile @p q of the reference's wall times so far. */
    double wallQuantile(double q) const { return quantile(wall_s_, q); }
    /** Host wall seconds -> reference seconds, for the interval
     * between the last two samples (after the first sample, its own). */
    double wallScale() const { return scale(wall_s_); }
    /** The same for process CPU seconds. */
    double cpuScale() const { return scale(cpu_s_); }

  private:
    static double scale(const std::vector<double> &ref_s);

    std::vector<double> wall_s_, cpu_s_;
    u64 checksum_ = 0;
};

/** @p v as 16 hex digits. */
std::string hex64(u64 v);

/** FNV-1a 64 running digest of simulated results. */
struct Digest
{
    u64 h = 14695981039346656037ull;
    void add(std::string_view bytes);
    void add(u64 value);
    std::string hex() const { return hex64(h); }
};

/** SplitMix64 finalizer: derive independent seeds from (seed, salt). */
u64 mixSeed(u64 seed, u64 salt);

/**
 * A failed output check: print the reason to stderr and exit 1
 * without printing any result line.
 */
[[noreturn]] void checkFailed(const std::string &why);

/** checkFailed(@p why) unless @p ok. */
inline void
check(bool ok, const std::string &why)
{
    if (!ok)
        checkFailed(why);
}

/** One measured number with its unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    /** Per-layer only: the count the value is a ratio over, and what
     * it counts ("" when the value is itself a count or a sum). */
    double base = 0;
    std::string base_unit;
};

/** An ordered, name-unique metric sheet. */
class Sheet
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit, double base = 0,
             const std::string &base_unit = "");
    const Metric *find(std::string_view name) const;
    const std::vector<Metric> &all() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
};

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
};

/** Where results, span traces, digests and sockets go. */
inline constexpr const char *kOutDir = ".bench_out";

/** Everything a workload reports back to main(). */
struct RunContext
{
    Options opt;
    /** Canonical description of the fixed work (seed excluded); its
     * hash goes into the provenance block. */
    std::string spec;
    Sheet e2e;     //!< end-to-end metrics (untraced runs)
    Sheet layer;   //!< per-layer metrics (traced runs)
    /** Per-layer metric -> why this workload cannot measure it. */
    std::map<std::string, std::string> absent;
    /** Cells and requests run. None may fail: a failure ends the run
     * through checkFailed(), so the result always reports 0 failed. */
    u64 attempted = 0;
    /** Digest of the simulated results of the fixed work; identical
     * across runs and between timed and traced runs. */
    Digest digest;
    /** Digest of the served probe (timed runs only). */
    Digest probe_digest;
    bool has_probe = false;
    /** Seed-independent workloads share one digest file name. */
    bool seeded = true;
};

/** Unique, never-reused socket path inside the output directory. */
std::string socketPath();

}  // namespace fb

#endif  // FLEXBENCH_BENCH_H_
