/**
 * @file
 * Lightweight statistics registry. Every simulated component owns a
 * StatGroup; counters, histograms, and derived formulas register
 * themselves with a name so end-of-run reports can be produced
 * generically, as a flat text dump or as canonical JSON.
 */

#ifndef FLEXCORE_COMMON_STATS_H_
#define FLEXCORE_COMMON_STATS_H_

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace flexcore {

class StatGroup;

/** A named 64-bit event counter. */
class Counter
{
  public:
    Counter() = default;
    Counter(StatGroup *group, std::string name, std::string desc);

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(u64 n) { value_ += n; return *this; }
    void reset() { value_ = 0; }

    u64 value() const { return value_; }
    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    u64 value_ = 0;
};

/**
 * A fixed-bin distribution of u64 samples (FIFO occupancies, queue
 * depths, stall-episode lengths, ...). Bin edges are either linear
 * (equal-width over [lo, hi)) or log2 (bin i covers [lo<<i, lo<<(i+1)),
 * lo >= 1). Samples below the first bin or at/above the last edge land
 * in dedicated underflow/overflow bins, so count() always equals the
 * number of add() calls and nothing is silently dropped.
 */
class Histogram
{
  public:
    struct Params
    {
        u64 lo = 0;          //!< inclusive lower edge of bin 0
        u64 hi = 64;         //!< exclusive upper edge of the last bin
                             //!< (ignored for log2 binning)
        u32 bins = 16;
        bool log2 = false;   //!< log2-width bins anchored at lo (>= 1)
    };

    Histogram() = default;
    Histogram(StatGroup *group, std::string name, std::string desc,
              Params params);

    void add(u64 value) { add(value, 1); }
    /**
     * Record @p value @p n times in one call — equivalent to (and
     * indistinguishable from) n add(value) calls. Lets fast-forwarded
     * idle stretches charge bulk samples without a per-cycle loop.
     */
    void add(u64 value, u64 n);
    void reset();

    u64 count() const { return count_; }
    u64 underflow() const { return underflow_; }
    u64 overflow() const { return overflow_; }
    u64 sum() const { return sum_; }
    /** Smallest/largest sample seen (0 when empty). */
    u64 min() const { return count_ ? min_ : 0; }
    u64 max() const { return count_ ? max_ : 0; }
    double mean() const;

    /**
     * Approximate percentile (p in [0, 100]) from the bin counts: the
     * inclusive lower edge of the bin holding the rank-ceil(p/100*n)
     * sample. Underflow resolves to min(), overflow to max(). Exact
     * when every bin is one unit wide; deterministic always.
     */
    double percentile(double p) const;

    u32 numBins() const { return params_.bins; }
    u64 binCount(u32 bin) const { return counts_[bin]; }
    /** Inclusive lower edge of @p bin. */
    u64 binLower(u32 bin) const;

    const Params &params() const { return params_; }
    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    Params params_;
    std::vector<u64> counts_;
    u64 count_ = 0;
    u64 underflow_ = 0;
    u64 overflow_ = 0;
    u64 sum_ = 0;
    u64 min_ = ~u64{0};
    u64 max_ = 0;
};

/**
 * A named derived statistic (IPC, miss rate, fill fraction, ...):
 * a function over other statistics, evaluated lazily at report time so
 * it never costs anything on the simulation hot path.
 */
class Formula
{
  public:
    Formula() = default;
    Formula(StatGroup *group, std::string name, std::string desc,
            std::function<double()> fn);

    /** Evaluate; non-finite results (x/0) collapse to 0. */
    double value() const;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    std::function<double()> fn_;
};

/**
 * A collection of statistics belonging to one component. Groups form a
 * tree through the parent pointer so a System can enumerate everything.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);

    /** Register a counter; called by the Counter constructor. */
    void registerCounter(Counter *counter);
    void registerHistogram(Histogram *histogram);
    void registerFormula(Formula *formula);
    void registerChild(StatGroup *child);

    const std::string &name() const { return name_; }
    const std::vector<Counter *> &counters() const { return counters_; }
    const std::vector<Histogram *> &histograms() const
    {
        return histograms_;
    }
    const std::vector<Formula *> &formulas() const { return formulas_; }
    const std::vector<StatGroup *> &children() const { return children_; }

    /** Reset all counters/histograms in this group and descendants. */
    void resetAll();

    /**
     * Render "group.counter value # desc" lines for this group and its
     * descendants, one per counter; histograms render one line per
     * summary statistic (.count/.min/.max/.mean/.p50/.p90/.p99) and
     * formulas one line each.
     */
    std::string dump(const std::string &prefix = "") const;

    /**
     * Canonical JSON for this group's subtree: 2-space indented, keys
     * sorted alphabetically within each section, empty sections
     * omitted, %.17g doubles. The same tree state always renders to
     * the same bytes. Schema: docs/observability.md.
     */
    std::string json() const;

    /**
     * Find a counter by dotted path ("core.cycles"). Distinguishes a
     * missing path from a zero-valued counter — use this whenever the
     * path comes from user input (CLI stat selections, sweep specs).
     */
    std::optional<u64> tryLookup(const std::string &dotted_path) const;

    /** Convenience wrapper around tryLookup(): 0 if absent. */
    u64 lookup(const std::string &dotted_path) const
    {
        return tryLookup(dotted_path).value_or(0);
    }

  private:
    void jsonInto(std::string *out, const std::string &indent) const;

    std::string name_;
    std::vector<Counter *> counters_;
    std::vector<Histogram *> histograms_;
    std::vector<Formula *> formulas_;
    std::vector<StatGroup *> children_;
};

/** Geometric mean of a non-empty vector (FLEX_PANIC if empty). */
double geomean(const std::vector<double> &values);

}  // namespace flexcore

#endif  // FLEXCORE_COMMON_STATS_H_
