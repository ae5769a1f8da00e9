#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/jsonutil.h"
#include "common/log.h"

namespace flexcore {

Counter::Counter(StatGroup *group, std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
    if (group)
        group->registerCounter(this);
}

Histogram::Histogram(StatGroup *group, std::string name, std::string desc,
                     Params params)
    : name_(std::move(name)), desc_(std::move(desc)), params_(params)
{
    if (params_.bins == 0)
        FLEX_PANIC("histogram '", name_, "' has zero bins");
    if (params_.log2) {
        if (params_.lo == 0)
            FLEX_PANIC("log2 histogram '", name_, "' needs lo >= 1");
        if (params_.bins >= 64)
            FLEX_PANIC("log2 histogram '", name_, "' has too many bins");
        params_.hi = params_.lo << params_.bins;
    } else if (params_.hi <= params_.lo) {
        FLEX_PANIC("histogram '", name_, "' has an empty range");
    }
    counts_.assign(params_.bins, 0);
    if (group)
        group->registerHistogram(this);
}

void
Histogram::add(u64 value, u64 n)
{
    if (n == 0)
        return;
    count_ += n;
    sum_ += value * n;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
    if (value < params_.lo) {
        underflow_ += n;
        return;
    }
    if (value >= params_.hi) {
        overflow_ += n;
        return;
    }
    u32 idx;
    if (params_.log2) {
        // floor(log2(value / lo)): 64 - countl_zero - 1 of the ratio.
        const u64 ratio = value / params_.lo;
        idx = 63u - static_cast<u32>(std::countl_zero(ratio));
    } else {
        // Exact integer binning: values on an edge go to the upper bin.
        const u64 span = params_.hi - params_.lo;
        idx = static_cast<u32>(
            static_cast<unsigned __int128>(value - params_.lo) *
            params_.bins / span);
    }
    counts_[idx] += n;
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    count_ = underflow_ = overflow_ = sum_ = 0;
    min_ = ~u64{0};
    max_ = 0;
}

double
Histogram::mean() const
{
    return count_ ? static_cast<double>(sum_) /
                        static_cast<double>(count_)
                  : 0.0;
}

u64
Histogram::binLower(u32 bin) const
{
    if (params_.log2)
        return params_.lo << bin;
    const u64 span = params_.hi - params_.lo;
    // First value that maps to this bin under add()'s integer binning.
    return params_.lo + (bin * span + params_.bins - 1) / params_.bins;
}

double
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    u64 rank = static_cast<u64>(
        std::ceil(p / 100.0 * static_cast<double>(count_)));
    rank = std::clamp<u64>(rank, 1, count_);
    u64 cumulative = underflow_;
    if (rank <= cumulative)
        return static_cast<double>(min());
    for (u32 i = 0; i < params_.bins; ++i) {
        cumulative += counts_[i];
        if (rank <= cumulative)
            return static_cast<double>(binLower(i));
    }
    return static_cast<double>(max());
}

Formula::Formula(StatGroup *group, std::string name, std::string desc,
                 std::function<double()> fn)
    : name_(std::move(name)), desc_(std::move(desc)), fn_(std::move(fn))
{
    if (group)
        group->registerFormula(this);
}

double
Formula::value() const
{
    if (!fn_)
        return 0.0;
    const double v = fn_();
    return std::isfinite(v) ? v : 0.0;
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : name_(std::move(name))
{
    if (parent)
        parent->registerChild(this);
}

void
StatGroup::registerCounter(Counter *counter)
{
    counters_.push_back(counter);
}

void
StatGroup::registerHistogram(Histogram *histogram)
{
    histograms_.push_back(histogram);
}

void
StatGroup::registerFormula(Formula *formula)
{
    formulas_.push_back(formula);
}

void
StatGroup::registerChild(StatGroup *child)
{
    children_.push_back(child);
}

void
StatGroup::resetAll()
{
    for (Counter *c : counters_)
        c->reset();
    for (Histogram *h : histograms_)
        h->reset();
    for (StatGroup *g : children_)
        g->resetAll();
}

namespace {

std::string
shortDouble(double value)
{
    if (!std::isfinite(value))
        value = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return buf;
}

}  // namespace

std::string
StatGroup::dump(const std::string &prefix) const
{
    std::ostringstream oss;
    const std::string path = prefix.empty() ? name_ : prefix + "." + name_;
    for (const Counter *c : counters_) {
        oss << path << "." << c->name() << " " << c->value()
            << " # " << c->desc() << "\n";
    }
    for (const Histogram *h : histograms_) {
        const std::string base = path + "." + h->name();
        oss << base << ".count " << h->count() << " # " << h->desc()
            << "\n";
        oss << base << ".min " << h->min() << "\n";
        oss << base << ".max " << h->max() << "\n";
        oss << base << ".mean " << shortDouble(h->mean()) << "\n";
        oss << base << ".p50 " << shortDouble(h->percentile(50)) << "\n";
        oss << base << ".p90 " << shortDouble(h->percentile(90)) << "\n";
        oss << base << ".p99 " << shortDouble(h->percentile(99)) << "\n";
    }
    for (const Formula *f : formulas_) {
        oss << path << "." << f->name() << " " << shortDouble(f->value())
            << " # " << f->desc() << "\n";
    }
    for (const StatGroup *g : children_)
        oss << g->dump(path);
    return oss.str();
}

namespace {

/** Append one histogram as a single-line JSON object. */
void
histogramJson(std::string *out, const Histogram &h)
{
    *out += "{\"count\": " + std::to_string(h.count());
    *out += ", \"min\": " + std::to_string(h.min());
    *out += ", \"max\": " + std::to_string(h.max());
    *out += ", \"mean\": " + jsonDouble(h.mean());
    *out += ", \"p50\": " + jsonDouble(h.percentile(50));
    *out += ", \"p90\": " + jsonDouble(h.percentile(90));
    *out += ", \"p99\": " + jsonDouble(h.percentile(99));
    *out += ", \"underflow\": " + std::to_string(h.underflow());
    *out += ", \"overflow\": " + std::to_string(h.overflow());
    *out += ", \"bins\": [";
    bool first = true;
    for (u32 i = 0; i < h.numBins(); ++i) {
        if (h.binCount(i) == 0)
            continue;   // sparse: only populated bins, [lower, count]
        if (!first)
            *out += ", ";
        first = false;
        *out += "[" + std::to_string(h.binLower(i)) + ", " +
                std::to_string(h.binCount(i)) + "]";
    }
    *out += "]}";
}

template <typename T>
std::vector<const T *>
sortedByName(const std::vector<T *> &items)
{
    std::vector<const T *> sorted(items.begin(), items.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const T *a, const T *b) { return a->name() < b->name(); });
    return sorted;
}

}  // namespace

void
StatGroup::jsonInto(std::string *out, const std::string &indent) const
{
    const std::string inner = indent + "  ";
    const std::string entry = inner + "  ";
    *out += "{";
    bool first_section = true;
    const auto section = [&](const char *key) {
        *out += first_section ? "\n" : ",\n";
        first_section = false;
        *out += inner + "\"" + key + "\": {\n";
    };

    if (!counters_.empty()) {
        section("counters");
        const auto sorted = sortedByName(counters_);
        for (size_t i = 0; i < sorted.size(); ++i) {
            *out += entry + "\"" + jsonEscape(sorted[i]->name()) +
                    "\": " + std::to_string(sorted[i]->value());
            *out += (i + 1 < sorted.size()) ? ",\n" : "\n";
        }
        *out += inner + "}";
    }
    if (!formulas_.empty()) {
        section("formulas");
        const auto sorted = sortedByName(formulas_);
        for (size_t i = 0; i < sorted.size(); ++i) {
            *out += entry + "\"" + jsonEscape(sorted[i]->name()) +
                    "\": " + jsonDouble(sorted[i]->value());
            *out += (i + 1 < sorted.size()) ? ",\n" : "\n";
        }
        *out += inner + "}";
    }
    if (!histograms_.empty()) {
        section("histograms");
        const auto sorted = sortedByName(histograms_);
        for (size_t i = 0; i < sorted.size(); ++i) {
            *out += entry + "\"" + jsonEscape(sorted[i]->name()) + "\": ";
            histogramJson(out, *sorted[i]);
            *out += (i + 1 < sorted.size()) ? ",\n" : "\n";
        }
        *out += inner + "}";
    }
    if (!children_.empty()) {
        section("groups");
        const auto sorted = sortedByName(children_);
        for (size_t i = 0; i < sorted.size(); ++i) {
            *out += entry + "\"" + jsonEscape(sorted[i]->name()) + "\": ";
            sorted[i]->jsonInto(out, entry);
            *out += (i + 1 < sorted.size()) ? ",\n" : "\n";
        }
        *out += inner + "}";
    }
    *out += first_section ? "}" : "\n" + indent + "}";
}

std::string
StatGroup::json() const
{
    std::string out;
    jsonInto(&out, "");
    out += "\n";
    return out;
}

std::optional<u64>
StatGroup::tryLookup(const std::string &dotted_path) const
{
    const auto dot = dotted_path.find('.');
    if (dot == std::string::npos) {
        for (const Counter *c : counters_) {
            if (c->name() == dotted_path)
                return c->value();
        }
        return std::nullopt;
    }
    const std::string head = dotted_path.substr(0, dot);
    const std::string tail = dotted_path.substr(dot + 1);
    for (const StatGroup *g : children_) {
        if (g->name() == head)
            return g->tryLookup(tail);
    }
    return std::nullopt;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        FLEX_PANIC("geomean of empty vector");
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace flexcore
