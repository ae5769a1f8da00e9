#include "core/profile.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>

namespace flexcore {

namespace {

/** Bucket indices in alphabetical order of their episode names, so the
 * JSON objects keyed by bucket name come out sorted. */
std::array<unsigned, PcProfile::kNumBuckets>
sortedBuckets()
{
    std::array<unsigned, PcProfile::kNumBuckets> order;
    for (unsigned i = 0; i < PcProfile::kNumBuckets; ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [](unsigned a, unsigned b) {
        return Core::cycleBucketName(
                   static_cast<Core::CycleBucket>(a)) <
               Core::cycleBucketName(static_cast<Core::CycleBucket>(b));
    });
    return order;
}

void
appendPc(std::string *out, Addr pc)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%08" PRIx64,
                  static_cast<u64>(pc));
    *out += buf;
}

void
appendU64(std::string *out, u64 v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    *out += buf;
}

}  // namespace

void
PcProfile::onProgramLoad(Addr base, u32 size_bytes)
{
    base_ = base;
    words_ = (size_bytes + 3) / 4;
    cells_.assign((static_cast<size_t>(words_) + 1) * kNumBuckets, 0);
    total_ = 0;
}

u64
PcProfile::bucketTotal(Core::CycleBucket bucket) const
{
    const unsigned b = static_cast<unsigned>(bucket);
    u64 sum = 0;
    for (size_t row = 0; row <= words_; ++row)
        sum += cells_[row * kNumBuckets + b];
    return sum;
}

u64
PcProfile::pcTotal(Addr pc) const
{
    const size_t row = index(pc);
    u64 sum = 0;
    for (unsigned b = 0; b < kNumBuckets; ++b)
        sum += cells_[row * kNumBuckets + b];
    return sum;
}

u64
PcProfile::overflowTotal() const
{
    u64 sum = 0;
    for (unsigned b = 0; b < kNumBuckets; ++b)
        sum += cells_[static_cast<size_t>(words_) * kNumBuckets + b];
    return sum;
}

std::string
PcProfile::json(u32 top_n) const
{
    const auto order = sortedBuckets();

    // Row totals once; reused by both the top-N scan and the pc list.
    std::vector<u64> row_total(words_ + 1, 0);
    for (size_t row = 0; row <= words_; ++row) {
        for (unsigned b = 0; b < kNumBuckets; ++b)
            row_total[row] += cells_[row * kNumBuckets + b];
    }

    std::string out;
    out.reserve(512);
    out += "{\"base\": \"";
    appendPc(&out, base_);
    out += "\", \"buckets\": {";
    for (unsigned i = 0; i < kNumBuckets; ++i) {
        const unsigned b = order[i];
        if (i)
            out += ", ";
        out += '"';
        out += Core::cycleBucketName(static_cast<Core::CycleBucket>(b));
        out += "\": ";
        appendU64(&out,
                  bucketTotal(static_cast<Core::CycleBucket>(b)));
    }
    out += "}, \"cycles\": ";
    appendU64(&out, total_);
    out += ", \"overflow\": ";
    appendU64(&out, overflowTotal());

    // Per-PC rows, ascending PC, nonzero rows only. The overflow row
    // has no meaningful PC; it is reported via "overflow" above.
    out += ", \"pcs\": [";
    bool first_row = true;
    for (size_t row = 0; row < words_; ++row) {
        if (row_total[row] == 0)
            continue;
        if (!first_row)
            out += ", ";
        first_row = false;
        out += "{\"pc\": \"";
        appendPc(&out, base_ + static_cast<Addr>(row * 4));
        out += "\", \"total\": ";
        appendU64(&out, row_total[row]);
        for (unsigned i = 0; i < kNumBuckets; ++i) {
            const unsigned b = order[i];
            const u64 v = cells_[row * kNumBuckets + b];
            if (v == 0)
                continue;
            out += ", \"";
            out += Core::cycleBucketName(
                static_cast<Core::CycleBucket>(b));
            out += "\": ";
            appendU64(&out, v);
        }
        out += '}';
    }
    out += ']';

    // Top-N PCs per bucket: cycles descending, PC ascending on ties.
    out += ", \"top\": {";
    for (unsigned i = 0; i < kNumBuckets; ++i) {
        const unsigned b = order[i];
        if (i)
            out += ", ";
        out += '"';
        out += Core::cycleBucketName(static_cast<Core::CycleBucket>(b));
        out += "\": [";
        std::vector<std::pair<u64, size_t>> rows;   // (cycles, row)
        for (size_t row = 0; row < words_; ++row) {
            const u64 v = cells_[row * kNumBuckets + b];
            if (v > 0)
                rows.emplace_back(v, row);
        }
        std::sort(rows.begin(), rows.end(),
                  [](const auto &a, const auto &c) {
                      if (a.first != c.first)
                          return a.first > c.first;
                      return a.second < c.second;
                  });
        if (rows.size() > top_n)
            rows.resize(top_n);
        for (size_t k = 0; k < rows.size(); ++k) {
            if (k)
                out += ", ";
            out += "{\"cycles\": ";
            appendU64(&out, rows[k].first);
            out += ", \"pc\": \"";
            appendPc(&out, base_ + static_cast<Addr>(rows[k].second * 4));
            out += "\"}";
        }
        out += ']';
    }
    out += "}}";
    return out;
}

}  // namespace flexcore
