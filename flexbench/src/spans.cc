#include "spans.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <unordered_map>

namespace fb {

namespace {

std::atomic<bool> g_on{false};
std::atomic<u64> g_next_id{1};
std::atomic<u32> g_next_thread{1};
std::mutex g_mutex;
std::vector<SpanRecord> g_spans;

thread_local u64 t_parent = 0;
thread_local u64 t_request = 0;
thread_local u32 t_thread = 0;

u32
threadIndex()
{
    if (t_thread == 0)
        t_thread = g_next_thread.fetch_add(1);
    return t_thread;
}

}  // namespace

void
setTracing(bool on)
{
    g_on.store(on);
}

bool
tracing()
{
    return g_on.load(std::memory_order_relaxed);
}

std::vector<SpanRecord>
recordedSpans()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    return g_spans;
}

Span::Span(const char *name, u64 request)
{
    rec_.name = name;
    rec_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
    rec_.parent = t_parent;
    rec_.request = request == kInherit ? t_request : request;
    rec_.thread = threadIndex();
    saved_parent_ = t_parent;
    saved_request_ = t_request;
    t_parent = rec_.id;
    t_request = rec_.request;
    rec_.start = wallNow();
}

Span::~Span()
{
    end();
}

double
Span::end()
{
    if (open_) {
        rec_.end = wallNow();
        open_ = false;
        t_parent = saved_parent_;
        t_request = saved_request_;
        if (tracing()) {
            std::lock_guard<std::mutex> lock(g_mutex);
            g_spans.push_back(rec_);
        }
    }
    return rec_.end - rec_.start;
}

std::map<std::string, SpanTotals>
spanTotals(const std::vector<SpanRecord> &spans)
{
    // Children nest inside their parent on one thread, so the time
    // they cover is the sum of the direct children's durations.
    std::unordered_map<u64, double> child_time;
    for (const SpanRecord &s : spans) {
        if (s.parent != 0)
            child_time[s.parent] += s.end - s.start;
    }
    std::map<std::string, SpanTotals> totals;
    for (const SpanRecord &s : spans) {
        SpanTotals &t = totals[s.name];
        const double dur = s.end - s.start;
        ++t.count;
        t.total_s += dur;
        const auto it = child_time.find(s.id);
        t.self_s += dur - (it == child_time.end() ? 0.0 : it->second);
    }
    return totals;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<SpanRecord> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    double t0 = spans.empty() ? 0.0 : spans.front().start;
    for (const SpanRecord &s : spans)
        t0 = std::min(t0, s.start);
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"cat\": \"flexbench\", "
                     "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": "
                     "%llu, \"parent\": %llu, \"request\": %llu}}",
                     i ? ",\n" : "", s.name, s.thread,
                     (s.start - t0) * 1e6, (s.end - s.start) * 1e6,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request));
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

}  // namespace fb
