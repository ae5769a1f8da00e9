/**
 * @file
 * In-memory span recorder for the traced run. The benchmark wraps its
 * own calls into each src/ module in a Span; a span carries its layer
 * name, start, end, parent span and a request id shared by the spans
 * of one request or cell. Recording is off unless the run was started
 * with --trace 1, and end-to-end metrics are never taken from a
 * traced run. Spans are kept in memory and written when the run ends
 * as Chrome trace-event JSON, which Perfetto loads.
 */

#ifndef FLEXBENCH_SPANS_H_
#define FLEXBENCH_SPANS_H_

#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace fb {

struct SpanRecord
{
    const char *name = "";
    double start = 0;   //!< seconds, wallNow() clock
    double end = 0;
    u64 id = 0;
    u64 parent = 0;     //!< 0 = root
    u64 request = 0;
    u32 thread = 0;
};

/** Per-layer aggregate over every span of one name. */
struct SpanTotals
{
    u64 count = 0;
    double total_s = 0;
    double self_s = 0;   //!< total minus time covered by child spans
};

/** Turn recording on or off (off by default). */
void setTracing(bool on);
bool tracing();

/** Every span recorded so far, in completion order. */
std::vector<SpanRecord> recordedSpans();

/** Sum durations and self times by span name. */
std::map<std::string, SpanTotals> spanTotals(
    const std::vector<SpanRecord> &spans);

/** Write @p spans as Chrome trace-event JSON to @p path. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<SpanRecord> &spans);

/**
 * RAII span. It always measures its own duration (end()), so the
 * untraced path can time calls too; it is recorded only while tracing
 * is on. Nested spans on one thread become children of the innermost
 * open span and inherit its request id unless given their own.
 */
class Span
{
  public:
    static constexpr u64 kInherit = ~0ull;

    explicit Span(const char *name, u64 request = kInherit);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Close the span now (idempotent); returns its duration. */
    double end();

  private:
    SpanRecord rec_;
    u64 saved_parent_ = 0;
    u64 saved_request_ = 0;
    bool open_ = true;
};

}  // namespace fb

#endif  // FLEXBENCH_SPANS_H_
