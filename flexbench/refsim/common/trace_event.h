/**
 * @file
 * Trace-sink interface plus the buffered Chrome trace-event emitter
 * (loadable in Perfetto and chrome://tracing). Components hold a
 * `TraceSink *` that is null when tracing is off, so the hot path pays
 * exactly one predictable branch and no virtual dispatch; only with a
 * sink attached do emissions go through the interface, to either:
 *
 *  - `TraceBuffer` — buffers POD events in memory and renders the
 *    Chrome trace-event JSON once at the end of the run; or
 *  - `TraceStreamWriter` (common/trace_stream.h) — encodes each event
 *    into the bounded-memory binary record stream as it happens.
 *
 * Timestamps are simulated core-clock cycles reported in the trace's
 * microsecond field (1 cycle == 1 us), which keeps the viewer's zoom
 * and duration arithmetic exact.
 */

#ifndef FLEXCORE_COMMON_TRACE_EVENT_H_
#define FLEXCORE_COMMON_TRACE_EVENT_H_

#include <string>
#include <vector>

#include "common/types.h"

namespace flexcore {

/**
 * Receiver of simulation trace emissions. Names and categories must be
 * string *literals* (or otherwise outlive the sink): implementations
 * may store them by pointer.
 *
 * The first three events map one-to-one onto Chrome trace-event
 * phases; the last three are richer records that only the binary
 * stream persists (`TraceBuffer` ignores them so its Chrome JSON stays
 * byte-identical to what it produced before they existed).
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /**
     * Counter track sample ("ph":"C"). Call on value *changes* only —
     * Chrome draws steps between samples, so per-cycle emission would
     * bloat the file without adding information.
     */
    virtual void counter(const char *name, Cycle ts, u64 value) = 0;

    /** Complete duration event ("ph":"X") covering [start, end). */
    virtual void complete(const char *name, const char *cat, u32 tid,
                          Cycle start, Cycle end) = 0;

    /** Instant event ("ph":"i", global scope). */
    virtual void instant(const char *name, const char *cat, u32 tid,
                         Cycle ts) = 0;

    /** One committed instruction (stream-only record). */
    virtual void commit(Cycle now, Addr pc, u32 inst)
    {
        (void)now; (void)pc; (void)inst;
    }

    /** An applied fault injection (stream-only record). */
    virtual void faultMark(Cycle now, u8 kind, u64 target, u8 bit)
    {
        (void)now; (void)kind; (void)target; (void)bit;
    }

    /**
     * A sampled-timing window boundary (stream-only record):
     * @p detailed is true entering a detailed window, false entering
     * functional warming. @p instructions is the commit count so far.
     */
    virtual void window(Cycle now, u64 instructions, bool detailed)
    {
        (void)now; (void)instructions; (void)detailed;
    }
};

/** Buffers events in memory; renders Chrome trace-event JSON once. */
class TraceBuffer final : public TraceSink
{
  public:
    void
    counter(const char *name, Cycle ts, u64 value) override
    {
        events_.push_back({Kind::kCounter, name, nullptr, 0, ts, value});
    }

    void
    complete(const char *name, const char *cat, u32 tid, Cycle start,
             Cycle end) override
    {
        events_.push_back(
            {Kind::kComplete, name, cat, tid, start,
             end > start ? end - start : 0});
    }

    void
    instant(const char *name, const char *cat, u32 tid, Cycle ts) override
    {
        events_.push_back({Kind::kInstant, name, cat, tid, ts, 0});
    }

    bool empty() const { return events_.empty(); }
    size_t size() const { return events_.size(); }
    void clear() { events_.clear(); }

    /** Render the Chrome trace-event JSON document. */
    std::string json() const;

    /** Write json() to @p path (FLEX_FATAL on I/O failure). */
    void write(const std::string &path) const;

  private:
    enum class Kind : u8 { kCounter, kComplete, kInstant };

    /**
     * One buffered event. Names and categories are stored by pointer
     * so the per-event cost is a 40-byte append, cheap enough to leave
     * call sites unguarded beyond the null-sink check.
     */
    struct Event
    {
        Kind kind;
        const char *name;
        const char *cat;
        u32 tid;
        Cycle ts;
        u64 aux;   //!< counter value or duration
    };

    std::vector<Event> events_;
};

}  // namespace flexcore

#endif  // FLEXCORE_COMMON_TRACE_EVENT_H_
