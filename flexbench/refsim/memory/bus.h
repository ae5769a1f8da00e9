/**
 * @file
 * Shared memory bus with per-port transaction queues and deterministic
 * round-robin arbitration. Every core's I/D refills and write-through
 * store buffer, plus the meta-data cache's refills/writebacks, compete
 * here; a long meta-data refill therefore delays core misses exactly
 * as described in §V-C. With a single port (the default) the
 * round-robin grant degenerates to the original FCFS queue, bit for
 * bit; multi-core systems call setNumPorts(N) and tag each request
 * with its issuing core's port (docs/multicore.md).
 */

#ifndef FLEXCORE_MEMORY_BUS_H_
#define FLEXCORE_MEMORY_BUS_H_

#include <deque>
#include <functional>
#include <vector>

#include "common/stats.h"
#include "common/trace_event.h"
#include "common/types.h"
#include "memory/sdram.h"

namespace flexcore {

/** One queued bus transaction. */
struct BusRequest
{
    BusOp op = BusOp::kReadLine;
    Addr addr = 0;
    /** Invoked on the cycle the transaction completes. May be empty.
     * Kept third so {op, addr, callback} aggregates stay completion
     * callbacks. */
    std::function<void()> on_complete;
    /**
     * Invoked when the transaction reaches the head of the queue and
     * occupies the bus (synchronously from request() when the bus is
     * idle). Lets requesters split queueing delay from service time.
     * May be empty.
     */
    std::function<void()> on_start;
    /** Request port (core index); 0 for single-core and shared users. */
    u8 port = 0;
};

class Bus
{
  public:
    Bus(StatGroup *parent, const SdramTimings &timings);

    /**
     * Size the arbitration ports (default 1). Within a port requests
     * are FCFS; across ports the grant rotates round-robin from the
     * port after the last winner, so the interleave is a pure function
     * of the request schedule (deterministic for any host).
     */
    void setNumPorts(u32 ports);

    /** Enqueue a transaction on its port's queue. */
    void request(BusRequest req);

    /**
     * Advance one core-clock cycle. The bus is idle on the vast
     * majority of cycles, and an idle tick with sampling and tracing
     * off reduces to advancing the clock — keep that path inline.
     */
    void
    tick()
    {
        if (active_ || sampling_ || trace_ || queued_ != 0) {
            tickBusy();
            return;
        }
        ++now_;
    }

    /** True when no transaction is active or queued. */
    bool idle() const { return !active_ && queued_ == 0; }

    /** Transactions waiting behind the active one (all ports). */
    size_t queueDepth() const { return queued_; }

    /** Cycles until the active transaction completes (0 when idle). */
    u32 remainingCycles() const { return active_ ? remaining_ : 0; }

    /**
     * Bulk-advance @p cycles quiescent cycles at once: all queues must
     * be empty and any active transaction must have more than @p cycles
     * remaining, so the only per-cycle work is counter accrual. Charges
     * exactly what @p cycles calls to tick() would.
     */
    void advanceIdle(u64 cycles);

    /**
     * Enable per-cycle queue-depth sampling into the queue_depth
     * histogram (off by default: one branch per tick when disabled).
     */
    void setSampling(bool on) { sampling_ = on; }

    /** Attach a trace-event sink (null = off, the default). */
    void setTraceSink(TraceSink *sink) { trace_ = sink; }

    /** Close the SDRAM row-run histograms (call at end of run). */
    void flushObservers() { row_model_.flush(); }

    const StatGroup &stats() const { return stats_; }

  private:
    void startNext();
    /** Slow path of tick(): active transaction, sampling, or tracing. */
    void tickBusy();

    SdramTimings timings_;
    /** Per-port FCFS queues; ports_.size() is the port count. */
    std::vector<std::deque<BusRequest>> ports_;
    size_t queued_ = 0;       //!< total requests across all ports
    u32 rr_next_ = 0;         //!< round-robin scan start
    bool active_ = false;
    BusRequest current_;
    u32 remaining_ = 0;

    bool sampling_ = false;
    TraceSink *trace_ = nullptr;
    /**
     * Internal cycle counter (tick() takes no argument). It runs one
     * ahead of the core's clock for requests issued later in the same
     * system cycle, so trace timestamps can be off by one cycle; the
     * durations themselves are exact.
     */
    Cycle now_ = 0;
    Cycle current_start_ = 0;
    size_t traced_depth_ = 0;

    StatGroup stats_;
    Counter line_reads_;
    Counter line_writes_;
    Counter word_writes_;
    Counter busy_cycles_;
    Counter queue_cycles_;
    Histogram queue_depth_;
    SdramRowModel row_model_;
};

}  // namespace flexcore

#endif  // FLEXCORE_MEMORY_BUS_H_
