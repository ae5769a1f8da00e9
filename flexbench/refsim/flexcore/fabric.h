/**
 * @file
 * Timing model of the reconfigurable fabric (or, at period 1 with no
 * synchronizers, of an ASIC extension). The fabric runs at an integer
 * divisor of the core clock, dequeues at most one FFIFO packet per
 * fabric cycle into a pipelined monitor, and freezes while a meta-data
 * cache miss is serviced over the shared bus. Extra meta-data cache
 * operations beyond a packet's first (e.g. the read+write of a BC
 * store, or read-modify-write when bit-mask writes are disabled) block
 * packet input for one fabric cycle each, exactly like a structural
 * hazard on the single cache port.
 */

#ifndef FLEXCORE_FLEXCORE_FABRIC_H_
#define FLEXCORE_FLEXCORE_FABRIC_H_

#include <deque>
#include <vector>

#include "common/stats.h"
#include "flexcore/interface.h"
#include "memory/bus.h"
#include "memory/meta_cache.h"
#include "monitors/monitor.h"

namespace flexcore {

/**
 * Optional meta-data TLB (§III-B: "optionally a TLB if virtual memory
 * is supported"). The paper's prototype omits it, so it defaults off;
 * when enabled, every meta-data access is translated first, and a TLB
 * miss freezes the fabric for a page-table walk on the shared bus.
 */
struct MetaTlbParams
{
    bool enabled = false;
    u32 entries = 16;        //!< direct-mapped
    u32 page_shift = 12;     //!< 4 KB pages
};

struct FabricParams
{
    /** Core cycles per fabric cycle: 1 = ASIC/1X, 2 = 0.5X, 4 = 0.25X. */
    u32 period = 2;
    /** Core-side instruction pre-decoding (§III-C; ablation knob). */
    bool predecode = true;
    CacheParams meta_cache{4 * 1024, 32, 4};
    /** Bit-granularity meta-data writes (§III-D; ablation knob). */
    bool bitmask_writes = true;
    MetaTlbParams tlb;
    /** Record the freeze-run-length histogram (SystemConfig mirrors). */
    bool histograms = false;
};

class Fabric
{
  public:
    Fabric(StatGroup *parent, FlexInterface *iface, Bus *bus,
           Monitor *monitor, FabricParams params);

    /**
     * Advance one *core* cycle (internally divided to fabric cycles).
     * Called every system cycle; on most of them the divider does not
     * wrap and nothing happens, so that path is inline.
     */
    void
    tick(Cycle now)
    {
        if (++divider_ >= params_.period) {
            divider_ = 0;
            boundary(now);
        }
        iface_->setFabricIdle(idle());
    }

    /**
     * Bulk-advance @p cycles quiescent core cycles. Only legal while
     * idle(): every divided fabric cycle inside the stretch would be a
     * no-op, so only the clock divider (and a possibly unflushed
     * freeze-run histogram entry) needs updating.
     */
    void advanceIdle(u64 cycles);

    /** True when no packet is buffered or in flight. */
    bool
    idle() const
    {
        return !have_pending_ && !frozen_ && pipe_count_ == 0 &&
               iface_->fifoSize() == 0;
    }

    MetaCache &metaCache() { return meta_cache_; }
    Monitor *monitor() { return monitor_; }
    const FabricParams &params() const { return params_; }

    /** Bus arbitration port for meta refills/walks (default 0). A
     * per-core fabric uses its core's port; a shared fabric keeps 0. */
    void setBusPort(u8 port) { bus_port_ = port; }

    /**
     * Shared-topology monitor bank: one monitor instance per core, all
     * of the same kind, so each core's shadow/meta-data state stays
     * private while one time-multiplexed fabric does the processing.
     * Packets dispatch to @p bank[packet.core]; bank[0] must equal the
     * constructor's monitor. Unset (the default, and always for
     * per-core fabrics) every packet goes to the constructor's monitor.
     */
    void setMonitorBank(std::vector<Monitor *> bank)
    {
        monitor_bank_ = std::move(bank);
    }

    /** True while a meta refill / table walk is in flight on the bus. */
    bool frozen() const { return frozen_; }

    /**
     * Attach a trace sink (null = off). Frozen stretches then emit
     * `fabric_freeze` duration events on tid 3, independent of the
     * freeze-run histogram (which needs SystemConfig::histograms).
     */
    void setTraceSink(TraceSink *sink) { trace_ = sink; }
    /** Close an open freeze episode (end of run). */
    void flushTrace(Cycle now);

    u64 packetsProcessed() const { return packets_.value(); }
    u64 metaStallCycles() const { return meta_stall_cycles_.value(); }
    u64 tlbMisses() const { return tlb_misses_.value(); }

  private:
    // The threaded burst engine's functional-warming path reuses the
    // monitor-processing recipe of fabricCycle() without the timing
    // pipe; it needs the same private monitor/interface handles.
    friend class ThreadedEngine;

    /** Deferred side effects applied when a packet leaves the pipe. */
    struct InFlight
    {
        u32 remaining = 0;   // fabric cycles until completion
        bool wants_ack = false;
        bool trap = false;
        const char *trap_reason = nullptr;
        bool has_bfifo = false;
        u32 bfifo = 0;
        Addr pc = 0;
        u8 core = 0;         // routes CACK/BFIFO/TRAP (shared fabric)
    };

    /** One fabric-clock boundary: freeze bookkeeping + fabricCycle. */
    void boundary(Cycle now);
    void fabricCycle(Cycle now);
    /** Access the meta cache; returns false if frozen on a miss. */
    bool metaAccess(const MetaAccess &op);
    /** TLB lookup; returns false if frozen on a table walk. */
    bool tlbLookup(Addr meta_addr);

    /** Monitor handling @p core's packets (bank lookup or the default). */
    Monitor *
    monitorFor(u8 core) const
    {
        return monitor_bank_.empty() ? monitor_ : monitor_bank_[core];
    }

    FlexInterface *iface_;
    Bus *bus_;
    Monitor *monitor_;
    std::vector<Monitor *> monitor_bank_;   //!< shared topology only
    FabricParams params_;
    MetaCache meta_cache_;

    u32 divider_ = 0;
    u8 bus_port_ = 0;              // bus arbitration port for refills
    bool frozen_ = false;          // waiting on a meta refill
    u32 decode_phase_ = 0;         // LUT-decoder occupancy (no predecode)
    /**
     * The monitor pipeline, as a fixed ring: at most one packet enters
     * per fabric cycle and each retires after pipelineDepth() cycles,
     * so occupancy never exceeds pipelineDepth() + 1. The ring is
     * allocated at the next power of two of that bound so the per-cycle
     * advance/retire indices wrap with a mask, not a divide.
     * pipe_count_ is the fill.
     */
    std::vector<InFlight> pipe_;
    u32 pipe_mask_ = 0;
    u32 pipe_head_ = 0;
    u32 pipe_count_ = 0;

    /** Append to the monitor pipeline ring. */
    void
    pipePush(const InFlight &flight)
    {
        pipe_[(pipe_head_ + pipe_count_) & pipe_mask_] = flight;
        ++pipe_count_;
    }

    /** Direct-mapped meta-data TLB entries (valid + tag = VPN). */
    struct TlbEntry
    {
        bool valid = false;
        u32 vpn = 0;
    };
    std::vector<TlbEntry> tlb_;

    // A dequeued packet whose extra cache ops are still draining.
    bool have_pending_ = false;
    InFlight pending_effects_;
    std::array<MetaAccess, 4> pending_ops_;
    unsigned pending_num_ops_ = 0;
    unsigned pending_idx_ = 0;
    u32 pending_extra_input_block_ = 0;   // e.g. LUT decode w/o predecode

    u64 freeze_run_ = 0;   //!< fabric cycles in the current frozen run

    TraceSink *trace_ = nullptr;
    /** Core cycle the open freeze episode started (kCycleNever: none).
     * Episodes open and close at fabric-clock boundaries, so they can
     * never span a quiescent fast-forward stretch (the fabric is not
     * idle while frozen, nor until the post-unfreeze boundary has
     * processed the pending packet) — trace output stays byte-identical
     * with fast-forward on or off, like the core's episodes. */
    Cycle freeze_start_ = kCycleNever;

    StatGroup stats_;
    Counter packets_;
    Counter meta_accesses_;
    Counter meta_misses_;
    Counter meta_stall_cycles_;
    Counter input_block_cycles_;
    Counter tlb_hits_;
    Counter tlb_misses_;
    Histogram freeze_runs_;
};

}  // namespace flexcore

#endif  // FLEXCORE_FLEXCORE_FABRIC_H_
