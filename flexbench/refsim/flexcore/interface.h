/**
 * @file
 * The core-fabric interface module (§III-C): forwarding configuration
 * register, forward FIFO with clock-domain-crossing latency, back FIFO
 * (BFIFO) for 'read from co-processor' values, and the CTRL signals
 * (CACK, EMPTY, TRAP, PACK).
 */

#ifndef FLEXCORE_FLEXCORE_INTERFACE_H_
#define FLEXCORE_FLEXCORE_INTERFACE_H_

#include <deque>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "flexcore/cfgr.h"
#include "flexcore/packet.h"

namespace flexcore {

/** Outcome of offering a committing instruction to the interface. */
enum class CommitAction : u8 {
    kProceed,    //!< commit may complete this cycle
    kStall,      //!< FIFO full under kAlways/kWaitAck: retry next cycle
    kWaitAck,    //!< enqueued; commit must wait for CACK
};

class FlexInterface
{
  public:
    struct Params
    {
        u32 fifo_depth = 64;     //!< forward FIFO entries (§V-A default)
        u32 sync_cycles = 1;     //!< CDC synchronizer latency, core cycles
    };

    FlexInterface(StatGroup *parent, Params params);

    /**
     * Size the per-core response state (BFIFO lanes, CACK flags) for a
     * shared (time-multiplexed) interface serving @p cores cores.
     * Defaults to 1; per-core interfaces never call it. Cores offer in
     * core-index order within a cycle, which is the push arbitration —
     * deterministic by construction (docs/multicore.md).
     */
    void setNumCores(u32 cores);

    Cfgr &cfgr() { return cfgr_; }
    const Cfgr &cfgr() const { return cfgr_; }

    // ---- Core side ----

    /**
     * Offer a committing instruction. Applies the CFGR policy for its
     * class; pushes a packet when the policy and occupancy allow.
     */
    CommitAction offer(const CommitPacket &packet, Cycle now);

    /** TRAP signal from the fabric; sticky until acknowledged (PACK). */
    bool trapPending() const { return trap_pending_; }
    Addr trapPc() const { return trap_pc_; }
    /** Core whose packet raised the pending trap (0 single-core). */
    u8 trapCore() const { return trap_core_; }
    /** PACK: acknowledge the trap. */
    void ackTrap() { trap_pending_ = false; }

    /** CACK arrived for @p core's in-flight wait-ack instruction. */
    bool ackReady(u8 core = 0) const
    {
        return (ack_ready_mask_ & (1u << core)) != 0;
    }
    void consumeAck(u8 core = 0) { ack_ready_mask_ &= ~(1u << core); }

    /** Pop a BFIFO value for @p core ('read from co-processor'). */
    std::optional<u32> popBfifo(u8 core = 0);

    /** EMPTY: no packet queued and the fabric pipeline is drained. */
    bool empty() const { return fifo_count_ == 0 && fabric_idle_; }

    // ---- Fabric side ----

    /** Dequeue the next packet whose synchronizer delay has elapsed. */
    std::optional<CommitPacket> popReady(Cycle now);

    /**
     * Zero-copy variant: the head packet if its synchronizer delay has
     * elapsed, else null. The pointer stays valid until popFront().
     */
    const CommitPacket *
    peekReady(Cycle now) const
    {
        if (fifo_count_ == 0 || fifo_[fifo_head_].ready_at > now)
            return nullptr;
        return &fifo_[fifo_head_].packet;
    }

    /** Drop the head packet (pairs with a non-null peekReady()). */
    void
    popFront()
    {
        fifo_head_ = (fifo_head_ + 1) & fifo_mask_;
        --fifo_count_;
    }

    /** Fabric reports pipeline-idle status each fabric cycle. */
    void setFabricIdle(bool idle) { fabric_idle_ = idle; }

    /** CACK for @p core's completed wait-ack packet. */
    void signalAck(u8 core = 0) { ack_ready_mask_ |= 1u << core; }

    /** Push a 'read from co-processor' return value for @p core. */
    void pushBfifo(u32 value, u8 core = 0)
    {
        bfifo_[core].push_back(value);
    }

    /** Fabric raises an exception (imprecise; PC is informational).
     * @p core attributes it to the offending packet's core. */
    void raiseTrap(Addr pc, u8 core = 0);

    /**
     * Fault-injection hook: mutable access to the @p pick-th queued
     * packet (modulo the current occupancy, oldest first), or null
     * when the FIFO is empty. Only the fault injector uses this to
     * corrupt in-flight packet fields.
     */
    CommitPacket *
    queuedPacket(u32 pick)
    {
        if (fifo_count_ == 0)
            return nullptr;
        const u32 idx =
            (fifo_head_ + pick % fifo_count_) & fifo_mask_;
        return &fifo_[idx].packet;
    }

    // ---- Introspection / statistics ----

    u32 fifoDepth() const { return params_.fifo_depth; }
    size_t fifoSize() const { return fifo_count_; }
    bool fifoFull() const { return fifo_count_ >= params_.fifo_depth; }

    /**
     * Record the current FFIFO occupancy into the occupancy histogram.
     * Called once per core cycle by System when histogram sampling is
     * enabled (SystemConfig::histograms); costs nothing otherwise.
     */
    void sampleOccupancy() { occupancy_.add(fifo_count_); }
    /** Record @p n per-cycle samples at once (fast-forward stretches). */
    void sampleOccupancy(u64 n) { occupancy_.add(fifo_count_, n); }
    const Histogram &occupancyHistogram() const { return occupancy_; }

    u64 forwardedCount() const { return forwarded_.value(); }
    u64 droppedCount() const { return dropped_.value(); }
    u64 stallCycles() const { return commit_stalls_.value(); }
    u64 forwardedOfType(InstrType type) const
    {
        return forwarded_by_type_[type];
    }

  private:
    // The threaded burst engine (src/core/threaded.cc) inlines the
    // common-case offer() push to keep superblock commits branch-lean;
    // it replicates this class's bookkeeping byte-exactly.
    friend class ThreadedEngine;

    struct Entry
    {
        CommitPacket packet;
        Cycle ready_at = 0;
    };

    Params params_;
    Cfgr cfgr_;
    /**
     * The forward FIFO, as a fixed ring buffer: offer() never pushes
     * past fifo_depth entries, and a bounded ring avoids the per-chunk
     * heap traffic a deque of ~90-byte entries would generate on the
     * commit path. The ring is allocated at the next power of two of
     * fifo_depth so indices wrap with a mask — `% size()` on a runtime
     * size is a hardware divide on an index computed at least once per
     * forwarded commit and once per fabric dequeue. Occupancy is still
     * bounded by fifo_depth (fifoFull()); fifo_count_ is the fill.
     */
    std::vector<Entry> fifo_;
    u32 fifo_mask_ = 0;
    u32 fifo_head_ = 0;
    u32 fifo_count_ = 0;
    /** One BFIFO lane per core (index 0 is the whole single-core FIFO). */
    std::vector<std::deque<u32>> bfifo_;
    bool fabric_idle_ = true;
    u32 ack_ready_mask_ = 0;   //!< CACK flags, one bit per core
    bool trap_pending_ = false;
    Addr trap_pc_ = 0;
    u8 trap_core_ = 0;

    StatGroup stats_;
    Counter forwarded_;
    Counter dropped_;
    Counter commit_stalls_;
    Counter traps_;
    Histogram occupancy_;
    Formula fill_frac_;
    u64 forwarded_by_type_[kNumInstrTypes] = {};
};

}  // namespace flexcore

#endif  // FLEXCORE_FLEXCORE_INTERFACE_H_
