#include "flexcore/fabric.h"

#include <bit>

namespace flexcore {

Fabric::Fabric(StatGroup *parent, FlexInterface *iface, Bus *bus,
               Monitor *monitor, FabricParams params)
    : iface_(iface),
      bus_(bus),
      monitor_(monitor),
      params_(params),
      meta_cache_(parent, params.meta_cache, params.bitmask_writes),
      stats_("fabric", parent),
      packets_(&stats_, "packets", "packets processed"),
      meta_accesses_(&stats_, "meta_accesses", "meta-data cache accesses"),
      meta_misses_(&stats_, "meta_misses", "meta-data cache misses"),
      meta_stall_cycles_(&stats_, "meta_stall_cycles",
                         "fabric cycles frozen on meta refills"),
      input_block_cycles_(&stats_, "input_block_cycles",
                          "fabric cycles input was blocked by extra ops"),
      tlb_hits_(&stats_, "tlb_hits", "meta-data TLB hits"),
      tlb_misses_(&stats_, "tlb_misses", "meta-data TLB misses"),
      freeze_runs_(&stats_, "freeze_runs",
                   "fabric cycles per contiguous meta-refill freeze",
                   Histogram::Params{1, 0, 12, true})
{
    if (params_.tlb.enabled)
        tlb_.resize(params_.tlb.entries);
    // Ring capacity: one packet enters per fabric cycle and retires
    // after pipelineDepth() cycles, so depth + 2 slots always suffice;
    // round up to a power of two so indices wrap with pipe_mask_.
    pipe_.resize(std::bit_ceil((monitor_ ? monitor_->pipelineDepth() : 0u)
                               + 2u));
    pipe_mask_ = static_cast<u32>(pipe_.size()) - 1;
}

bool
Fabric::tlbLookup(Addr meta_addr)
{
    if (!params_.tlb.enabled)
        return true;
    const u32 vpn = meta_addr >> params_.tlb.page_shift;
    TlbEntry &entry = tlb_[vpn % tlb_.size()];
    if (entry.valid && entry.vpn == vpn) {
        ++tlb_hits_;
        return true;
    }
    ++tlb_misses_;
    frozen_ = true;
    // Page-table walk: one line read from memory over the shared bus.
    BusRequest req;
    req.op = BusOp::kReadLine;
    req.addr = vpn << params_.tlb.page_shift;
    req.port = bus_port_;
    req.on_complete = [this, vpn]() {
        TlbEntry &victim = tlb_[vpn % tlb_.size()];
        victim.valid = true;
        victim.vpn = vpn;
        // Unlike a cache refill, the access itself has not happened
        // yet: pending_idx_ stays put and the op retries (and now
        // hits in the TLB).
        frozen_ = false;
    };
    bus_->request(std::move(req));
    return false;
}

void
Fabric::boundary(Cycle now)
{
    if (params_.histograms) {
        if (frozen_) {
            ++freeze_run_;
        } else if (freeze_run_ > 0) {
            freeze_runs_.add(freeze_run_);
            freeze_run_ = 0;
        }
    }
    if (trace_ && !frozen_ && freeze_start_ != kCycleNever) {
        trace_->complete("fabric_freeze", "fabric", 3, freeze_start_,
                         now);
        freeze_start_ = kCycleNever;
    }
    if (frozen_)
        ++meta_stall_cycles_;
    else
        fabricCycle(now);
    // A freeze that began inside fabricCycle() opens its episode at
    // this boundary, mirroring meta_stall_cycles_ accounting.
    if (trace_ && frozen_ && freeze_start_ == kCycleNever)
        freeze_start_ = now;
}

void
Fabric::flushTrace(Cycle now)
{
    if (trace_ && freeze_start_ != kCycleNever && now > freeze_start_) {
        trace_->complete("fabric_freeze", "fabric", 3, freeze_start_,
                         now);
        freeze_start_ = kCycleNever;
    }
}

void
Fabric::advanceIdle(u64 cycles)
{
    // The divider keeps counting while the fabric idles; resets at each
    // period boundary are exactly a modulo.
    const u64 total = divider_ + cycles;
    const bool crossed_boundary = total >= params_.period;
    divider_ = static_cast<u32>(total % params_.period);
    // tick() flushes a finished freeze run at the first non-frozen
    // fabric cycle; if that boundary falls inside the stretch, flush
    // here instead (histograms are orderless, so this matches).
    if (crossed_boundary && params_.histograms && freeze_run_ > 0) {
        freeze_runs_.add(freeze_run_);
        freeze_run_ = 0;
    }
    iface_->setFabricIdle(true);
}

bool
Fabric::metaAccess(const MetaAccess &op)
{
    if (!tlbLookup(op.addr))
        return false;
    ++meta_accesses_;
    if (meta_cache_.access(op.addr, op.is_write))
        return true;

    ++meta_misses_;
    frozen_ = true;
    const u32 line_bytes = params_.meta_cache.line_bytes;
    const Addr line = op.addr & ~(line_bytes - 1);
    const bool dirty = op.is_write;
    BusRequest req;
    req.op = BusOp::kReadLine;
    req.addr = line;
    req.port = bus_port_;
    req.on_complete = [this, line, dirty]() {
        const Cache::FillResult fill = meta_cache_.fill(line, dirty);
        if (fill.evicted_dirty) {
            BusRequest wb;
            wb.op = BusOp::kWriteLine;
            wb.addr = fill.victim_addr;
            wb.port = bus_port_;
            bus_->request(std::move(wb));
        }
        // The access that missed is complete once the line arrives.
        ++pending_idx_;
        frozen_ = false;
    };
    bus_->request(std::move(req));
    return false;
}

void
Fabric::fabricCycle(Cycle now)
{
    // 1. Advance the monitor pipeline; retire the head packet.
    if (pipe_count_ > 0) {
        for (u32 i = 0; i < pipe_count_; ++i) {
            InFlight &flight =
                pipe_[(pipe_head_ + i) & pipe_mask_];
            if (flight.remaining > 0)
                --flight.remaining;
        }
        while (pipe_count_ > 0 && pipe_[pipe_head_].remaining == 0) {
            const InFlight &done = pipe_[pipe_head_];
            if (done.trap) {
                monitorFor(done.core)
                    ->noteTrap(done.trap_reason ? done.trap_reason
                                                : "check failed");
                iface_->raiseTrap(done.pc, done.core);
            }
            if (done.has_bfifo)
                iface_->pushBfifo(done.bfifo, done.core);
            if (done.wants_ack)
                iface_->signalAck(done.core);
            pipe_head_ = (pipe_head_ + 1) & pipe_mask_;
            --pipe_count_;
        }
    }

    // 2. Drain extra cache ops of the packet at the pipe entrance.
    if (have_pending_) {
        ++input_block_cycles_;
        if (pending_extra_input_block_ > 0) {
            // The LUT decoder occupies this input cycle, but the first
            // cache stage can start in the same fabric cycle.
            --pending_extra_input_block_;
        }
        if (pending_idx_ < pending_num_ops_) {
            if (!metaAccess(pending_ops_[pending_idx_]))
                return;   // frozen; the refill callback advances idx
            ++pending_idx_;
            if (pending_idx_ < pending_num_ops_ ||
                pending_extra_input_block_ > 0)
                return;
        }
        pending_effects_.remaining = monitor_->pipelineDepth();
        pipePush(pending_effects_);
        have_pending_ = false;
        return;
    }

    // 3. Dequeue the next packet (one per fabric cycle). Peek + pop
    // keeps the packet in place instead of copying it out of the FIFO.
    const CommitPacket *packet = iface_->peekReady(now);
    if (!packet)
        return;
    ++packets_;

    MonitorResult result;
    monitorFor(packet->core)->process(*packet, &result);

    // Expand sub-word writes into read-modify-write pairs when the
    // bit-granularity write feature is disabled (§III-D ablation).
    pending_num_ops_ = 0;
    for (unsigned i = 0; i < result.num_ops; ++i) {
        const MetaAccess &op = result.ops[i];
        if (op.is_write && !params_.bitmask_writes &&
            pending_num_ops_ < pending_ops_.size()) {
            pending_ops_[pending_num_ops_++] = {op.addr, false};
        }
        if (pending_num_ops_ < pending_ops_.size())
            pending_ops_[pending_num_ops_++] = op;
    }

    pending_effects_ = InFlight{};
    pending_effects_.wants_ack = packet->wants_ack;
    pending_effects_.trap = result.trap;
    pending_effects_.trap_reason = result.trap_reason;
    pending_effects_.has_bfifo = result.has_bfifo;
    pending_effects_.bfifo = result.bfifo;
    pending_effects_.pc = packet->pc;
    pending_effects_.core = packet->core;
    iface_->popFront();   // last use of the peeked packet
    pending_idx_ = 0;
    // Without core-side pre-decoding, the monitor needs its own
    // LUT-based decoder for INST. It is two-stage pipelined, so it
    // sustains two back-to-back packets but stalls the input for one
    // fabric cycle on every third — a ~1/3 throughput loss under
    // saturation (the paper reports DIFT running ~30% faster with
    // core-side decoding).
    pending_extra_input_block_ = 0;
    if (!params_.predecode && ++decode_phase_ % 3 == 0)
        pending_extra_input_block_ = 1;
    have_pending_ = true;

    // First cache op is part of this cycle's pipeline stage: process it
    // now so single-op packets sustain one packet per fabric cycle.
    if (pending_extra_input_block_ == 0) {
        if (pending_idx_ < pending_num_ops_) {
            if (!metaAccess(pending_ops_[pending_idx_]))
                return;
            ++pending_idx_;
        }
        if (pending_idx_ >= pending_num_ops_) {
            pending_effects_.remaining = monitor_->pipelineDepth();
            pipePush(pending_effects_);
            have_pending_ = false;
        }
    }
}

}  // namespace flexcore
