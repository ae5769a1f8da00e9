#include "core/core.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"
#include "core/profile.h"
#include "faults/injector.h"
#include "isa/encoding.h"

namespace flexcore {

std::string_view
Core::cycleBucketName(CycleBucket bucket)
{
    switch (bucket) {
      case CycleBucket::kCommit: return "commit";
      case CycleBucket::kLatency: return "latency_stall";
      case CycleBucket::kImiss: return "imiss_wait";
      case CycleBucket::kDmiss: return "dmiss_wait";
      case CycleBucket::kBusQueue: return "bus_queue_wait";
      case CycleBucket::kSbWait: return "sb_wait";
      case CycleBucket::kFfifoFull: return "ffifo_full";
      case CycleBucket::kAckWait: return "ack_wait";
      case CycleBucket::kBfifoWait: return "bfifo_wait";
      case CycleBucket::kDrain: return "drain";
      case CycleBucket::kNumBuckets: break;
    }
    return "?";
}

Core::Core(StatGroup *parent, Memory *memory, Bus *bus, CoreParams params)
    : mem_(memory),
      bus_(bus),
      params_(params),
      icache_(parent, "icache", params.icache),
      dcache_(parent, "dcache", params.dcache),
      store_buffer_(parent, bus, params.store_buffer_depth),
      stats_("core", parent),
      instructions_(&stats_, "instructions", "instructions committed"),
      micro_ops_(&stats_, "micro_ops",
                 "spill/fill and instrumentation micro-ops"),
      cycles_(&stats_, "cycles", "total simulated core cycles"),
      commit_cycles_(&stats_, "commit_cycles",
                     "cycles spent executing/committing work"),
      latency_stall_cycles_(&stats_, "latency_stalls",
                            "fixed-latency stall cycles"),
      imiss_wait_cycles_(&stats_, "imiss_wait", "I-cache refill cycles"),
      dmiss_wait_cycles_(&stats_, "dmiss_wait", "D-cache refill cycles"),
      bus_queue_wait_cycles_(&stats_, "bus_queue_wait",
                             "refill cycles queued behind other bus "
                             "traffic"),
      sb_wait_cycles_(&stats_, "sb_wait", "store-buffer-full cycles"),
      ffifo_full_cycles_(&stats_, "ffifo_full",
                         "commit cycles stalled on a full forward FIFO"),
      ack_wait_cycles_(&stats_, "ack_wait", "CACK wait cycles"),
      bfifo_wait_cycles_(&stats_, "bfifo_wait", "BFIFO wait cycles"),
      drain_cycles_(&stats_, "drain_cycles", "fabric drain cycles at exit"),
      window_spills_(&stats_, "window_spills", "window overflow traps"),
      window_fills_(&stats_, "window_fills", "window underflow traps"),
      ipc_(&stats_, "ipc", "instructions per cycle",
           [this]() {
               return static_cast<double>(instructions_.value()) /
                      static_cast<double>(cycles_.value());
           })
{
    const auto map = [this](CycleBucket bucket, Counter *counter) {
        bucket_counters_[static_cast<unsigned>(bucket)] = counter;
    };
    map(CycleBucket::kCommit, &commit_cycles_);
    map(CycleBucket::kLatency, &latency_stall_cycles_);
    map(CycleBucket::kImiss, &imiss_wait_cycles_);
    map(CycleBucket::kDmiss, &dmiss_wait_cycles_);
    map(CycleBucket::kBusQueue, &bus_queue_wait_cycles_);
    map(CycleBucket::kSbWait, &sb_wait_cycles_);
    map(CycleBucket::kFfifoFull, &ffifo_full_cycles_);
    map(CycleBucket::kAckWait, &ack_wait_cycles_);
    map(CycleBucket::kBfifoWait, &bfifo_wait_cycles_);
    map(CycleBucket::kDrain, &drain_cycles_);

    // The µop cache needs one mask bit per line word; lines beyond
    // 128 bytes (never used in practice) fall back to plain decoding.
    const u32 words = params_.icache.line_bytes / 4;
    if (words >= 1 && words <= 32) {
        uop_words_per_line_ = words;
        uops_.resize(static_cast<size_t>(icache_.numLineSlots()) * words);
        uop_masks_.assign(icache_.numLineSlots(), 0);
    }
}

void
Core::loadProgram(const Program &program)
{
    mem_->writeBlock(program.base(), program.image().data(),
                     program.size());
    pc_ = program.entry();
    npc_ = pc_ + 4;
    regs_ = RegWindowFile();
    regs_.write(kRegSp, params_.stack_top);
    regs_.write(kRegFp, params_.stack_top);
    icc_ = Icc{};
    y_ = 0;
    depth_ = 1;
    spilled_ = 0;
    state_ = State::kReady;
    stall_ = 0;
    fetch_retry_ = false;
    micro_queue_.clear();
    bus_serving_us_ = false;
    std::fill(uop_masks_.begin(), uop_masks_.end(), 0u);
    fetch_slot_ = 0;
    decoded_lo_ = ~Addr{0};
    decoded_hi_ = 0;
    bucket_ = CycleBucket::kCommit;
    episode_bucket_ = CycleBucket::kCommit;
    episode_start_ = 0;
    halted_ = false;
    exit_code_ = 0;
    trap_ = TrapInfo{};
    console_.clear();
}

unsigned
Core::windowSlot(unsigned window, unsigned arch_reg) const
{
    return physRegIndex(window, arch_reg);
}

u32
Core::operand2(const Instruction &inst) const
{
    return inst.has_imm ? static_cast<u32>(inst.simm)
                        : regs_.read(inst.rs2);
}

void
Core::raiseTrap(TrapKind kind, Addr pc, std::string detail)
{
    // Before taking a core-side trap the core must wait for the
    // co-processor to finish all pending instructions (§III-C); if a
    // monitor trap arrives during the drain it takes precedence, since
    // the monitored fault is the root cause.
    if (kind != TrapKind::kMonitor && iface_ && !iface_->empty()) {
        pending_trap_.kind = kind;
        pending_trap_.pc = pc;
        pending_trap_.detail = std::move(detail);
        state_ = State::kDrainTrap;
        return;
    }
    trap_.kind = kind;
    trap_.pc = pc;
    trap_.detail = std::move(detail);
    halted_ = true;
}

void
Core::takeMonitorTrap()
{
    if (trace_)
        trace_->instant("monitor_trap", "core", 1, now_);
    iface_->ackTrap();   // PACK
    raiseTrap(TrapKind::kMonitor, iface_->trapPc(),
              "monitor check failed");
}

void
Core::tick(Cycle now)
{
    now_ = now;
    if (halted_)
        return;

    // Exhaustive attribution: step() charges this cycle to exactly one
    // bucket (kCommit unless a stall path overrides it), so the bucket
    // counters always sum to cycles_.
    bucket_ = CycleBucket::kCommit;
    step();
    ++cycles_;
    ++*bucket_counters_[static_cast<unsigned>(bucket_)];
    if (profile_)
        profile_->add(attributionPc(), bucket_);
    if (trace_)
        traceEpisode();

#ifndef NDEBUG
    u64 bucket_sum = 0;
    for (const Counter *c : bucket_counters_)
        bucket_sum += c->value();
    assert(bucket_sum == cycles_.value() &&
           "cycle buckets must sum to total cycles");
    // The profiler keeps a running total, so the companion invariant —
    // per-PC attribution sums to core.cycles — is O(1) to check here.
    assert((!profile_ || profile_->total() == cycles_.value()) &&
           "per-PC profile must sum to total cycles");
#endif
}

Core::IdleStretch
Core::idleStretch() const
{
    IdleStretch stretch;
    if (halted_ || (iface_ && iface_->trapPending()))
        return stretch;
    switch (state_) {
      case State::kReady:
        // Fixed-latency stall with an idle bus: nothing anywhere can
        // change until the stall drains, and every drained cycle
        // charges kLatency.
        if (stall_ > 1 && bus_->idle()) {
            stretch.cycles = stall_;
            stretch.bucket = CycleBucket::kLatency;
        }
        break;
      case State::kWaitBus:
        // Our refill is the only bus transaction. All but its final
        // cycle charge the miss bucket; the final cycle must run
        // normally so the completion callback fires inside a real
        // tick (the bus ticks before the core each cycle).
        if (bus_serving_us_ && bus_->queueDepth() == 0 &&
            bus_->remainingCycles() > 1) {
            stretch.cycles = bus_->remainingCycles() - 1;
            stretch.bucket = wait_is_fetch_ ? CycleBucket::kImiss
                                            : CycleBucket::kDmiss;
        }
        break;
      default:
        break;
    }
    return stretch;
}

void
Core::advanceIdle(u64 k, CycleBucket bucket)
{
    assert(k > 0 && !halted_);
    // Reproduce exactly what k single ticks over the stretch would do,
    // including the stall-episode trace: the first skipped cycle is
    // where a bucket transition would have been observed.
    ++now_;
    bucket_ = bucket;
    if (profile_)
        profile_->add(attributionPc(), bucket, k);
    if (trace_)
        traceEpisode();
    now_ += k - 1;
    cycles_ += k;
    *bucket_counters_[static_cast<unsigned>(bucket)] += k;
    if (bucket == CycleBucket::kLatency) {
        assert(stall_ >= k);
        stall_ -= static_cast<u32>(k);
    }
}

void
Core::step()
{
    // Imprecise monitor exception, taken at the next commit boundary.
    // On a shared (time-multiplexed) interface the trap is attributed
    // to the offending packet's core; only that core takes it.
    if (iface_ && iface_->trapPending() &&
        iface_->trapCore() == core_id_) {
        takeMonitorTrap();
        return;
    }

    switch (state_) {
      case State::kReady:
        if (stall_ > 0) {
            --stall_;
            bucket_ = CycleBucket::kLatency;
            return;
        }
        startWork();
        break;
      case State::kWaitBus:
        chargeBusWait();
        break;
      case State::kWaitStoreBuffer:
        if (store_buffer_.push(cur_.store_addr)) {
            state_ = State::kCommitPending;
            tryCommit();
        } else {
            bucket_ = CycleBucket::kSbWait;
        }
        break;
      case State::kCommitPending:
        tryCommit();
        break;
      case State::kCommitStall:
        tryCommit();
        break;
      case State::kWaitAck:
        if (iface_->ackReady(core_id_)) {
            iface_->consumeAck(core_id_);
            finishInstruction();
        } else {
            bucket_ = CycleBucket::kAckWait;
        }
        break;
      case State::kWaitBfifo:
        if (auto value = iface_->popBfifo(core_id_)) {
            regs_.write(cur_.cpread_rd, *value);
            finishInstruction();
        } else {
            bucket_ = CycleBucket::kBfifoWait;
        }
        break;
      case State::kDrainExit:
        if (!iface_ || iface_->empty())
            halted_ = true;
        bucket_ = CycleBucket::kDrain;
        break;
      case State::kDrainTrap:
        if (!iface_ || iface_->empty()) {
            trap_ = pending_trap_;
            halted_ = true;
        }
        bucket_ = CycleBucket::kDrain;
        break;
    }
}

void
Core::chargeBusWait()
{
    // A refill cycle is a true miss-service cycle only once the bus has
    // actually started our transaction; before that we are queued
    // behind other traffic (store buffer drains, the meta-data cache).
    if (!bus_serving_us_)
        bucket_ = CycleBucket::kBusQueue;
    else if (wait_is_fetch_)
        bucket_ = CycleBucket::kImiss;
    else
        bucket_ = CycleBucket::kDmiss;
}

void
Core::traceEpisode()
{
    if (bucket_ == episode_bucket_)
        return;
    if (now_ > episode_start_) {
        trace_->complete(cycleBucketName(episode_bucket_).data(), "core",
                         1, episode_start_, now_);
    }
    episode_bucket_ = bucket_;
    episode_start_ = now_;
}

void
Core::flushTrace()
{
    if (!trace_ || cycles_.value() == 0)
        return;
    if (now_ + 1 > episode_start_) {
        trace_->complete(cycleBucketName(episode_bucket_).data(), "core",
                         1, episode_start_, now_ + 1);
    }
    episode_start_ = now_ + 1;
}

void
Core::startWork()
{
    if (!micro_queue_.empty()) {
        execMicroOp();
        return;
    }
    if (!fetchTimingOk())
        return;

    const Uop &uop = decodedFetch();
    if (!uop.inst.valid) {
        raiseTrap(TrapKind::kIllegalInstr, pc_, "undecodable instruction");
        return;
    }
    executeInstruction(uop);
}

bool
Core::fetchTimingOk()
{
    if (fetch_retry_) {
        fetch_retry_ = false;
        return true;
    }
    if (icache_.access(pc_)) {
        fetch_slot_ = icache_.lastSlot();
        return true;
    }
    wait_is_fetch_ = true;
    bus_serving_us_ = false;
    state_ = State::kWaitBus;
    BusRequest req;
    req.op = BusOp::kReadLine;
    req.addr = pc_ & ~(params_.icache.line_bytes - 1);
    req.port = bus_port_;
    req.on_start = [this]() { bus_serving_us_ = true; };
    req.on_complete = [this]() {
        const Cache::FillResult fill =
            icache_.fill(pc_ & ~(params_.icache.line_bytes - 1));
        if (uop_words_per_line_) {
            // The victim's decoded words die with it.
            uop_masks_[fill.slot] = 0;
        }
        fetch_slot_ = fill.slot;
        fetch_retry_ = true;
        state_ = State::kReady;
    };
    bus_->request(std::move(req));
    chargeBusWait();
    return false;
}

namespace {

u32
decodeBitsOf(const Instruction &inst)
{
    return (inst.writesRd() ? 1u : 0u) | (isLoad(inst.op) ? 2u : 0u) |
           (isStore(inst.op) ? 4u : 0u) | (inst.has_imm ? 8u : 0u) |
           (static_cast<u32>(inst.cpop_fn) << 8);
}

}  // namespace

const Core::Uop &
Core::decodedFetch()
{
    if (!uop_words_per_line_) {
        fallback_uop_.inst = decode(mem_->read32(pc_));
        fallback_uop_.decode_bits = decodeBitsOf(fallback_uop_.inst);
        fallback_uop_.exec = burstHandlerFor(fallback_uop_.inst);
        return fallback_uop_;
    }
    const u32 word = (pc_ >> 2) & (uop_words_per_line_ - 1);
    Uop &uop =
        uops_[static_cast<size_t>(fetch_slot_) * uop_words_per_line_ +
              word];
    const u32 bit = 1u << word;
    if (!(uop_masks_[fetch_slot_] & bit)) {
        uop.inst = decode(mem_->read32(pc_));
        uop.decode_bits = decodeBitsOf(uop.inst);
        uop.exec = burstHandlerFor(uop.inst);
        uop_masks_[fetch_slot_] |= bit;
        const Addr line = pc_ & ~(params_.icache.line_bytes - 1);
        decoded_lo_ = std::min(decoded_lo_, line);
        decoded_hi_ =
            std::max(decoded_hi_, line + params_.icache.line_bytes);
    }
    return uop;
}

void
Core::notifyPeersOfStore(Addr addr)
{
    // Write-through MESI-lite: a remote store to the coherent window
    // drops the peer's cached copy (timing) and any stale decoded µops
    // (functional, self-modifying code across cores). The functional
    // data is already coherent — the window aliases one backing Memory.
    if (addr - shared_base_ >= shared_size_)
        return;
    for (Core *peer : coherence_peers_) {
        peer->dcache_.invalidateLine(addr);
        peer->invalidateUopsAt(addr);
    }
}

void
Core::invalidateUopsAt(Addr addr)
{
    // Self-modifying-code safety: a store into text that is currently
    // decoded must force a re-decode. The bounds filter keeps ordinary
    // data stores to two compares.
    if (addr < decoded_lo_ || addr >= decoded_hi_ || !uop_words_per_line_)
        return;
    u32 slot;
    if (icache_.probeSlot(addr, &slot))
        uop_masks_[slot] = 0;
}

void
Core::execMicroOp()
{
    const MicroOp op = micro_queue_.front();
    micro_queue_.pop_front();
    ++micro_ops_;

    cur_ = ExecContext{};
    cur_.is_micro = true;
    cur_.skip_offer = !op.forward;
    cur_.pkt.pc = pc_;
    cur_.pkt.core = core_id_;

    switch (op.kind) {
      case MicroOp::Kind::kAlu:
        // One-cycle filler instruction; nothing else to do.
        return;
      case MicroOp::Kind::kLoad: {
        const u32 value = mem_->read32(op.addr);
        if (op.forward)
            regs_.writePhys(op.phys_reg, value);
        cur_.pkt.opcode = kTypeLoadWord;
        cur_.pkt.addr = op.addr;
        cur_.pkt.res = value;
        cur_.pkt.dest = static_cast<u16>(op.phys_reg);
        cur_.pkt.di.op = Op::kLd;
        cur_.pkt.di.type = kTypeLoadWord;
        cur_.pkt.di.valid = true;
        cur_.extra_stall = params_.load_extra;
        if (dcache_.access(op.addr)) {
            state_ = State::kCommitPending;
            tryCommit();
        } else {
            wait_is_fetch_ = false;
            bus_serving_us_ = false;
            state_ = State::kWaitBus;
            const Addr line = op.addr & ~(params_.dcache.line_bytes - 1);
            BusRequest req;
            req.op = BusOp::kReadLine;
            req.addr = line;
            req.port = bus_port_;
            req.on_start = [this]() { bus_serving_us_ = true; };
            req.on_complete = [this, line]() {
                dcache_.fill(line);
                state_ = State::kCommitPending;
            };
            bus_->request(std::move(req));
            chargeBusWait();
        }
        return;
      }
      case MicroOp::Kind::kStore: {
        if (op.forward) {
            mem_->write32(op.addr, op.store_value);
            invalidateUopsAt(op.addr);
            if (!coherence_peers_.empty())
                notifyPeersOfStore(op.addr);
        }
        cur_.pkt.opcode = kTypeStoreWord;
        cur_.pkt.addr = op.addr;
        cur_.pkt.res = op.store_value;
        cur_.pkt.dest = static_cast<u16>(op.phys_reg);
        cur_.pkt.di.op = Op::kSt;
        cur_.pkt.di.type = kTypeStoreWord;
        cur_.pkt.di.valid = true;
        cur_.is_store = true;
        cur_.store_addr = op.addr;
        dcache_.access(op.addr);   // write-through, no allocate
        scheduleStoreThenCommit();
        return;
      }
    }
}

void
Core::scheduleStoreThenCommit()
{
    if (store_buffer_.push(cur_.store_addr)) {
        state_ = State::kCommitPending;
        tryCommit();
    } else {
        state_ = State::kWaitStoreBuffer;
        bucket_ = CycleBucket::kSbWait;
    }
}

void
Core::enqueueWindowSpill()
{
    ++window_spills_;
    const unsigned w_spill = (regs_.cwp() + depth_ - 1) % kNumWindows;
    const Addr sp = regs_.readPhys(windowSlot(w_spill, kRegSp));
    for (unsigned k = 0; k < 16; ++k) {
        const unsigned arch = kRegL0 + k;   // l0-l7 then i0-i7
        MicroOp op;
        op.kind = MicroOp::Kind::kStore;
        op.addr = sp + 4 * k;
        op.phys_reg = static_cast<u16>(windowSlot(w_spill, arch));
        op.store_value = regs_.readPhys(op.phys_reg);
        op.forward = true;
        micro_queue_.push_back(op);
    }
    --depth_;
    ++spilled_;
    stall_ += params_.trap_overhead;
}

void
Core::enqueueWindowFill()
{
    ++window_fills_;
    const unsigned w_fill = (regs_.cwp() + 1) % kNumWindows;
    const Addr sp = regs_.readPhys(windowSlot(w_fill, kRegSp));
    for (unsigned k = 0; k < 16; ++k) {
        const unsigned arch = kRegL0 + k;
        MicroOp op;
        op.kind = MicroOp::Kind::kLoad;
        op.addr = sp + 4 * k;
        op.phys_reg = static_cast<u16>(windowSlot(w_fill, arch));
        op.forward = true;
        micro_queue_.push_back(op);
    }
    ++depth_;
    --spilled_;
    stall_ += params_.trap_overhead;
}

void
Core::executeInstruction(const Uop &uop)
{
    const Instruction &inst = uop.inst;
    // Window overflow/underflow traps fire *before* the save/restore
    // executes, exactly like the SPARC trap handlers: the spill/fill
    // micro-ops run first and the instruction then re-executes.
    if (inst.op == Op::kSave && depth_ == kNumWindows - 1) {
        enqueueWindowSpill();
        return;
    }
    if (inst.op == Op::kRestore && depth_ == 1) {
        if (spilled_ == 0) {
            raiseTrap(TrapKind::kWindowError, pc_,
                      "restore without caller frame");
            return;
        }
        enqueueWindowFill();
        return;
    }

    // Targeted reset of the commit context. Fields assigned
    // unconditionally below (pc, inst, opcode, di, srcv1, srcv2,
    // decode, extra, cond) are skipped; everything a monitor or the
    // tracer could read from a stale packet is cleared. cpread_rd and
    // store_addr are only read behind their respective flags.
    cur_.extra_stall = 0;
    cur_.skip_offer = false;
    cur_.is_micro = false;
    cur_.is_cpread = false;
    cur_.is_exit = false;
    cur_.is_store = false;
    CommitPacket &pkt = cur_.pkt;
    pkt.addr = 0;
    pkt.res = 0;
    pkt.branch = false;
    pkt.src1 = 0;
    pkt.src2 = 0;
    pkt.dest = 0;
    pkt.wants_ack = false;
    pkt.pc = pc_;
    pkt.core = core_id_;
    pkt.inst = inst.raw;
    pkt.opcode = static_cast<u8>(inst.type);
    pkt.di = inst;

    const u32 a = regs_.read(inst.rs1);
    const u32 b = operand2(inst);
    pkt.srcv1 = a;
    pkt.srcv2 = b;
    if (inst.readsRs1())
        pkt.src1 = static_cast<u16>(regs_.physIndex(inst.rs1));
    if (inst.readsRs2())
        pkt.src2 = static_cast<u16>(regs_.physIndex(inst.rs2));
    pkt.decode = uop.decode_bits;
    pkt.extra = regs_.cwp() | (depth_ << 8);

    bool needs_dcache_load = false;
    Addr ea = 0;

    switch (inst.op) {
      case Op::kSethi: {
        const u32 value = inst.imm22 << 10;
        regs_.write(inst.rd, value);
        pkt.res = value;
        pkt.dest = static_cast<u16>(regs_.physIndex(inst.rd));
        advancePc();
        break;
      }

      case Op::kAdd: case Op::kAddcc:
      case Op::kSub: case Op::kSubcc:
      case Op::kAnd: case Op::kAndcc:
      case Op::kOr: case Op::kOrcc:
      case Op::kXor: case Op::kXorcc:
      case Op::kAndn: case Op::kOrn: case Op::kXnor:
      case Op::kSll: case Op::kSrl: case Op::kSra:
      case Op::kUmul: case Op::kSmul:
      case Op::kUmulcc: case Op::kSmulcc:
      case Op::kUdiv: case Op::kSdiv: {
        const AluResult result = alu_.execute(inst.op, a, b, y_);
        if (result.div_by_zero) {
            raiseTrap(TrapKind::kDivByZero, pc_, "division by zero");
            return;
        }
        regs_.write(inst.rd, result.value);
        if (result.writes_y)
            y_ = result.y_out;
        if (writesIcc(inst.op))
            icc_ = result.icc;
        pkt.res = result.value;
        pkt.dest = static_cast<u16>(regs_.physIndex(inst.rd));
        if (inst.type == kTypeMul)
            cur_.extra_stall += params_.mul_extra;
        else if (inst.type == kTypeDiv)
            cur_.extra_stall += params_.div_extra;
        advancePc();
        break;
      }

      case Op::kSave: {
        regs_.decrementCwp();
        ++depth_;
        regs_.write(inst.rd, a + b);
        pkt.res = a + b;
        pkt.dest = static_cast<u16>(regs_.physIndex(inst.rd));
        advancePc();
        break;
      }
      case Op::kRestore: {
        regs_.incrementCwp();
        --depth_;
        regs_.write(inst.rd, a + b);
        pkt.res = a + b;
        pkt.dest = static_cast<u16>(regs_.physIndex(inst.rd));
        advancePc();
        break;
      }

      case Op::kLd: case Op::kLdub: case Op::kLduh: {
        ea = a + b;
        pkt.addr = ea;
        const unsigned align =
            inst.op == Op::kLd ? 3 : (inst.op == Op::kLduh ? 1 : 0);
        if (ea & align) {
            raiseTrap(TrapKind::kMemAlign, pc_, "misaligned load");
            return;
        }
        u32 value = 0;
        switch (inst.op) {
          case Op::kLd: value = mem_->read32(ea); break;
          case Op::kLdub: value = mem_->read8(ea); break;
          default: value = mem_->read16(ea); break;
        }
        regs_.write(inst.rd, value);
        pkt.res = value;
        pkt.dest = static_cast<u16>(regs_.physIndex(inst.rd));
        cur_.extra_stall += params_.load_extra;
        needs_dcache_load = true;
        advancePc();
        break;
      }

      case Op::kSt: case Op::kStb: case Op::kSth: {
        ea = a + b;
        pkt.addr = ea;
        const unsigned align =
            inst.op == Op::kSt ? 3 : (inst.op == Op::kSth ? 1 : 0);
        if (ea & align) {
            raiseTrap(TrapKind::kMemAlign, pc_, "misaligned store");
            return;
        }
        const u32 value = regs_.read(inst.rd);
        switch (inst.op) {
          case Op::kSt: mem_->write32(ea, value); break;
          case Op::kStb: mem_->write8(ea, static_cast<u8>(value)); break;
          default: mem_->write16(ea, static_cast<u16>(value)); break;
        }
        invalidateUopsAt(ea);
        if (!coherence_peers_.empty())
            notifyPeersOfStore(ea);
        pkt.res = value;
        // DEST carries the store-data register so monitors can read
        // its tag.
        pkt.dest = static_cast<u16>(regs_.physIndex(inst.rd));
        cur_.is_store = true;
        cur_.store_addr = ea;
        dcache_.access(ea);   // write-through, no allocate
        advancePc();
        break;
      }

      case Op::kBicc: {
        const Addr target = pc_ + 4u * static_cast<u32>(inst.disp);
        const bool taken = Alu::evalCond(inst.cond, icc_);
        pkt.branch = taken;
        pkt.res = target;
        if (inst.cond == Cond::kA && inst.annul) {
            pc_ = target;
            npc_ = target + 4;
            cur_.extra_stall +=
                params_.annul_extra + params_.branch_taken_extra;
        } else if (taken) {
            pc_ = npc_;
            npc_ = target;
            cur_.extra_stall += params_.branch_taken_extra;
        } else if (inst.annul) {
            pc_ = npc_ + 4;
            npc_ = npc_ + 8;
            cur_.extra_stall += params_.annul_extra;
        } else {
            pc_ = npc_;
            npc_ = npc_ + 4;
        }
        break;
      }

      case Op::kCall: {
        const Addr target = pc_ + 4u * static_cast<u32>(inst.disp);
        regs_.write(kRegO7, pc_);
        pkt.res = target;
        pkt.branch = true;
        pkt.dest = static_cast<u16>(regs_.physIndex(kRegO7));
        cur_.extra_stall += params_.call_extra;
        pc_ = npc_;
        npc_ = target;
        break;
      }

      case Op::kJmpl: {
        const Addr target = a + b;
        if (target & 3) {
            raiseTrap(TrapKind::kMemAlign, pc_, "misaligned jump target");
            return;
        }
        regs_.write(inst.rd, pc_);
        pkt.res = target;
        pkt.addr = target;
        pkt.branch = true;
        pkt.dest = static_cast<u16>(regs_.physIndex(inst.rd));
        cur_.extra_stall += params_.jmpl_extra;
        pc_ = npc_;
        npc_ = target;
        break;
      }

      case Op::kRdy: {
        regs_.write(inst.rd, y_);
        pkt.res = y_;
        pkt.dest = static_cast<u16>(regs_.physIndex(inst.rd));
        advancePc();
        break;
      }
      case Op::kWry: {
        y_ = a;
        pkt.res = y_;
        advancePc();
        break;
      }

      case Op::kTicc: {
        if (Alu::evalCond(inst.cond, icc_)) {
            const u32 trap_no = (a + b) & 0x7f;
            switch (static_cast<SysTrap>(trap_no)) {
              case SysTrap::kExit:
                cur_.is_exit = true;
                exit_code_ = regs_.read(kRegO0);
                break;
              case SysTrap::kPutChar:
                console_ += static_cast<char>(regs_.read(kRegO0) & 0xff);
                break;
              case SysTrap::kPutInt:
                console_ +=
                    std::to_string(static_cast<s32>(regs_.read(kRegO0)));
                break;
              case SysTrap::kCoreId:
                regs_.write(kRegO0, core_id_);
                break;
              default:
                raiseTrap(TrapKind::kBadSyscall, pc_,
                          "unknown software trap " +
                              std::to_string(trap_no));
                return;
            }
        }
        advancePc();
        break;
      }

      case Op::kCpop1: case Op::kCpop2: {
        // The core computes rs1 + operand2 as a convenience address and
        // exposes rs1's value in RES; all semantics live in the fabric.
        ea = a + b;
        pkt.addr = ea;
        pkt.res = a;
        pkt.src1 = static_cast<u16>(regs_.physIndex(inst.rs1));
        if (inst.cpop_fn == CpopFn::kReadTag) {
            cur_.is_cpread = true;
            cur_.cpread_rd = inst.rd;
            pkt.dest = static_cast<u16>(regs_.physIndex(inst.rd));
            if (!iface_)
                regs_.write(inst.rd, 0);
        } else {
            // SetRegTag/SetMemTag carry the tag value in the rd field.
            pkt.dest = inst.rd;
        }
        advancePc();
        break;
      }

      case Op::kInvalid:
      case Op::kNumOps:
        raiseTrap(TrapKind::kIllegalInstr, pc_, "illegal opcode");
        return;
    }

    pkt.cond = icc_.packed();

    if (cur_.is_store) {
        scheduleStoreThenCommit();
        return;
    }
    if (needs_dcache_load && !dcache_.access(ea)) {
        wait_is_fetch_ = false;
        bus_serving_us_ = false;
        state_ = State::kWaitBus;
        const Addr line = ea & ~(params_.dcache.line_bytes - 1);
        BusRequest req;
        req.op = BusOp::kReadLine;
        req.addr = line;
        req.port = bus_port_;
        req.on_start = [this]() { bus_serving_us_ = true; };
        req.on_complete = [this, line]() {
            dcache_.fill(line);
            state_ = State::kCommitPending;
        };
        bus_->request(std::move(req));
        chargeBusWait();
        return;
    }
    state_ = State::kCommitPending;
    tryCommit();
}

void
Core::tryCommit()
{
    if (iface_ && !cur_.skip_offer) {
        switch (iface_->offer(cur_.pkt, now_)) {
          case CommitAction::kStall:
            state_ = State::kCommitStall;
            bucket_ = CycleBucket::kFfifoFull;
            return;
          case CommitAction::kWaitAck:
            state_ = State::kWaitAck;
            return;
          case CommitAction::kProceed:
            break;
        }
    }
    if (cur_.is_cpread && iface_) {
        state_ = State::kWaitBfifo;
        return;
    }
    finishInstruction();
}

void
Core::finishInstruction()
{
    if (!cur_.is_micro) {
        ++instructions_;
        ++committed_by_type_[cur_.pkt.opcode];
        if (fault_injector_)
            fault_injector_->onCommit(instructions_.value(), now_);
        if (tracer_)
            tracer_(now_, cur_.pkt.pc, cur_.pkt.di);
        if (trace_)
            trace_->commit(now_, cur_.pkt.pc, cur_.pkt.inst);
        if (swmon_) {
            sw_expansion_.clear();
            swmon_->expand(cur_.pkt.di, cur_.pkt.addr, &sw_expansion_);
            for (const SwMicroOp &sw : sw_expansion_) {
                MicroOp op;
                switch (sw.kind) {
                  case SwMicroOp::Kind::kAlu:
                    op.kind = MicroOp::Kind::kAlu;
                    break;
                  case SwMicroOp::Kind::kLoad:
                    op.kind = MicroOp::Kind::kLoad;
                    break;
                  case SwMicroOp::Kind::kStore:
                    op.kind = MicroOp::Kind::kStore;
                    break;
                }
                op.addr = sw.addr;
                op.forward = false;
                micro_queue_.push_back(op);
            }
        }
    }
    stall_ += cur_.extra_stall;
    state_ = cur_.is_exit ? State::kDrainExit : State::kReady;
}

void
Core::advancePc()
{
    pc_ = npc_;
    npc_ += 4;
}

}  // namespace flexcore
