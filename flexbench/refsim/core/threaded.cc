/**
 * @file
 * Threaded-code dispatch handlers and engines (see threaded.h).
 *
 * Correctness discipline: every handler is a line-for-line
 * transcription of the matching Core::executeInstruction() case,
 * restricted to architectural semantics (registers, condition codes,
 * Y, PC/nPC, window depth, console, functional memory) plus the
 * CommitPacket bytes. Timing state — caches, bus, store buffer,
 * interface — is owned by the engines. Debug builds prove the
 * transcription by running the interpreter and the handler on the same
 * pre-state for every dispatched instruction and asserting identical
 * packets and post-state (ThreadedEngine::verifyUop).
 */

#include "core/threaded.h"

#include <cassert>
#include <string>

#include "faults/injector.h"
#include "flexcore/fabric.h"

namespace flexcore {

ThreadedEngine::ThreadedEngine(Core *core, Bus *bus, FlexInterface *iface,
                               Fabric *fabric, Monitor *monitor,
                               FaultInjector *injector)
    : c_(core),
      bus_(bus),
      iface_(iface),
      fabric_(fabric),
      monitor_(monitor),
      injector_(injector)
{
}

Core::BurstFn
Core::burstHandlerFor(const Instruction &inst)
{
    return ThreadedEngine::handlerFor(inst);
}

Core::BurstFn
ThreadedEngine::handlerFor(const Instruction &inst)
{
    if (!inst.valid)
        return nullptr;
    switch (inst.op) {
      case Op::kSethi: return &hSethi;
      case Op::kAdd: case Op::kAddcc:
      case Op::kSub: case Op::kSubcc:
      case Op::kAnd: case Op::kAndcc:
      case Op::kOr: case Op::kOrcc:
      case Op::kXor: case Op::kXorcc:
      case Op::kAndn: case Op::kOrn: case Op::kXnor:
      case Op::kSll: case Op::kSrl: case Op::kSra:
      case Op::kUmul: case Op::kSmul:
      case Op::kUmulcc: case Op::kSmulcc:
      case Op::kUdiv: case Op::kSdiv:
        return &hAlu;
      case Op::kSave: return &hSave;
      case Op::kRestore: return &hRestore;
      case Op::kLd: case Op::kLdub: case Op::kLduh: return &hLoad;
      case Op::kSt: case Op::kStb: case Op::kSth: return &hStore;
      case Op::kBicc: return &hBicc;
      case Op::kCall: return &hCall;
      case Op::kJmpl: return &hJmpl;
      case Op::kRdy: return &hRdy;
      case Op::kWry: return &hWry;
      case Op::kTicc: return &hTicc;
      case Op::kCpop1: case Op::kCpop2: return &hCpop;
      case Op::kInvalid:
      case Op::kNumOps:
        return nullptr;
    }
    return nullptr;
}

void
ThreadedEngine::begin(Core &c, const Core::Uop &uop, CommitPacket &pkt,
                      u32 *a, u32 *b)
{
    const Instruction &inst = uop.inst;
    pkt.addr = 0;
    pkt.res = 0;
    pkt.branch = false;
    pkt.src1 = 0;
    pkt.src2 = 0;
    pkt.dest = 0;
    pkt.wants_ack = false;
    pkt.pc = c.pc_;
    pkt.inst = inst.raw;
    pkt.opcode = static_cast<u8>(inst.type);
    pkt.di = inst;

    *a = c.regs_.read(inst.rs1);
    *b = c.operand2(inst);
    pkt.srcv1 = *a;
    pkt.srcv2 = *b;
    if (inst.readsRs1())
        pkt.src1 = static_cast<u16>(c.regs_.physIndex(inst.rs1));
    if (inst.readsRs2())
        pkt.src2 = static_cast<u16>(c.regs_.physIndex(inst.rs2));
    pkt.decode = uop.decode_bits;
    pkt.extra = c.regs_.cwp() | (c.depth_ << 8);
}

u32
ThreadedEngine::hSethi(Core &c, const Core::Uop &uop, CommitPacket &pkt)
{
    u32 a, b;
    begin(c, uop, pkt, &a, &b);
    const u32 value = uop.inst.imm22 << 10;
    c.regs_.write(uop.inst.rd, value);
    pkt.res = value;
    pkt.dest = static_cast<u16>(c.regs_.physIndex(uop.inst.rd));
    c.advancePc();
    pkt.cond = c.icc_.packed();
    return 0;
}

u32
ThreadedEngine::hAlu(Core &c, const Core::Uop &uop, CommitPacket &pkt)
{
    const Instruction &inst = uop.inst;
    u32 a, b;
    begin(c, uop, pkt, &a, &b);
    const AluResult result = c.alu_.execute(inst.op, a, b, c.y_);
    if (result.div_by_zero) {
        c.raiseTrap(TrapKind::kDivByZero, c.pc_, "division by zero");
        return kHTrap;
    }
    c.regs_.write(inst.rd, result.value);
    if (result.writes_y)
        c.y_ = result.y_out;
    if (writesIcc(inst.op))
        c.icc_ = result.icc;
    pkt.res = result.value;
    pkt.dest = static_cast<u16>(c.regs_.physIndex(inst.rd));
    u32 extra = 0;
    if (inst.type == kTypeMul)
        extra = c.params_.mul_extra;
    else if (inst.type == kTypeDiv)
        extra = c.params_.div_extra;
    c.advancePc();
    pkt.cond = c.icc_.packed();
    return extra;
}

u32
ThreadedEngine::hSave(Core &c, const Core::Uop &uop, CommitPacket &pkt)
{
    if (c.depth_ == kNumWindows - 1) {
        c.enqueueWindowSpill();
        return kHWindow;
    }
    u32 a, b;
    begin(c, uop, pkt, &a, &b);
    c.regs_.decrementCwp();
    ++c.depth_;
    c.regs_.write(uop.inst.rd, a + b);
    pkt.res = a + b;
    pkt.dest = static_cast<u16>(c.regs_.physIndex(uop.inst.rd));
    c.advancePc();
    pkt.cond = c.icc_.packed();
    return 0;
}

u32
ThreadedEngine::hRestore(Core &c, const Core::Uop &uop, CommitPacket &pkt)
{
    if (c.depth_ == 1) {
        if (c.spilled_ == 0) {
            c.raiseTrap(TrapKind::kWindowError, c.pc_,
                        "restore without caller frame");
            return kHTrap;
        }
        c.enqueueWindowFill();
        return kHWindow;
    }
    u32 a, b;
    begin(c, uop, pkt, &a, &b);
    c.regs_.incrementCwp();
    --c.depth_;
    c.regs_.write(uop.inst.rd, a + b);
    pkt.res = a + b;
    pkt.dest = static_cast<u16>(c.regs_.physIndex(uop.inst.rd));
    c.advancePc();
    pkt.cond = c.icc_.packed();
    return 0;
}

u32
ThreadedEngine::hLoad(Core &c, const Core::Uop &uop, CommitPacket &pkt)
{
    const Instruction &inst = uop.inst;
    u32 a, b;
    begin(c, uop, pkt, &a, &b);
    const Addr ea = a + b;
    pkt.addr = ea;
    const unsigned align =
        inst.op == Op::kLd ? 3 : (inst.op == Op::kLduh ? 1 : 0);
    if (ea & align) {
        c.raiseTrap(TrapKind::kMemAlign, c.pc_, "misaligned load");
        return kHTrap;
    }
    u32 value = 0;
    switch (inst.op) {
      case Op::kLd: value = c.mem_->read32(ea); break;
      case Op::kLdub: value = c.mem_->read8(ea); break;
      default: value = c.mem_->read16(ea); break;
    }
    c.regs_.write(inst.rd, value);
    pkt.res = value;
    pkt.dest = static_cast<u16>(c.regs_.physIndex(inst.rd));
    c.advancePc();
    pkt.cond = c.icc_.packed();
    return c.params_.load_extra | kHLoad;
}

u32
ThreadedEngine::hStore(Core &c, const Core::Uop &uop, CommitPacket &pkt)
{
    const Instruction &inst = uop.inst;
    u32 a, b;
    begin(c, uop, pkt, &a, &b);
    const Addr ea = a + b;
    pkt.addr = ea;
    const unsigned align =
        inst.op == Op::kSt ? 3 : (inst.op == Op::kSth ? 1 : 0);
    if (ea & align) {
        c.raiseTrap(TrapKind::kMemAlign, c.pc_, "misaligned store");
        return kHTrap;
    }
    const u32 value = c.regs_.read(inst.rd);
    switch (inst.op) {
      case Op::kSt: c.mem_->write32(ea, value); break;
      case Op::kStb: c.mem_->write8(ea, static_cast<u8>(value)); break;
      default: c.mem_->write16(ea, static_cast<u16>(value)); break;
    }
    c.invalidateUopsAt(ea);
    pkt.res = value;
    // DEST carries the store-data register so monitors can read its tag.
    pkt.dest = static_cast<u16>(c.regs_.physIndex(inst.rd));
    c.advancePc();
    pkt.cond = c.icc_.packed();
    return kHStore;
}

u32
ThreadedEngine::hBicc(Core &c, const Core::Uop &uop, CommitPacket &pkt)
{
    const Instruction &inst = uop.inst;
    u32 a, b;
    begin(c, uop, pkt, &a, &b);
    const Addr target = c.pc_ + 4u * static_cast<u32>(inst.disp);
    const bool taken = Alu::evalCond(inst.cond, c.icc_);
    pkt.branch = taken;
    pkt.res = target;
    u32 extra = 0;
    if (inst.cond == Cond::kA && inst.annul) {
        c.pc_ = target;
        c.npc_ = target + 4;
        extra = c.params_.annul_extra + c.params_.branch_taken_extra;
    } else if (taken) {
        c.pc_ = c.npc_;
        c.npc_ = target;
        extra = c.params_.branch_taken_extra;
    } else if (inst.annul) {
        c.pc_ = c.npc_ + 4;
        c.npc_ = c.npc_ + 8;
        extra = c.params_.annul_extra;
    } else {
        c.pc_ = c.npc_;
        c.npc_ = c.npc_ + 4;
    }
    pkt.cond = c.icc_.packed();
    return extra;
}

u32
ThreadedEngine::hCall(Core &c, const Core::Uop &uop, CommitPacket &pkt)
{
    u32 a, b;
    begin(c, uop, pkt, &a, &b);
    const Addr target = c.pc_ + 4u * static_cast<u32>(uop.inst.disp);
    c.regs_.write(kRegO7, c.pc_);
    pkt.res = target;
    pkt.branch = true;
    pkt.dest = static_cast<u16>(c.regs_.physIndex(kRegO7));
    c.pc_ = c.npc_;
    c.npc_ = target;
    pkt.cond = c.icc_.packed();
    return c.params_.call_extra;
}

u32
ThreadedEngine::hJmpl(Core &c, const Core::Uop &uop, CommitPacket &pkt)
{
    u32 a, b;
    begin(c, uop, pkt, &a, &b);
    const Addr target = a + b;
    if (target & 3) {
        c.raiseTrap(TrapKind::kMemAlign, c.pc_, "misaligned jump target");
        return kHTrap;
    }
    c.regs_.write(uop.inst.rd, c.pc_);
    pkt.res = target;
    pkt.addr = target;
    pkt.branch = true;
    pkt.dest = static_cast<u16>(c.regs_.physIndex(uop.inst.rd));
    c.pc_ = c.npc_;
    c.npc_ = target;
    pkt.cond = c.icc_.packed();
    return c.params_.jmpl_extra;
}

u32
ThreadedEngine::hRdy(Core &c, const Core::Uop &uop, CommitPacket &pkt)
{
    u32 a, b;
    begin(c, uop, pkt, &a, &b);
    c.regs_.write(uop.inst.rd, c.y_);
    pkt.res = c.y_;
    pkt.dest = static_cast<u16>(c.regs_.physIndex(uop.inst.rd));
    c.advancePc();
    pkt.cond = c.icc_.packed();
    return 0;
}

u32
ThreadedEngine::hWry(Core &c, const Core::Uop &uop, CommitPacket &pkt)
{
    u32 a, b;
    begin(c, uop, pkt, &a, &b);
    c.y_ = a;
    pkt.res = c.y_;
    c.advancePc();
    pkt.cond = c.icc_.packed();
    return 0;
}

u32
ThreadedEngine::hTicc(Core &c, const Core::Uop &uop, CommitPacket &pkt)
{
    u32 a, b;
    begin(c, uop, pkt, &a, &b);
    u32 flags = 0;
    if (Alu::evalCond(uop.inst.cond, c.icc_)) {
        const u32 trap_no = (a + b) & 0x7f;
        switch (static_cast<SysTrap>(trap_no)) {
          case SysTrap::kExit:
            flags |= kHExit;
            c.exit_code_ = c.regs_.read(kRegO0);
            break;
          case SysTrap::kPutChar:
            c.console_ += static_cast<char>(c.regs_.read(kRegO0) & 0xff);
            break;
          case SysTrap::kPutInt:
            c.console_ +=
                std::to_string(static_cast<s32>(c.regs_.read(kRegO0)));
            break;
          default:
            c.raiseTrap(TrapKind::kBadSyscall, c.pc_,
                        "unknown software trap " + std::to_string(trap_no));
            return kHTrap;
        }
    }
    c.advancePc();
    pkt.cond = c.icc_.packed();
    return flags;
}

u32
ThreadedEngine::hCpop(Core &c, const Core::Uop &uop, CommitPacket &pkt)
{
    const Instruction &inst = uop.inst;
    u32 a, b;
    begin(c, uop, pkt, &a, &b);
    // The core computes rs1 + operand2 as a convenience address and
    // exposes rs1's value in RES; all semantics live in the fabric.
    const Addr ea = a + b;
    pkt.addr = ea;
    pkt.res = a;
    pkt.src1 = static_cast<u16>(c.regs_.physIndex(inst.rs1));
    u32 flags = 0;
    if (inst.cpop_fn == CpopFn::kReadTag) {
        flags |= kHCpread;
        pkt.dest = static_cast<u16>(c.regs_.physIndex(inst.rd));
        if (!c.iface_)
            c.regs_.write(inst.rd, 0);
    } else {
        // SetRegTag/SetMemTag carry the tag value in the rd field.
        pkt.dest = inst.rd;
    }
    c.advancePc();
    pkt.cond = c.icc_.packed();
    return flags;
}

const Core::Uop *
ThreadedEngine::probeFetch(u32 *slot) const
{
    const Core &c = *c_;
    if (!c.uop_words_per_line_)
        return nullptr;
    if (!c.icache_.probeSlot(c.pc_, slot))
        return nullptr;
    const u32 word = (c.pc_ >> 2) & (c.uop_words_per_line_ - 1);
    if (!(c.uop_masks_[*slot] & (1u << word)))
        return nullptr;
    const Core::Uop &uop =
        c.uops_[static_cast<size_t>(*slot) * c.uop_words_per_line_ +
                word];
    // Null handler (invalid instruction) falls back to the interpreter,
    // which raises the illegal-instruction trap on its own path.
    return uop.exec ? &uop : nullptr;
}

void
ThreadedEngine::commitViaInterp(u32 flags, Cycle now)
{
    (void)now;
    Core &c = *c_;
    Core::ExecContext &cur = c.cur_;
    cur.extra_stall = flags & kHStallMask;
    cur.skip_offer = false;
    cur.is_micro = false;
    cur.is_cpread = (flags & kHCpread) != 0;
    if (cur.is_cpread)
        cur.cpread_rd = cur.pkt.di.rd;
    cur.is_exit = (flags & kHExit) != 0;
    cur.is_store = (flags & kHStore) != 0;
    if (cur.is_store)
        cur.store_addr = cur.pkt.addr;

    if (flags & kHStore) {
        c.dcache_.access(cur.pkt.addr);   // write-through, no allocate
        c.scheduleStoreThenCommit();
        return;
    }
    if (flags & kHLoad) {
        const Addr ea = cur.pkt.addr;
        if (!c.dcache_.access(ea)) {
            c.wait_is_fetch_ = false;
            c.bus_serving_us_ = false;
            c.state_ = Core::State::kWaitBus;
            const Addr line = ea & ~(c.params_.dcache.line_bytes - 1);
            Core *core = c_;
            BusRequest req;
            req.op = BusOp::kReadLine;
            req.addr = line;
            req.on_start = [core]() { core->bus_serving_us_ = true; };
            req.on_complete = [core, line]() {
                core->dcache_.fill(line);
                core->state_ = Core::State::kCommitPending;
            };
            c.bus_->request(std::move(req));
            c.chargeBusWait();
            return;
        }
    }
    c.state_ = Core::State::kCommitPending;
    c.tryCommit();
}

void
ThreadedEngine::execUop(const Core::Uop &uop, Cycle now, u64 *tally,
                        u64 *n_insts, u64 *n_fwd)
{
    Core &c = *c_;
    const Instruction &inst = uop.inst;
    c.bucket_ = Core::CycleBucket::kCommit;

    const bool is_load = (uop.decode_bits & 2u) != 0;
    const bool is_store = (uop.decode_bits & 4u) != 0;

    // Route selection, before the handler runs so the packet is written
    // straight into its final destination (the FFIFO ring slot in the
    // common case — the packet copy is the bulk of the commit cost).
    bool fallback = is_load;   // a load may miss; it needs cur_ anyway
    if (!fallback && is_store && c.store_buffer_.full())
        fallback = true;   // kWaitStoreBuffer retries out of cur_
    if (!fallback && iface_ &&
        (inst.op == Op::kCpop1 || inst.op == Op::kCpop2) &&
        inst.cpop_fn == CpopFn::kReadTag)
        fallback = true;   // 'read from co-processor' waits on the BFIFO
    bool ring = false;
    if (!fallback && iface_) {
        const ForwardPolicy policy =
            iface_->cfgr_.policy(static_cast<InstrType>(inst.type));
        if (policy == ForwardPolicy::kAlways) {
            if (iface_->fifoFull())
                fallback = true;   // real offer() counts the stall
            else
                ring = true;
        } else if (policy != ForwardPolicy::kIgnore) {
            fallback = true;   // kIfNotFull / kWaitAck bookkeeping
        }
    }

    FlexInterface::Entry *entry = nullptr;
    CommitPacket *pkt;
    if (fallback) {
        pkt = &c.cur_.pkt;
    } else if (ring) {
        entry = &iface_->fifo_[(iface_->fifo_head_ + iface_->fifo_count_) &
                               iface_->fifo_mask_];
        pkt = &entry->packet;
    } else {
        pkt = &scratch_pkt_;
    }

    const u32 flags = uop.exec(c, uop, *pkt);
    if (flags & (kHTrap | kHWindow)) {
        // raiseTrap()/enqueueWindow*() already ran inside the handler;
        // a partially written ring slot is dead until fifo_count_ grows.
        ++tally[static_cast<unsigned>(Core::CycleBucket::kCommit)];
        return;
    }
    if (fallback) {
        commitViaInterp(flags, now);
        ++tally[static_cast<unsigned>(c.bucket_)];
        return;
    }

    // Inline commit: exactly offer()'s push plus finishInstruction(),
    // with the Counter increments batched (flushed at burst exit).
    if (is_store) {
        c.dcache_.access(pkt->addr);   // write-through, no allocate
        const bool pushed = c.store_buffer_.push(pkt->addr);
        assert(pushed && "store-buffer room was pre-checked");
        (void)pushed;
    }
    if (ring) {
        entry->ready_at = now + iface_->params_.sync_cycles;
        ++iface_->fifo_count_;
        iface_->fabric_idle_ = false;
        ++*n_fwd;
        ++iface_->forwarded_by_type_[inst.type];
    }
    ++*n_insts;
    ++c.committed_by_type_[pkt->opcode];
    if (c.tracer_)
        c.tracer_(now, pkt->pc, pkt->di);
    c.stall_ += flags & kHStallMask;
    if (flags & kHExit)
        c.state_ = Core::State::kDrainExit;
    ++tally[static_cast<unsigned>(Core::CycleBucket::kCommit)];
}

Cycle
ThreadedEngine::burst(Cycle now, Cycle limit)
{
    Core &c = *c_;
#ifdef NDEBUG
    u64 tally[static_cast<unsigned>(Core::CycleBucket::kNumBuckets)] = {};
    u64 n_cycles = 0, n_insts = 0, n_fwd = 0, n_line_hits = 0;
    Addr burst_line = ~Addr{0};   //!< I-line with a real access this burst

    while (now < limit) {
        if (c.halted_ || c.state_ != Core::State::kReady)
            break;
        const bool is_stall = c.stall_ > 0;
        const Core::Uop *uop = nullptr;
        u32 slot = 0;
        if (!is_stall) {
            if (c.fetch_retry_ || !c.micro_queue_.empty())
                break;
            uop = probeFetch(&slot);
            if (!uop)
                break;
        }
        // ---- consume this cycle, in System::tick() component order ----
        c.now_ = now;
        bus_->tick();
        if (fabric_)
            fabric_->tick(now);
        if (iface_ && iface_->trapPending()) {
            // The fabric raised TRAP this or an earlier cycle; the core
            // takes it at the commit boundary instead of the classified
            // action, exactly like Core::step().
            c.takeMonitorTrap();
            ++tally[static_cast<unsigned>(Core::CycleBucket::kCommit)];
        } else if (is_stall) {
            --c.stall_;
            ++tally[static_cast<unsigned>(Core::CycleBucket::kLatency)];
        } else {
            // One real I-cache access per line entered keeps the LRU
            // relative order identical (repeat hits only re-stamp the
            // same line); the remaining same-line hits are batched.
            const Addr line = c.pc_ & ~(c.params_.icache.line_bytes - 1);
            if (line != burst_line) {
                c.icache_.access(c.pc_);
                burst_line = line;
            } else {
                ++n_line_hits;
            }
            c.fetch_slot_ = slot;
            execUop(*uop, now, tally, &n_insts, &n_fwd);
        }
        c.store_buffer_.tick();
        ++n_cycles;
        ++now;
    }

    c.cycles_ += n_cycles;
    for (unsigned b = 0;
         b < static_cast<unsigned>(Core::CycleBucket::kNumBuckets); ++b)
        *c.bucket_counters_[b] += tally[b];
    c.instructions_ += n_insts;
    c.icache_.addBatchedHits(n_line_hits);
    if (iface_)
        iface_->forwarded_ += n_fwd;
    return now;
#else
    // Debug builds run the real interpreter for every cycle and
    // lockstep-verify each dispatched handler against it, so a debug
    // threaded run is the interpreter plus proofs.
    while (now < limit) {
        if (c.halted_ || c.state_ != Core::State::kReady)
            break;
        const bool is_stall = c.stall_ > 0;
        const Core::Uop *uop = nullptr;
        u32 slot = 0;
        if (!is_stall) {
            if (c.fetch_retry_ || !c.micro_queue_.empty())
                break;
            uop = probeFetch(&slot);
            if (!uop)
                break;
        }
        bus_->tick();
        if (fabric_)
            fabric_->tick(now);
        const bool will_trap = iface_ && iface_->trapPending();
        if (uop && !is_stall && !will_trap) {
            // Copy: a store may invalidate its own µop entry in place.
            const Core::Uop verify_uop = *uop;
            const Snapshot pre = snapshot(verify_uop);
            c.tick(now);
            verifyUop(verify_uop, pre);
        } else {
            c.tick(now);
        }
        c.store_buffer_.tick();
        ++now;
    }
    return now;
#endif
}

#ifndef NDEBUG

ThreadedEngine::Snapshot
ThreadedEngine::snapshot(const Core::Uop &uop) const
{
    const Core &c = *c_;
    Snapshot s;
    s.regs = c.regs_;
    s.icc = c.icc_;
    s.y = c.y_;
    s.pc = c.pc_;
    s.npc = c.npc_;
    s.depth = c.depth_;
    s.spilled = c.spilled_;
    s.console_len = c.console_.size();
    s.exit_code = c.exit_code_;
    if (uop.decode_bits & 4u) {
        const u32 a = c.regs_.read(uop.inst.rs1);
        const u32 b = c.operand2(uop.inst);
        s.mem_word_addr = (a + b) & ~Addr{3};
        s.mem_word = c.mem_->read32(s.mem_word_addr);
        s.have_mem_word = true;
    }
    return s;
}

void
ThreadedEngine::verifyUop(const Core::Uop &uop, const Snapshot &pre)
{
    Core &c = *c_;
    // Trap and window paths delegate to the interpreter's own
    // raiseTrap()/enqueueWindowSpill()/enqueueWindowFill(), so there is
    // no transcription to verify (and no clean way to roll them back).
    if (c.halted_ || c.state_ == Core::State::kDrainTrap ||
        !c.micro_queue_.empty())
        return;

    const CommitPacket interp_pkt = c.cur_.pkt;
    const u32 interp_extra = c.cur_.extra_stall;
    const bool interp_cpread = c.cur_.is_cpread;
    const bool interp_exit = c.cur_.is_exit;
    const bool interp_store = c.cur_.is_store;

    const RegWindowFile post_regs = c.regs_;
    const u8 post_cond = c.icc_.packed();
    const u32 post_y = c.y_;
    const Addr post_pc = c.pc_;
    const Addr post_npc = c.npc_;
    const unsigned post_depth = c.depth_;
    const unsigned post_spilled = c.spilled_;
    const std::string post_console = c.console_;
    const u32 post_exit = c.exit_code_;

    // Rewind the architectural state only; the timing state keeps the
    // interpreter's (authoritative) outcome.
    c.regs_ = pre.regs;
    c.icc_ = pre.icc;
    c.y_ = pre.y;
    c.pc_ = pre.pc;
    c.npc_ = pre.npc;
    c.depth_ = pre.depth;
    c.spilled_ = pre.spilled;
    c.console_.resize(pre.console_len);
    c.exit_code_ = pre.exit_code;
    if (pre.have_mem_word)
        c.mem_->write32(pre.mem_word_addr, pre.mem_word);

    CommitPacket pkt;
    const u32 flags = uop.exec(c, uop, pkt);

    assert(!(flags & (kHTrap | kHWindow)) &&
           "handler took a trap/window path the interpreter did not");
    assert((flags & kHStallMask) == interp_extra);
    assert(((flags & kHCpread) != 0) == interp_cpread);
    assert(((flags & kHExit) != 0) == interp_exit);
    assert(((flags & kHStore) != 0) == interp_store);
    assert(pkt.pc == interp_pkt.pc && pkt.inst == interp_pkt.inst &&
           pkt.addr == interp_pkt.addr && pkt.res == interp_pkt.res &&
           pkt.srcv1 == interp_pkt.srcv1 &&
           pkt.srcv2 == interp_pkt.srcv2 &&
           pkt.cond == interp_pkt.cond &&
           pkt.branch == interp_pkt.branch &&
           pkt.opcode == interp_pkt.opcode &&
           pkt.decode == interp_pkt.decode &&
           pkt.extra == interp_pkt.extra &&
           pkt.src1 == interp_pkt.src1 && pkt.src2 == interp_pkt.src2 &&
           pkt.dest == interp_pkt.dest &&
           pkt.wants_ack == interp_pkt.wants_ack &&
           "threaded handler must reproduce the interpreter's packet");
    assert(pkt.di.raw == interp_pkt.di.raw &&
           pkt.di.op == interp_pkt.di.op);
    for (unsigned r = 0; r < kNumPhysRegs; ++r)
        assert(c.regs_.readPhys(r) == post_regs.readPhys(r) &&
               "threaded handler must reproduce the register file");
    assert(c.regs_.cwp() == post_regs.cwp());
    assert(c.icc_.packed() == post_cond && c.y_ == post_y);
    assert(c.pc_ == post_pc && c.npc_ == post_npc);
    assert(c.depth_ == post_depth && c.spilled_ == post_spilled);
    assert(c.console_ == post_console && c.exit_code_ == post_exit);
    (void)flags;
    (void)interp_extra;
    (void)interp_cpread;
    (void)interp_exit;
    (void)interp_store;
    (void)post_cond;
    (void)post_y;
    (void)post_pc;
    (void)post_npc;
    (void)post_depth;
    (void)post_spilled;
    (void)post_exit;
}

#endif  // !NDEBUG

void
ThreadedEngine::warmMetaOps(const MetaAccess *ops, unsigned num_ops)
{
    if (!fabric_)
        return;
    // Warm the meta-data cache with the accesses this packet would
    // perform (timing-free: misses fill instantly, no writebacks).
    const u32 line_bytes = fabric_->params_.meta_cache.line_bytes;
    for (unsigned i = 0; i < num_ops; ++i) {
        const MetaAccess &op = ops[i];
        if (fabric_->params_.tlb.enabled) {
            const u32 vpn = op.addr >> fabric_->params_.tlb.page_shift;
            Fabric::TlbEntry &entry =
                fabric_->tlb_[vpn % fabric_->tlb_.size()];
            entry.valid = true;
            entry.vpn = vpn;
        }
        if (!fabric_->meta_cache_.access(op.addr, op.is_write)) {
            fabric_->meta_cache_.fill(op.addr & ~(line_bytes - 1),
                                      op.is_write);
        }
    }
}

void
ThreadedEngine::warmForward(const CommitPacket &pkt)
{
    if (!iface_ || !monitor_)
        return;
    const InstrType type = static_cast<InstrType>(pkt.opcode);
    if (iface_->cfgr_.policy(type) == ForwardPolicy::kIgnore)
        return;
    // Functional forwarding: the packet reaches the monitor with no
    // FIFO occupancy or fabric-cycle modeling. The kIfNotFull policy
    // can therefore never drop here — warming processes a superset of
    // the packets a congested timing run would (docs/performance.md).
    ++iface_->forwarded_;
    ++iface_->forwarded_by_type_[type];
    MonitorResult result;
    monitor_->process(pkt, &result);
    warmMetaOps(result.ops.data(), result.num_ops);
    if (result.trap) {
        monitor_->noteTrap(result.trap_reason ? result.trap_reason
                                              : "check failed");
        iface_->raiseTrap(pkt.pc);
        // drainFunctional() emptied the FIFO at warm() entry and
        // warming keeps it empty, so the trap resolves immediately
        // (no drain phase).
        c_->takeMonitorTrap();
        return;
    }
    if (result.has_bfifo)
        iface_->pushBfifo(result.bfifo);
}

void
ThreadedEngine::drainFunctional()
{
    if (!iface_)
        return;
    // Apply one retired packet's staged effects in the fabric's retire
    // order (trap, BFIFO, CACK); returns true when the trap ends the
    // run, exactly as the timed core would take it on its next cycle.
    const auto retire = [&](bool trap, const char *trap_reason,
                            bool has_bfifo, u32 bfifo, bool wants_ack,
                            Addr pc) {
        if (trap) {
            monitor_->noteTrap(trap_reason ? trap_reason
                                           : "check failed");
            iface_->raiseTrap(pc);
        }
        if (has_bfifo)
            iface_->pushBfifo(bfifo);
        if (wants_ack)
            iface_->signalAck();
        if (trap) {
            c_->takeMonitorTrap();
            return true;
        }
        return false;
    };

    if (fabric_) {
        // 1. Packets already through the monitor, waiting out their
        // pipeline latency: only their staged effects remain.
        while (fabric_->pipe_count_ > 0) {
            const Fabric::InFlight done =
                fabric_->pipe_[fabric_->pipe_head_];
            fabric_->pipe_head_ =
                (fabric_->pipe_head_ + 1) & fabric_->pipe_mask_;
            --fabric_->pipe_count_;
            if (retire(done.trap, done.trap_reason, done.has_bfifo,
                       done.bfifo, done.wants_ack, done.pc))
                return;
        }
        // 2. A dequeued packet whose extra meta-cache ops were still
        // draining: the monitor has processed it, so warm the
        // remaining accesses and apply its staged effects. The
        // sampling boundary guarantees the bus is idle, hence no
        // refill is in flight and the fabric is not frozen.
        if (fabric_->have_pending_) {
            if (fabric_->pending_idx_ < fabric_->pending_num_ops_) {
                warmMetaOps(
                    &fabric_->pending_ops_[fabric_->pending_idx_],
                    fabric_->pending_num_ops_ - fabric_->pending_idx_);
            }
            fabric_->have_pending_ = false;
            fabric_->pending_extra_input_block_ = 0;
            const Fabric::InFlight &done = fabric_->pending_effects_;
            if (retire(done.trap, done.trap_reason, done.has_bfifo,
                       done.bfifo, done.wants_ack, done.pc))
                return;
        }
    }
    // 3. Queued FFIFO packets, oldest first: process each through the
    // monitor exactly as the fabric's dequeue stage would, then apply
    // its effects immediately. forwarded_ was counted at offer() time,
    // so only the fabric-side packet counter advances here.
    while (iface_->fifo_count_ > 0) {
        const CommitPacket pkt =
            iface_->fifo_[iface_->fifo_head_].packet;
        iface_->popFront();
        if (!monitor_)
            continue;
        if (fabric_)
            ++fabric_->packets_;
        MonitorResult result;
        monitor_->process(pkt, &result);
        warmMetaOps(result.ops.data(), result.num_ops);
        if (retire(result.trap, result.trap_reason, result.has_bfifo,
                   result.bfifo, pkt.wants_ack, pkt.pc))
            return;
    }
    if (fabric_)
        iface_->setFabricIdle(true);
}

void
ThreadedEngine::warmMicroOps()
{
    Core &c = *c_;
    while (!c.micro_queue_.empty() && !c.halted_) {
        const Core::MicroOp op = c.micro_queue_.front();
        c.micro_queue_.pop_front();
        ++c.micro_ops_;
        CommitPacket pkt;
        pkt.pc = c.pc_;
        switch (op.kind) {
          case Core::MicroOp::Kind::kAlu:
            continue;   // one-cycle filler; never forwarded
          case Core::MicroOp::Kind::kLoad: {
            const u32 value = c.mem_->read32(op.addr);
            if (op.forward)
                c.regs_.writePhys(op.phys_reg, value);
            pkt.opcode = kTypeLoadWord;
            pkt.addr = op.addr;
            pkt.res = value;
            pkt.dest = static_cast<u16>(op.phys_reg);
            pkt.di.op = Op::kLd;
            pkt.di.type = kTypeLoadWord;
            pkt.di.valid = true;
            if (!c.dcache_.access(op.addr))
                c.dcache_.fill(op.addr &
                               ~(c.params_.dcache.line_bytes - 1));
            break;
          }
          case Core::MicroOp::Kind::kStore: {
            if (op.forward) {
                c.mem_->write32(op.addr, op.store_value);
                c.invalidateUopsAt(op.addr);
            }
            pkt.opcode = kTypeStoreWord;
            pkt.addr = op.addr;
            pkt.res = op.store_value;
            pkt.dest = static_cast<u16>(op.phys_reg);
            pkt.di.op = Op::kSt;
            pkt.di.type = kTypeStoreWord;
            pkt.di.valid = true;
            c.dcache_.access(op.addr);   // write-through, no allocate
            break;
          }
        }
        if (op.forward)
            warmForward(pkt);
    }
}

u64
ThreadedEngine::warm(u64 max_instructions)
{
    Core &c = *c_;
    // The detailed window closed at a sampling boundary that allows
    // queued forward packets and staged pipe effects; retire them
    // functionally so warming (and the next detailed window) starts
    // from an empty FIFO and an idle fabric.
    drainFunctional();
    u64 done = 0;
    while (done < max_instructions && !c.halted_) {
        if (!c.micro_queue_.empty()) {
            warmMicroOps();
            continue;
        }
        // Functional fetch with I-cache warming: misses fill instantly.
        if (c.icache_.access(c.pc_)) {
            c.fetch_slot_ = c.icache_.lastSlot();
        } else {
            const Cache::FillResult fill = c.icache_.fill(
                c.pc_ & ~(c.params_.icache.line_bytes - 1));
            if (c.uop_words_per_line_)
                c.uop_masks_[fill.slot] = 0;
            c.fetch_slot_ = fill.slot;
        }
        const Core::Uop &decoded = c.decodedFetch();
        if (!decoded.inst.valid) {
            c.raiseTrap(TrapKind::kIllegalInstr, c.pc_,
                        "undecodable instruction");
            break;
        }
        if (!decoded.exec) {
            c.raiseTrap(TrapKind::kIllegalInstr, c.pc_, "illegal opcode");
            break;
        }
        // Copy: a store may invalidate its own µop entry in place.
        const Core::Uop uop = decoded;
        CommitPacket &pkt = scratch_pkt_;
        const u32 flags = uop.exec(c, uop, pkt);
        if (flags & kHTrap)
            break;   // the FIFO is empty, so raiseTrap() halted the core
        if (flags & kHWindow)
            continue;   // drain the spill/fill, then re-execute this pc
        if (flags & kHLoad) {
            if (!c.dcache_.access(pkt.addr))
                c.dcache_.fill(pkt.addr &
                               ~(c.params_.dcache.line_bytes - 1));
        } else if (flags & kHStore) {
            c.dcache_.access(pkt.addr);   // write-through, no allocate
        }
        ++c.instructions_;
        ++c.committed_by_type_[pkt.opcode];
        if (c.tracer_)
            c.tracer_(c.now_, pkt.pc, pkt.di);
        // Streamed commit records keep the instruction log complete
        // across functional warming; now_ is frozen between detailed
        // windows, so these records all carry the window-boundary
        // cycle (bracketed by the kWindow records System emits).
        if (c.trace_)
            c.trace_->commit(c.now_, pkt.pc, pkt.inst);
        warmForward(pkt);
        if (!c.halted_ && (flags & kHCpread) && c.iface_) {
            // 'read from co-processor': the monitor's BFIFO value lands
            // in rd with no kWaitBfifo stall.
            if (auto value = c.iface_->popBfifo())
                c.regs_.write(uop.inst.rd, *value);
        }
        if (injector_)
            injector_->onCommit(c.instructions_.value(), c.now_);
        ++done;
        if (flags & kHExit) {
            // No packets are in flight, so the exit drain is empty.
            c.halted_ = true;
            break;
        }
    }
    return done;
}

}  // namespace flexcore
