/**
 * @file
 * Cycle-level timing model of a Leon3-class SPARC V8 core: 7-stage
 * single-issue in-order pipeline abstracted as one commit per cycle
 * plus explicit stall sources (I-cache misses, load delay, multi-cycle
 * mul/div, annulled delay slots, store-buffer backpressure, window
 * spill/fill microcode, and forward-FIFO backpressure from the
 * FlexCore interface at the commit stage).
 */

#ifndef FLEXCORE_CORE_CORE_H_
#define FLEXCORE_CORE_CORE_H_

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "assembler/program.h"
#include "common/stats.h"
#include "common/trace_event.h"
#include "core/alu.h"
#include "core/regfile.h"
#include "core/trap.h"
#include "flexcore/interface.h"
#include "memory/bus.h"
#include "memory/cache.h"
#include "memory/memory.h"
#include "memory/store_buffer.h"
#include "monitors/software.h"

namespace flexcore {

class FaultInjector;
class PcProfile;

struct CoreParams
{
    CacheParams icache{32 * 1024, 32, 4};
    CacheParams dcache{32 * 1024, 32, 4};
    u32 store_buffer_depth = 8;

    // Stall cycles beyond the base 1-cycle commit.
    u32 load_extra = 1;       //!< Leon3 load-delay cycle
    u32 mul_extra = 3;
    u32 div_extra = 34;
    u32 branch_taken_extra = 1;  //!< fetch-redirect bubble not covered
                                 //!< by the delay slot (7-stage pipe)
    u32 call_extra = 1;
    u32 jmpl_extra = 2;       //!< register-indirect target resolves late
    u32 annul_extra = 1;      //!< annulled delay slot bubble
    u32 trap_overhead = 8;    //!< window spill/fill microcode entry

    Addr stack_top = 0x00400000;  //!< initial %sp
};

class ThreadedEngine;

class Core
{
  public:
    /**
     * Exhaustive cycle attribution: every simulated cycle is charged
     * to exactly one bucket, so the buckets always sum to cycles().
     * kCommit covers productive work (execute/commit/dispatch of an
     * instruction or micro-op and trap resolution); every other bucket
     * is a distinct structural stall source. See docs/observability.md
     * for the full taxonomy.
     */
    enum class CycleBucket : u8 {
        kCommit,       //!< instruction/micro-op progress
        kLatency,      //!< fixed-latency stalls (mul/div/branch/...)
        kImiss,        //!< I-cache refill in service on the bus
        kDmiss,        //!< D-cache refill in service on the bus
        kBusQueue,     //!< refill queued behind another bus transaction
        kSbWait,       //!< store buffer full
        kFfifoFull,    //!< commit stalled on a full forward FIFO
        kAckWait,      //!< waiting for the fabric's CACK
        kBfifoWait,    //!< waiting for a 'read from co-processor' value
        kDrain,        //!< draining the fabric at exit/trap
        kNumBuckets,
    };
    static std::string_view cycleBucketName(CycleBucket bucket);

    Core(StatGroup *parent, Memory *memory, Bus *bus, CoreParams params);

    /**
     * This core's index in a multi-core system (0, the default, on
     * single-core). Sets the CommitPacket core tag, the bus arbitration
     * port, the per-core interface lane (CACK/BFIFO/TRAP routing), and
     * the value the coreid software trap returns. Call before the
     * first tick; System does.
     */
    void
    setCoreId(u8 id)
    {
        core_id_ = id;
        bus_port_ = id;
        store_buffer_.setBusPort(id);
    }
    u8 coreId() const { return core_id_; }

    /**
     * Write-through coherence over the shared window: a store by this
     * core into [base, base+size) invalidates the matching D-cache
     * line and any decoded µops in every peer. Peers exclude this core
     * (System passes the other cores). Single-core systems never call
     * this, so the store path pays only an empty-vector check.
     */
    void
    setCoherence(Addr base, u32 size, std::vector<Core *> peers)
    {
        shared_base_ = base;
        shared_size_ = size;
        coherence_peers_ = std::move(peers);
    }

    /** Attach the FlexCore interface (null = unmodified baseline). */
    void attachInterface(FlexInterface *iface) { iface_ = iface; }

    /** Attach a software instrumentation model (software-mode runs). */
    void attachSoftwareMonitor(const SoftwareMonitor *monitor)
    {
        swmon_ = monitor;
    }

    /**
     * Attach the fault injector (null = none, the default). The only
     * hot-path cost without one is a single null check per committed
     * instruction; with one, FaultInjector::onCommit() fires after
     * every architectural commit so commit-indexed faults land at
     * their exact instruction boundary.
     */
    void setFaultInjector(FaultInjector *injector)
    {
        fault_injector_ = injector;
    }

    /** Per-committed-instruction hook (debug tracing). */
    using Tracer = std::function<void(Cycle, Addr, const Instruction &)>;
    void setTracer(Tracer tracer) { tracer_ = std::move(tracer); }

    /**
     * Attach a trace-event sink (null = off, the default). When
     * attached, stall episodes emit duration events and monitor traps
     * instant events; when null the only hot-path cost is one branch.
     */
    void setTraceSink(TraceSink *sink) { trace_ = sink; }
    /** Close the open stall episode (call once at end of run). */
    void flushTrace();

    /**
     * Attach a per-PC cycle profiler (null = off, the default). Every
     * tick then charges its bucket to attributionPc() as well; attach
     * before the first cycle so the profile total tracks core.cycles
     * exactly (debug-asserted every tick). Costs one branch when null.
     */
    void setProfile(PcProfile *profile) { profile_ = profile; }

    /**
     * The PC a profiled cycle is charged to: a fetch wait (I-miss
     * service or its bus queueing) charges the PC being fetched; every
     * other cycle charges the in-flight commit packet's PC — the
     * instruction committing, stalling, or draining. Well-defined for
     * idle stretches too: both stretch buckets (kLatency, and the
     * kWaitBus family) keep this value constant across the stretch, so
     * advanceIdle() attributes exactly as k single ticks would.
     */
    Addr
    attributionPc() const
    {
        return (state_ == State::kWaitBus && wait_is_fetch_) ? pc_
                                                             : cur_.pkt.pc;
    }

    /** Load an assembled program and reset architectural state. */
    void loadProgram(const Program &program);

    /** Advance one core-clock cycle. */
    void tick(Cycle now);

    /**
     * A provably uneventful run of upcoming cycles: every one of them
     * would charge the same bucket and change no other core state. A
     * zero length means the core is not in a skippable state.
     */
    struct IdleStretch
    {
        u64 cycles = 0;
        CycleBucket bucket = CycleBucket::kCommit;
    };

    /**
     * Detect a skippable idle stretch. Only valid when the rest of the
     * system is quiescent too (fabric idle, FFIFO empty, store buffer
     * empty) — System::fastForward() checks those.
     */
    IdleStretch idleStretch() const;

    /**
     * Cheap pre-filter for idleStretch(): true only in the two states
     * that can yield a non-zero stretch (a multi-cycle fixed-latency
     * stall, or a bus refill wait). Lets the run loop skip the full
     * quiescence checks on ordinary commit cycles.
     */
    bool
    idleCandidate() const
    {
        return (state_ == State::kReady && stall_ > 1) ||
               state_ == State::kWaitBus;
    }

    /**
     * Bulk-apply @p k cycles of @p bucket, exactly as k tick() calls
     * over an IdleStretch would: counters, stall bookkeeping, and the
     * stall-episode trace all advance identically.
     */
    void advanceIdle(u64 k, CycleBucket bucket);

    /**
     * True when the core itself has nothing in flight: ready to fetch
     * a fresh instruction with no stall, pending micro-ops, or fetch
     * retry. Sampled timing requires this (plus whole-system
     * quiescence) before switching to functional warming, so a
     * detailed window never cuts an instruction in half.
     */
    bool
    quiescent() const
    {
        return state_ == State::kReady && stall_ == 0 &&
               micro_queue_.empty() && !fetch_retry_;
    }

    bool halted() const { return halted_; }
    u32 exitCode() const { return exit_code_; }
    const TrapInfo &trap() const { return trap_; }
    const std::string &consoleOutput() const { return console_; }

    u64 instructions() const { return instructions_.value(); }
    /** Spill/fill and instrumentation micro-ops committed. */
    u64 microOps() const { return micro_ops_.value(); }
    u64 committedOfType(InstrType type) const
    {
        return committed_by_type_[type];
    }

    /** Total simulated core cycles (the sum of all cycle buckets). */
    u64 cycles() const { return cycles_.value(); }
    u64 cyclesIn(CycleBucket bucket) const
    {
        return bucket_counters_[static_cast<unsigned>(bucket)]->value();
    }

    RegWindowFile &regs() { return regs_; }
    Alu &alu() { return alu_; }
    Cache &icache() { return icache_; }
    Cache &dcache() { return dcache_; }
    StoreBuffer &storeBuffer() { return store_buffer_; }

    /**
     * Self-modifying-code / fault-injection safety: force a re-decode
     * of any resident µop covering @p addr. Stores call this on the
     * commit path; the fault injector calls it after memory bit flips
     * that may land in decoded text.
     */
    void invalidateUopsAt(Addr addr);

  private:
    /** Threaded-dispatch/warming engine (src/core/threaded.cc): drives
     * bursts over the µop cache with full access to the commit path. */
    friend class ThreadedEngine;

    enum class State : u8 {
        kReady,            //!< fetch/execute a new instruction
        kWaitBus,          //!< blocked on an I/D refill
        kWaitStoreBuffer,  //!< store buffer full, retrying
        kCommitPending,    //!< memory done; try the interface
        kCommitStall,      //!< FFIFO full under kAlways/kWaitAck
        kWaitAck,          //!< waiting for CACK
        kWaitBfifo,        //!< 'read from co-processor' outstanding
        kDrainExit,        //!< program exited; draining the fabric
        kDrainTrap,        //!< core trap raised; draining the fabric
                           //!< first so a monitor trap can take
                           //!< precedence (§III-C)
    };

    /** One spill/fill or instrumentation micro-operation. */
    struct MicroOp
    {
        enum class Kind : u8 { kAlu, kLoad, kStore };
        Kind kind = Kind::kAlu;
        Addr addr = 0;
        u16 phys_reg = 0;
        u32 store_value = 0;
        bool forward = false;   //!< forward to the fabric (spill/fill)
    };

    /** Context of the instruction currently in the commit pipeline. */
    struct ExecContext
    {
        CommitPacket pkt;
        u32 extra_stall = 0;
        bool skip_offer = false;   //!< unforwarded micro-op
        bool is_micro = false;
        bool is_cpread = false;
        unsigned cpread_rd = 0;
        bool is_exit = false;
        Addr store_addr = 0;
        bool is_store = false;
    };

    struct Uop;
    /**
     * Threaded-dispatch handler: executes one instruction's
     * architectural semantics and fills @p pkt with the exact bytes
     * executeInstruction() would produce, returning extra-stall cycles
     * and outcome flags (src/core/threaded.cc). Handlers never touch
     * timing state (caches, bus, store buffer, interface) — the engine
     * driving them does. Null marks an op the burst engine must hand
     * back to the interpreter.
     */
    using BurstFn = u32 (*)(Core &core, const Uop &uop,
                            CommitPacket &pkt);
    /** Handler for @p inst, assigned once at decode (threaded.cc). */
    static BurstFn burstHandlerFor(const Instruction &inst);

    /** One pre-decoded instruction word of a resident I-cache line. */
    struct Uop
    {
        Instruction inst;
        u32 decode_bits = 0;   //!< CommitPacket::decode, precomputed
        BurstFn exec = nullptr;  //!< threaded-dispatch handler
    };

    void step();
    void chargeBusWait();
    void traceEpisode();
    void startWork();
    void execMicroOp();
    bool fetchTimingOk();
    const Uop &decodedFetch();
    void executeInstruction(const Uop &uop);
    void scheduleStoreThenCommit();
    void tryCommit();
    void finishInstruction();
    void raiseTrap(TrapKind kind, Addr pc, std::string detail);
    void takeMonitorTrap();

    void enqueueWindowSpill();
    void enqueueWindowFill();
    unsigned windowSlot(unsigned window, unsigned arch_reg) const;

    /** Shared-window store: invalidate the line in every peer core. */
    void notifyPeersOfStore(Addr addr);

    u32 operand2(const Instruction &inst) const;
    void advancePc();

    Memory *mem_;
    Bus *bus_;
    CoreParams params_;
    u8 core_id_ = 0;
    u8 bus_port_ = 0;
    Addr shared_base_ = 0;           //!< coherent window (multi-core)
    u32 shared_size_ = 0;
    std::vector<Core *> coherence_peers_;
    FlexInterface *iface_ = nullptr;
    const SoftwareMonitor *swmon_ = nullptr;
    FaultInjector *fault_injector_ = nullptr;
    Tracer tracer_;
    TraceSink *trace_ = nullptr;
    PcProfile *profile_ = nullptr;

    // Architectural state.
    RegWindowFile regs_;
    Alu alu_;
    Icc icc_;
    u32 y_ = 0;
    Addr pc_ = 0;
    Addr npc_ = 4;
    unsigned depth_ = 1;      //!< live register windows
    unsigned spilled_ = 0;    //!< windows spilled to memory

    // Timing state.
    Cache icache_;
    Cache dcache_;
    /**
     * Pre-decoded µop cache, mirroring the I-cache line slots: slot s
     * holds the decoded words of whatever line currently occupies
     * I-cache slot s. A word is valid when its bit is set in
     * uop_masks_[s]; fill() resetting a slot's mask is the eviction
     * invalidation, and stores into decoded text clear the mask too
     * (self-modifying code). Fetches therefore never re-decode a
     * resident instruction.
     */
    std::vector<Uop> uops_;
    std::vector<u32> uop_masks_;
    Uop fallback_uop_;             //!< scratch when the cache is off
    u32 uop_words_per_line_ = 0;   //!< 0 disables the µop cache
    u32 fetch_slot_ = 0;           //!< I-cache slot of the fetched line
    Addr decoded_lo_ = ~Addr{0};   //!< line-granular bounds of all text
    Addr decoded_hi_ = 0;          //!< ever decoded (store filter)
    StoreBuffer store_buffer_;
    State state_ = State::kReady;
    u32 stall_ = 0;
    bool fetch_retry_ = false;   //!< refill done; skip the I$ recheck
    std::deque<MicroOp> micro_queue_;
    ExecContext cur_;

    // Run status.
    bool halted_ = false;
    u32 exit_code_ = 0;
    TrapInfo trap_;
    TrapInfo pending_trap_;   //!< core trap held while draining
    std::string console_;
    Cycle now_ = 0;
    std::vector<SwMicroOp> sw_expansion_;   // scratch

    // Statistics.
    StatGroup stats_;
    Counter instructions_;
    Counter micro_ops_;
    Counter cycles_;
    Counter commit_cycles_;
    Counter latency_stall_cycles_;
    Counter imiss_wait_cycles_;
    Counter dmiss_wait_cycles_;
    Counter bus_queue_wait_cycles_;
    Counter sb_wait_cycles_;
    Counter ffifo_full_cycles_;
    Counter ack_wait_cycles_;
    Counter bfifo_wait_cycles_;
    Counter drain_cycles_;
    Counter window_spills_;
    Counter window_fills_;
    Formula ipc_;
    /** Maps each CycleBucket to the counter that accumulates it. */
    Counter *bucket_counters_[static_cast<unsigned>(
        CycleBucket::kNumBuckets)] = {};
    u64 committed_by_type_[kNumInstrTypes] = {};
    bool wait_is_fetch_ = false;
    bool bus_serving_us_ = false;   //!< our refill reached the bus head

    // Per-cycle attribution state.
    CycleBucket bucket_ = CycleBucket::kCommit;
    CycleBucket episode_bucket_ = CycleBucket::kCommit;
    Cycle episode_start_ = 0;
};

}  // namespace flexcore

#endif  // FLEXCORE_CORE_CORE_H_
