/**
 * @file
 * Threaded-code dispatch and functional-warming engine. Two entry
 * points, both observably identical to the per-cycle interpreter where
 * they apply:
 *
 *  - burst(): execute a superblock of straight-line cycles using the
 *    pre-decoded µop cache's function-pointer handlers, replicating the
 *    System::tick() component order per cycle but batching counter
 *    updates and inlining the common-case commit. Exits (without
 *    consuming a cycle) whenever the next cycle is not provably a
 *    plain in-line fetch/latency cycle, handing control back to the
 *    interpreter loop. Debug builds lockstep-verify every handler
 *    against the real interpreter instead (see threaded.cc).
 *
 *  - warm(): SMARTS-style functional warming — architectural state,
 *    monitor shadow state, and cache contents advance with no cycle
 *    accounting at all. Used between detailed windows in sampled
 *    timing mode (SystemConfig::sample_window/sample_period).
 *
 * Correctness arguments live in docs/performance.md; the differential
 * suites (tests/test_differential.cc, tests/test_sampling.cc) enforce
 * them on the Table IV grid.
 */

#ifndef FLEXCORE_CORE_THREADED_H_
#define FLEXCORE_CORE_THREADED_H_

#include "core/core.h"

namespace flexcore {

class Fabric;
class FaultInjector;
class Monitor;
struct MetaAccess;

class ThreadedEngine
{
  public:
    /** All pointers may be null except @p core and @p bus. */
    ThreadedEngine(Core *core, Bus *bus, FlexInterface *iface,
                   Fabric *fabric, Monitor *monitor,
                   FaultInjector *injector);

    /**
     * Run burst cycles starting at @p now until the cycle limit, the
     * core halts, or the next cycle is not burstable. Returns the new
     * current cycle (== the count of cycles consumed plus @p now); the
     * caller resumes the interpreter loop from there. Never consumes a
     * cycle it cannot handle exactly.
     */
    Cycle burst(Cycle now, Cycle limit);

    /**
     * Functionally execute up to @p max_instructions committed
     * instructions: registers, memory, console, monitor meta-data, and
     * I/D/meta cache contents all advance; cycles do not. Monitor
     * traps and program exit halt the core exactly as in timing mode.
     * Returns the number of instructions committed.
     */
    u64 warm(u64 max_instructions);

    /** Dispatch-table lookup for Core::burstHandlerFor (threaded.cc). */
    static Core::BurstFn handlerFor(const Instruction &inst);

  private:
    // Handler return flags (bits 0-7 carry the extra-stall cycles).
    static constexpr u32 kHStallMask = 0xffu;
    static constexpr u32 kHTrap = 1u << 8;     //!< raiseTrap() was called
    static constexpr u32 kHWindow = 1u << 9;   //!< spill/fill enqueued
    static constexpr u32 kHExit = 1u << 10;    //!< `ta 0` exit
    static constexpr u32 kHLoad = 1u << 11;    //!< needs a D-cache load
    static constexpr u32 kHStore = 1u << 12;   //!< needs SB + D-cache
    static constexpr u32 kHCpread = 1u << 13;  //!< 'read from co-proc'

    /** Shared packet prologue: everything executeInstruction() sets
     * before its opcode switch, byte-for-byte. */
    static void begin(Core &c, const Core::Uop &uop, CommitPacket &pkt,
                      u32 *a, u32 *b);

    // One handler per opcode group, each transcribing the matching
    // executeInstruction() case exactly (architectural semantics +
    // packet only; no timing state).
    static u32 hSethi(Core &c, const Core::Uop &uop, CommitPacket &pkt);
    static u32 hAlu(Core &c, const Core::Uop &uop, CommitPacket &pkt);
    static u32 hSave(Core &c, const Core::Uop &uop, CommitPacket &pkt);
    static u32 hRestore(Core &c, const Core::Uop &uop, CommitPacket &pkt);
    static u32 hLoad(Core &c, const Core::Uop &uop, CommitPacket &pkt);
    static u32 hStore(Core &c, const Core::Uop &uop, CommitPacket &pkt);
    static u32 hBicc(Core &c, const Core::Uop &uop, CommitPacket &pkt);
    static u32 hCall(Core &c, const Core::Uop &uop, CommitPacket &pkt);
    static u32 hJmpl(Core &c, const Core::Uop &uop, CommitPacket &pkt);
    static u32 hRdy(Core &c, const Core::Uop &uop, CommitPacket &pkt);
    static u32 hWry(Core &c, const Core::Uop &uop, CommitPacket &pkt);
    static u32 hTicc(Core &c, const Core::Uop &uop, CommitPacket &pkt);
    static u32 hCpop(Core &c, const Core::Uop &uop, CommitPacket &pkt);

    /** Probe (side-effect-free) for the µop the next fetch would hit;
     * null when the next cycle is not a burstable in-line fetch. */
    const Core::Uop *probeFetch(u32 *slot) const;

    /** Commit one handler-executed instruction on the fallback route:
     * populate Core::ExecContext and drive the real tryCommit(). */
    void commitViaInterp(u32 flags, Cycle now);

    /** Execute one burstable µop: pick the commit route, run the
     * handler, and finish inline or via commitViaInterp(). Updates the
     * burst-local counter batch. */
    void execUop(const Core::Uop &uop, Cycle now, u64 *tally,
                 u64 *n_insts, u64 *n_fwd);

    /** Functionally drain the micro-op queue (warming only). */
    void warmMicroOps();
    /** Forward one packet straight to the monitor (warming only). */
    void warmForward(const CommitPacket &pkt);
    /** Warm the meta cache (and TLB) with a processed packet's
     * accesses: misses fill instantly, no writebacks, no cycles. */
    void warmMetaOps(const MetaAccess *ops, unsigned num_ops);
    /**
     * Functionally retire everything the timing model still has in
     * flight at a sampling boundary: staged pipe effects first, then
     * the half-drained pending packet, then every queued FFIFO packet
     * (monitor processing + effects, no cycle accounting). Stops at
     * the first monitor trap, which halts the core exactly as the
     * timed drain would. Leaves the fabric idle and the FIFO empty.
     */
    void drainFunctional();

#ifndef NDEBUG
    /** Pre-execution architectural state, for handler verification. */
    struct Snapshot
    {
        RegWindowFile regs;
        Icc icc;
        u32 y = 0;
        Addr pc = 0;
        Addr npc = 0;
        unsigned depth = 0;
        unsigned spilled = 0;
        size_t console_len = 0;
        u32 exit_code = 0;
        Addr mem_word_addr = 0;   //!< store-target word (aligned)
        u32 mem_word = 0;
        bool have_mem_word = false;
    };
    Snapshot snapshot(const Core::Uop &uop) const;
    /** Lockstep check, run after the interpreter executed @p uop for
     * real: restore @p pre, run the handler, assert it reproduces the
     * interpreter's packet and post-state, then restore the
     * interpreter's post-state. */
    void verifyUop(const Core::Uop &uop, const Snapshot &pre);
#endif

    Core *c_;
    Bus *bus_;
    FlexInterface *iface_;
    Fabric *fabric_;
    Monitor *monitor_;
    FaultInjector *injector_;
    CommitPacket scratch_pkt_;   //!< target for unforwarded commits
};

}  // namespace flexcore

#endif  // FLEXCORE_CORE_THREADED_H_
