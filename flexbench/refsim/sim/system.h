/**
 * @file
 * The full simulated system: one or more Leon3-class cores on a shared
 * round-robin bus, per-core private memory with a coherent shared
 * window, and (depending on the configuration) the FlexCore interface
 * and reconfigurable fabric — one instance per core, or one
 * time-multiplexed fabric serving every core (SystemConfig::
 * fabric_sharing) — an ASIC extension, or a software instrumentation
 * model. Single-core configurations (the default) construct exactly
 * the classic topology and are byte-identical to it; see
 * docs/multicore.md for the multi-core model.
 */

#ifndef FLEXCORE_SIM_SYSTEM_H_
#define FLEXCORE_SIM_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "sim/config.h"

namespace flexcore {

class FaultInjector;
class PcProfile;
class ThreadedEngine;

/** Outcome of a simulation run. */
struct RunResult
{
    enum class Exit : u8 {
        kExited,        //!< program executed `ta 0`
        kMonitorTrap,   //!< a monitor check failed
        kCoreTrap,      //!< core-detected error (div-by-zero, ...)
        kMaxCycles,     //!< cycle limit reached
        kHang,          //!< no-commit watchdog fired (wedged pipeline)
        kDeadline,      //!< cancelled via CancelToken (wall-clock)
    };

    Exit exit = Exit::kMaxCycles;
    u32 exit_code = 0;
    TrapInfo trap;
    std::string trap_reason;    //!< monitor-provided detail
    u32 trap_inst = 0;          //!< instruction word at trap.pc
    /** Total cycles. Exact in full-detail runs; in sampled-timing runs
     * this is estimated_cycles (an extrapolation, not a count). */
    Cycle cycles = 0;
    u64 instructions = 0;
    std::string console;

    // ---- Sampled-timing fields (SystemConfig::sample_period > 0) ----
    /** True when the run used sampled timing and cycles is an estimate. */
    bool sampled = false;
    /** CPI extrapolation from the detailed windows:
     * detailed_cycles x instructions / detailed_instructions. */
    Cycle estimated_cycles = 0;  //!< == cycles in sampled runs
    Cycle detailed_cycles = 0;   //!< cycles actually simulated in detail
    u64 detailed_instructions = 0;  //!< instructions committed in detail
};

std::string_view exitName(RunResult::Exit exit);

class System
{
  public:
    explicit System(SystemConfig config);
    ~System();

    /** Load a program image and configure the monitor/CFGR. */
    void load(const Program &program);

    /**
     * Run until the program halts, a trap fires, or max_cycles.
     * When SystemConfig::fast_forward is set (the default), provably
     * uneventful stretches — the whole system quiescent while a fixed
     * stall or a lone SDRAM refill drains — advance in bulk, charging
     * the exact CycleBuckets the single-step path would; debug builds
     * verify that claim by single-stepping each predicted stretch
     * under asserts. Results, stats, and traces are byte-identical
     * either way (see docs/performance.md).
     */
    RunResult run();

    /** Single-cycle step (for tests). */
    void tick();

    /**
     * Attach a trace sink — a buffering `TraceBuffer` or a streaming
     * `TraceStreamWriter` — to the core, bus, fabric, and fault
     * injector (null detaches). run() closes open episodes when the
     * run ends.
     */
    void attachTrace(TraceSink *sink);

    /**
     * Attach a cooperative cancel token (null detaches; set before
     * run()). The run loops poll it every ~64Ki simulated cycles —
     * cheap enough to be invisible, frequent enough that an expired
     * token ends even a never-committing, never-idle program within
     * milliseconds — and return Exit::kDeadline with all state intact.
     * Simulated results up to the cancellation point are unchanged;
     * with no token attached the run loops are byte-for-byte the old
     * ones (the checks live on the monitored/burst-clamp paths only).
     */
    void setCancel(const CancelToken *cancel) { cancel_ = cancel; }

    /**
     * Attach a per-PC cycle profiler to core 0 (null detaches). Attach
     * before load(): load() sizes the profile table for the program's
     * text segment, and attribution must start at cycle zero for the
     * profile total to equal core.cycles.
     */
    void attachProfile(PcProfile *profile);

    /**
     * Attach a profiler to core @p i. Each core needs its own table —
     * the per-core invariant (profile total == that core's cycles)
     * is debug-asserted every tick, so the per-core tables provably
     * sum to the per-core cycle counters.
     */
    void attachProfileAt(u32 i, PcProfile *profile);

    const SystemConfig &config() const { return config_; }
    u32 numCores() const { return config_.num_cores; }
    Memory &memory() { return *memory_; }
    Bus &bus() { return *bus_; }
    /** Core 0 — kept for the (overwhelming) single-core call sites.
     * Multi-core-aware code should use core(i). */
    Core &core() { return *core_; }
    /** Core @p i (0-based; i < numCores()). */
    Core &
    core(u32 i)
    {
        return i == 0 ? *core_ : *extra_cores_[i - 1];
    }
    /** Core @p i's private functional memory. */
    Memory &
    memoryAt(u32 i)
    {
        return i == 0 ? *memory_ : *extra_memories_[i - 1];
    }
    FlexInterface *iface() { return iface_.get(); }
    Fabric *fabric() { return fabric_.get(); }
    Monitor *monitor() { return monitor_.get(); }
    /** The interface serving core @p i (the shared one, or core i's). */
    FlexInterface *
    ifaceForCore(u32 i)
    {
        if (i == 0 || config_.fabric_sharing == FabricSharing::kShared)
            return iface_.get();
        return extra_ifaces_[i - 1].get();
    }
    /** The fabric processing core @p i's packets. */
    Fabric *
    fabricForCore(u32 i)
    {
        if (i == 0 || config_.fabric_sharing == FabricSharing::kShared)
            return fabric_.get();
        return extra_fabrics_[i - 1].get();
    }
    /** The monitor instance holding core @p i's meta-data state (one
     * per core in both fabric topologies). */
    Monitor *
    monitorForCore(u32 i)
    {
        return i == 0 ? monitor_.get() : extra_monitors_[i - 1].get();
    }
    StatGroup &stats() { return stats_; }
    Cycle cycles() const { return now_; }

    /** Non-null iff the config carries a fault plan. */
    const FaultInjector *injector() const { return injector_.get(); }

  private:
    /** Construct cores 1..N-1 and wire coherence + fabric topology. */
    void buildExtraCores();

    /** Bulk-skip one quiescent stretch, if the system is in one. */
    void fastForward();

    /** Sampled-timing run loop (SystemConfig::sample_period > 0). */
    RunResult runSampled();
    /** Multi-core run loop (num_cores > 1; interpreter only). */
    RunResult runMulti();
    /** One multi-core cycle: bus, fabrics, cores in index order. */
    void tickMulti();
    /** All-cores quiescent bulk skip (multi-core fast-forward). */
    void fastForwardMulti();
    /** True when the run is over: every core halted, or any core
     * halted on a trap (the trap ends the whole run). */
    bool multiRunDone();
    /** Commit progress summed over all cores (watchdog food). */
    u64 totalProgress();
    /** Shared run() epilogue: flush observers, classify the exit. */
    RunResult finishRun(bool hung, bool cancelled, u64 wd);
    /** A state functional warming may take over from: core drained,
     * store buffer empty, bus idle, fabric not frozen, no pending
     * trap. Queued forward packets are fine — warm() drains them
     * functionally before it starts committing. */
    bool sampleBoundaryReady() const;

    SystemConfig config_;
    StatGroup stats_;
    std::unique_ptr<Memory> memory_;
    std::unique_ptr<Bus> bus_;
    std::unique_ptr<Core> core_;
    std::unique_ptr<Monitor> monitor_;
    std::unique_ptr<FlexInterface> iface_;
    std::unique_ptr<Fabric> fabric_;
    /**
     * Cores 1..N-1 of a multi-core system (index i-1 is core i); all
     * empty on single-core, where construction is byte-identical to
     * the classic topology. Core 0 stays in the flat members above —
     * and keeps the flat legacy stat names — while each extra core's
     * components live under a "cI" wrapper stat group. Every core has
     * its own monitor instance (private shadow/meta-data state); in
     * the shared-fabric topology the extra interface/fabric vectors
     * stay empty and the one fabric dispatches over a monitor bank.
     */
    std::vector<std::unique_ptr<StatGroup>> core_groups_;
    std::vector<std::unique_ptr<Memory>> extra_memories_;
    std::vector<std::unique_ptr<Core>> extra_cores_;
    std::vector<std::unique_ptr<Monitor>> extra_monitors_;
    std::vector<std::unique_ptr<FlexInterface>> extra_ifaces_;
    std::vector<std::unique_ptr<Fabric>> extra_fabrics_;
    /** Backing for the coherent shared window (multi-core only):
     * functional data and, under a monitor, its tags. */
    std::unique_ptr<Memory> shared_mem_;
    std::unique_ptr<TagStore> shared_tags_;
    std::unique_ptr<FaultInjector> injector_;
    /** Threaded-dispatch/warming engine; constructed only when
     * exec_mode is kThreaded or sampled timing is on. */
    std::unique_ptr<ThreadedEngine> engine_;
    Cycle now_ = 0;
    /** Cycle at which the no-commit watchdog fires (kCycleNever when
     * off); pushed forward by every committed instruction/micro-op.
     * fastForward() caps bulk skips here so the kHang cycle count is
     * byte-identical with fast-forwarding on or off. */
    Cycle watchdog_deadline_ = kCycleNever;
    /** Cooperative cancellation (null = feature off, zero cost). */
    const CancelToken *cancel_ = nullptr;
    /** Next simulated cycle at which cancel_ is polled; refreshed to
     * now_ + kCancelCheckCycles after every poll. */
    Cycle next_cancel_check_ = kCycleNever;
    TraceSink *trace_ = nullptr;
    PcProfile *profile_ = nullptr;
    /** Profilers attached to cores 1..N-1 (index i-1; may hold nulls).
     * Tracked so load() can size each table like core 0's. */
    std::vector<PcProfile *> extra_profiles_;
    size_t traced_ffifo_depth_ = 0;
};

}  // namespace flexcore

#endif  // FLEXCORE_SIM_SYSTEM_H_
