/**
 * @file
 * Top-level simulation configuration: which monitoring extension runs,
 * in which implementation (baseline / ASIC / FlexCore fabric /
 * software instrumentation), and all structural parameters.
 */

#ifndef FLEXCORE_SIM_CONFIG_H_
#define FLEXCORE_SIM_CONFIG_H_

#include <memory>
#include <string>
#include <string_view>

#include "core/core.h"
#include "faults/fault_plan.h"
#include "flexcore/fabric.h"
#include "monitors/monitor.h"

namespace flexcore {

enum class MonitorKind : u8 {
    kNone,
    kUmc,      //!< uninitialized memory check
    kDift,     //!< dynamic information flow tracking
    kBc,       //!< color-based array bound check
    kSec,      //!< soft-error check
    kProf,     //!< custom performance/working-set profiler (§II-B)
    kMemProt,  //!< Mondrian-style fine-grained memory protection
    kWatch,    //!< iWatcher-style hardware watchpoints
    kRefCount, //!< reference-counting GC support (pure bookkeeping)
};

enum class ImplMode : u8 {
    kBaseline,    //!< unmodified Leon3
    kAsic,        //!< extension in custom hardware at the core clock
    kFlexFabric,  //!< extension on the reconfigurable fabric
    kSoftware,    //!< inline software instrumentation on the core
};

/**
 * How the functional+timing loop executes. Both modes produce
 * byte-identical results (tests/test_differential.cc proves it);
 * threaded dispatch is a host-side optimization only.
 */
enum class ExecMode : u8 {
    kInterp,    //!< per-cycle interpreter state machine (golden)
    kThreaded,  //!< function-pointer superblock bursts over the µop cache
};

/**
 * Fabric topology for multi-core systems (docs/multicore.md). With one
 * core the two are identical — one core, one fabric either way.
 */
enum class FabricSharing : u8 {
    kPerCore,  //!< one fabric + interface instance per core
    kShared,   //!< one fabric time-multiplexed across all cores
};

std::string_view monitorKindName(MonitorKind kind);
std::string_view implModeName(ImplMode mode);
std::string_view execModeName(ExecMode mode);
std::string_view fabricSharingName(FabricSharing sharing);

/** Case-insensitive parse of "interp" / "threaded". */
bool parseExecMode(std::string_view name, ExecMode *mode);

/** Case-insensitive parse of "per_core" / "shared". */
bool parseFabricSharing(std::string_view name, FabricSharing *sharing);

/** Case-insensitive parse of "baseline"/"asic"/"flexcore"/"software". */
bool parseImplMode(std::string_view name, ImplMode *mode);

/**
 * Case-insensitive parse of a monitor name ("none", any canonical
 * extension name, or a registered alias such as "refcount"). Returns
 * false, leaving @p kind untouched, for unknown names.
 */
bool parseMonitorKind(std::string_view name, MonitorKind *kind);

/**
 * Construct a fresh monitor instance of the given kind (null = none).
 * @p dift_tag_bits selects the DIFT taint-tag width (1 or 4).
 */
std::unique_ptr<Monitor> makeMonitor(MonitorKind kind,
                                     unsigned dift_tag_bits = 1);

/**
 * Fabric clock divisor used in the paper's evaluation: UMC/DIFT/BC run
 * at half the core clock, SEC at one quarter (from the synthesis
 * frequency estimates, §V-C). Looked up from the extension registry.
 */
u32 defaultFlexPeriod(MonitorKind kind);

/**
 * Typed outcome of SystemConfig::finalize(). A falsy error means the
 * configuration is valid and fully resolved. Callers that accept user
 * input (tools, SimRequest) surface the message; System's constructor
 * treats any error as fatal.
 */
struct ConfigError
{
    enum class Code : u8 {
        kNone,
        kMissingMonitor,    //!< ASIC/fabric mode without a monitor
        kMonitorOnBaseline, //!< baseline mode cannot host a monitor
        kBadDiftTagBits,    //!< dift_tag_bits not in {1, 4}
        kStrayFlexPeriod,   //!< flex_period set outside fabric mode
        kBadCycleLimit,     //!< max_cycles is zero
        kBadWatchdog,       //!< watchdog_commits >= max_cycles
        kBadFaultPlan,      //!< a FaultSpec fails static validation
        kBadSampleWindow,   //!< sample_window/sample_period inconsistent
        kThreadedHistograms, //!< threaded dispatch + per-cycle histograms
        kSamplingHistograms, //!< sampled timing + per-cycle histograms
        kSamplingTrace,     //!< sampled timing + trace-event capture
        kSamplingExecMode,  //!< sampled timing + non-default exec_mode
        kSamplingSoftware,  //!< sampled timing + software instrumentation
        kBadCores,          //!< num_cores out of range or bad combo
        kBadFabricSharing,  //!< unknown fabric-sharing topology name

        // ---- Wire-schema (SimRequest JSON) request errors ----
        kBadRequest,        //!< malformed JSON or schema violation
        kBadVersion,        //!< missing/unsupported "v" field
        kBadMonitor,        //!< unknown monitor name
        kBadImplMode,       //!< unknown implementation-mode name
        kBadExecMode,       //!< unknown exec-mode name
        kBadWorkload,       //!< unknown workload name or scale
        kBadSource,         //!< request source fails to assemble

        // ---- Serving errors (flexcore-serve resilience layer) ----
        kDeadlineExceeded,  //!< request deadline/cycle clamp hit
        kOverloaded,        //!< admission control shed the request
        kShuttingDown,      //!< server draining; no new simulations
        kFrameTooLarge,     //!< frame length prefix above the serve cap
    };

    Code code = Code::kNone;
    std::string message;

    explicit operator bool() const { return code != Code::kNone; }
};

std::string_view configErrorName(ConfigError::Code code);

/**
 * Inverse of configErrorName (exact match; "none" maps to kNone).
 * Returns false for unknown names — used when decoding a SimResponse
 * received over the wire.
 */
bool parseConfigErrorName(std::string_view name,
                          ConfigError::Code *code);

/** Build a ConfigError in one expression (falsy iff code is kNone). */
ConfigError makeConfigError(ConfigError::Code code,
                            std::string message);

struct SystemConfig
{
    /** Most cores a System will instantiate (arbitrary sanity bound). */
    static constexpr u32 kMaxCores = 8;

    /**
     * Coherent shared-memory window for multi-core runs. Each core of
     * an N-core system owns a private functional memory (all cores
     * load the same program image, so identical addresses name
     * per-core copies); accesses inside this window hit one memory
     * shared by every core, and stores to it are the coherence point:
     * remote D-cache lines and µops covering the address are
     * invalidated. Single-core systems have one memory and never
     * consult the window. See docs/multicore.md.
     */
    static constexpr Addr kSharedWindowBase = 0x30000000;
    static constexpr u32 kSharedWindowBytes = 64 * 1024;
    /** Per-core stack offset: core i's initial %sp is stack_top minus
     * i times this, so the N private stacks stay disjoint even though
     * each core owns a private memory (uniform layout aids debugging). */
    static constexpr u32 kStackStridePerCore = 64 * 1024;

    MonitorKind monitor = MonitorKind::kNone;
    ImplMode mode = ImplMode::kBaseline;

    /**
     * Number of cores (1..kMaxCores). Multi-core runs are interpreter
     * only: finalize() rejects threaded dispatch, sampled timing,
     * software instrumentation, and buffering trace capture when
     * num_cores > 1 (kBadCores). num_cores == 1 is the pre-refactor
     * system, bit for bit.
     */
    u32 num_cores = 1;

    /** Fabric topology for num_cores > 1 (ignored with one core). */
    FabricSharing fabric_sharing = FabricSharing::kPerCore;

    CoreParams core;
    SdramTimings sdram;
    FlexInterface::Params iface;
    FabricParams fabric;

    /** 0 = pick defaultFlexPeriod(monitor) for kFlexFabric runs. */
    u32 flex_period = 0;

    /** DIFT taint-tag width: 1 (default) or 4 (multi-source labels). */
    u32 dift_tag_bits = 1;

    /**
     * Execution engine for the run loop. kThreaded is observably
     * identical to kInterp (same cycles, traces, stats, verdicts) but
     * dispatches committed instructions through function-pointer
     * superblocks instead of the per-cycle state machine. Incompatible
     * with per-cycle histogram sampling (finalize() rejects the
     * combination); attaching a trace sink is legal — the run then
     * falls back to the per-cycle loop, producing a byte-identical
     * trace at interpreter speed. See docs/performance.md.
     */
    ExecMode exec_mode = ExecMode::kInterp;

    /**
     * SMARTS-style sampled timing (0 = off, the default, meaning every
     * cycle is simulated in full detail). When sample_period is N > 0,
     * execution proceeds in sampling units of N committed instructions:
     * the first sample_window instructions of each unit run through the
     * exact cycle-accurate model (a "detailed window"); the rest are
     * functionally warmed — architectural and monitor shadow state stay
     * exact, but no cycles are modeled. RunResult then reports
     * estimated_cycles extrapolated from the detailed windows' CPI.
     * Monitor verdicts (traps) remain exact; cycle counts become
     * estimates with a measured error bound (tests/test_sampling.cc,
     * docs/performance.md).
     */
    u64 sample_window = 0;  //!< detailed instructions per unit
    u64 sample_period = 0;  //!< instructions per sampling unit (0 = off)

    /**
     * Set (by SimRequest) when a *buffering* trace sink (TraceBuffer)
     * is attached, so finalize() can reject buffer-everything capture
     * under sampled timing, whose warmed stretches skip the per-cycle
     * episode bookkeeping full traces depend on. The streaming binary
     * trace (TraceStreamWriter) does not set this: it is legal under
     * sampling, with kWindow records marking the boundaries.
     */
    bool trace_events = false;

    /**
     * Force precise monitor exceptions: every forwarded class uses the
     * CFGR wait-for-acknowledgement policy, so commit stalls until the
     * co-processor finishes each instruction (§III-C's discussion of
     * precise exceptions on in-order cores).
     */
    bool precise_exceptions = false;

    /**
     * Enable per-cycle histogram sampling (FFIFO occupancy, bus queue
     * depth, fabric freeze runs). Off by default so the hot loop pays
     * nothing; purely observational, never affects timing.
     */
    bool histograms = false;

    u64 max_cycles = 500'000'000;

    /**
     * No-commit watchdog (0 = off): if this many consecutive cycles
     * pass without the core committing an instruction or micro-op,
     * the run ends with RunResult::Exit::kHang. Progress-based and
     * orthogonal to max_cycles — a committing infinite loop still
     * runs to the cycle limit, but a wedged pipeline (e.g. a fault
     * corrupting a wait condition) terminates promptly. Exact under
     * fast-forwarding: bulk skips cap at the watchdog deadline.
     */
    u64 watchdog_commits = 0;

    /**
     * Quiescence fast-forward: when the whole system is provably idle
     * (core stalled on a known-latency refill or a fixed-latency unit,
     * store buffer empty, fabric drained), System::run() advances
     * multiple cycles at once while charging the exact same cycle
     * buckets. Purely a host-side optimization — stats, traces, and
     * RunResult are byte-identical either way (docs/performance.md).
     */
    bool fast_forward = true;

    /** ALU transient-fault injection (exercises SEC). */
    double fault_rate = 0.0;
    u64 fault_seed = 1;

    /**
     * Deterministic fault-injection schedule (empty = no injector is
     * constructed and the hot path pays nothing). Validated by
     * finalize(); applied by src/faults/injector at exact cycle or
     * commit-index points. See docs/fault_injection.md.
     */
    FaultPlan faults;

    /**
     * Validate and resolve mode-dependent parameters (fabric period,
     * synchronizer latency). Idempotent: System's constructor always
     * calls it, so callers only need to when they want the typed error
     * instead of the constructor's fatal. Returns a falsy ConfigError
     * on success; on error the config is unchanged and unusable.
     */
    [[nodiscard]] ConfigError finalize();

  private:
    bool finalized_ = false;
};

}  // namespace flexcore

#endif  // FLEXCORE_SIM_CONFIG_H_
