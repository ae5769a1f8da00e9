#include "sim/system.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"
#include "core/profile.h"
#include "core/threaded.h"
#include "extensions/registry.h"
#include "faults/injector.h"

namespace flexcore {

std::string_view
exitName(RunResult::Exit exit)
{
    switch (exit) {
      case RunResult::Exit::kExited: return "exited";
      case RunResult::Exit::kMonitorTrap: return "monitor_trap";
      case RunResult::Exit::kCoreTrap: return "core_trap";
      case RunResult::Exit::kMaxCycles: return "max_cycles";
      case RunResult::Exit::kHang: return "hang";
      case RunResult::Exit::kDeadline: return "deadline";
    }
    return "?";
}

namespace {

/**
 * Simulated cycles between CancelToken polls. One steady_clock read
 * per 64Ki cycles is noise next to the work those cycles do, yet even
 * the slowest configurations clear that many cycles in well under a
 * millisecond — so a deadline is honored within milliseconds of
 * expiry no matter what the guest program does (commit loops defeat
 * the watchdog; never-idle loops defeat fast-forward; neither defeats
 * a cycle counter).
 */
constexpr Cycle kCancelCheckCycles = 65536;

}  // namespace

System::System(SystemConfig config)
    : config_(std::move(config)), stats_("system")
{
    if (ConfigError error = config_.finalize()) {
        FLEX_FATAL("invalid system configuration [",
                   configErrorName(error.code), "]: ", error.message);
    }
    config_.fabric.histograms = config_.histograms;
    memory_ = std::make_unique<Memory>();
    bus_ = std::make_unique<Bus>(&stats_, config_.sdram);
    bus_->setSampling(config_.histograms);
    core_ = std::make_unique<Core>(&stats_, memory_.get(), bus_.get(),
                                   config_.core);

    if (config_.mode == ImplMode::kAsic ||
        config_.mode == ImplMode::kFlexFabric) {
        monitor_ = makeMonitor(config_.monitor, config_.dift_tag_bits);
        iface_ = std::make_unique<FlexInterface>(&stats_, config_.iface);
        fabric_ = std::make_unique<Fabric>(&stats_, iface_.get(),
                                           bus_.get(), monitor_.get(),
                                           config_.fabric);
        core_->attachInterface(iface_.get());
    } else if (config_.mode == ImplMode::kSoftware) {
        core_->attachSoftwareMonitor(
            ExtensionRegistry::instance().softwareModel(config_.monitor));
    }

    if (config_.fault_rate > 0.0) {
        core_->alu().enableFaultInjection(config_.fault_rate,
                                          config_.fault_seed);
    }

    if (config_.num_cores > 1)
        buildExtraCores();

    if (!config_.faults.empty()) {
        injector_ = std::make_unique<FaultInjector>(this, config_.faults);
        core_->setFaultInjector(injector_.get());
    }

    if (config_.exec_mode == ExecMode::kThreaded ||
        config_.sample_period != 0) {
        engine_ = std::make_unique<ThreadedEngine>(
            core_.get(), bus_.get(), iface_.get(), fabric_.get(),
            monitor_.get(), injector_.get());
    }
}

void
System::buildExtraCores()
{
    const u32 ncores = config_.num_cores;
    const Addr wbase = SystemConfig::kSharedWindowBase;
    const u32 wbytes = SystemConfig::kSharedWindowBytes;
    const bool hardware = config_.mode == ImplMode::kAsic ||
                          config_.mode == ImplMode::kFlexFabric;

    bus_->setNumPorts(ncores);
    // Private memory per core, aliased onto one backing store over the
    // coherent window: each core runs its own copy of the image (the
    // contention workload), and only window accesses observe peers.
    shared_mem_ = std::make_unique<Memory>();
    memory_->setSharedWindow(shared_mem_.get(), wbase, wbytes);
    if (hardware) {
        shared_tags_ = std::make_unique<TagStore>();
        monitor_->memTags().setSharedWindow(shared_tags_.get(), wbase,
                                            wbytes);
        iface_->setNumCores(ncores);
    }

    for (u32 i = 1; i < ncores; ++i) {
        auto group = std::make_unique<StatGroup>("c" + std::to_string(i),
                                                 &stats_);
        auto mem = std::make_unique<Memory>();
        mem->setSharedWindow(shared_mem_.get(), wbase, wbytes);
        CoreParams core_params = config_.core;
        core_params.stack_top -= i * SystemConfig::kStackStridePerCore;
        auto core = std::make_unique<Core>(group.get(), mem.get(),
                                           bus_.get(), core_params);
        core->setCoreId(static_cast<u8>(i));
        if (config_.fault_rate > 0.0) {
            core->alu().enableFaultInjection(config_.fault_rate,
                                             config_.fault_seed + i);
        }
        if (hardware) {
            auto mon = makeMonitor(config_.monitor, config_.dift_tag_bits);
            mon->memTags().setSharedWindow(shared_tags_.get(), wbase,
                                           wbytes);
            if (config_.fabric_sharing == FabricSharing::kPerCore) {
                auto ifc = std::make_unique<FlexInterface>(group.get(),
                                                           config_.iface);
                ifc->setNumCores(ncores);
                auto fab = std::make_unique<Fabric>(group.get(), ifc.get(),
                                                    bus_.get(), mon.get(),
                                                    config_.fabric);
                fab->setBusPort(static_cast<u8>(i));
                core->attachInterface(ifc.get());
                extra_ifaces_.push_back(std::move(ifc));
                extra_fabrics_.push_back(std::move(fab));
            } else {
                core->attachInterface(iface_.get());
            }
            extra_monitors_.push_back(std::move(mon));
        }
        extra_memories_.push_back(std::move(mem));
        extra_cores_.push_back(std::move(core));
        core_groups_.push_back(std::move(group));
    }
    extra_profiles_.assign(ncores - 1, nullptr);

    if (hardware && config_.fabric_sharing == FabricSharing::kShared) {
        std::vector<Monitor *> bank;
        bank.push_back(monitor_.get());
        for (auto &mon : extra_monitors_)
            bank.push_back(mon.get());
        fabric_->setMonitorBank(std::move(bank));
    }

    // Write-through coherence: each core invalidates every peer's
    // cached window lines (and stale decoded µops) on a window store.
    for (u32 i = 0; i < ncores; ++i) {
        std::vector<Core *> peers;
        for (u32 j = 0; j < ncores; ++j) {
            if (j != i)
                peers.push_back(&core(j));
        }
        core(i).setCoherence(wbase, wbytes, std::move(peers));
    }
}

System::~System() = default;

void
System::load(const Program &program)
{
    core_->loadProgram(program);
    if (profile_)
        profile_->onProgramLoad(program.base(), program.size());
    // Every extra core runs its own copy of the image out of its
    // private memory; the coherent-window backing starts zeroed.
    for (u32 i = 1; i < config_.num_cores; ++i) {
        core(i).loadProgram(program);
        if (extra_profiles_[i - 1]) {
            extra_profiles_[i - 1]->onProgramLoad(program.base(),
                                                  program.size());
        }
    }
    if (monitor_) {
        if (shared_tags_)
            shared_tags_->clear();
        for (u32 i = 0; i < config_.num_cores; ++i) {
            Monitor *mon = monitorForCore(i);
            mon->reset();
            mon->onProgramLoad(program.base(), program.size());
        }
        const auto configure = [this](FlexInterface *ifc) {
            programCfgr(config_.monitor, &ifc->cfgr());
            if (config_.precise_exceptions) {
                // Precise monitoring (§III-C): commit waits for the
                // co-processor's acknowledgement on every forwarded
                // class.
                Cfgr &cfgr = ifc->cfgr();
                for (unsigned t = 0; t < kNumInstrTypes; ++t) {
                    const auto type = static_cast<InstrType>(t);
                    if (cfgr.policy(type) != ForwardPolicy::kIgnore)
                        cfgr.setPolicy(type, ForwardPolicy::kWaitAck);
                }
            }
        };
        configure(iface_.get());
        for (auto &ifc : extra_ifaces_)
            configure(ifc.get());
    }
}

void
System::attachTrace(TraceSink *sink)
{
    trace_ = sink;
    core_->setTraceSink(sink);
    bus_->setTraceSink(sink);
    if (fabric_)
        fabric_->setTraceSink(sink);
    if (injector_)
        injector_->setTraceSink(sink);
    traced_ffifo_depth_ = 0;
}

void
System::attachProfile(PcProfile *profile)
{
    profile_ = profile;
    core_->setProfile(profile);
}

void
System::attachProfileAt(u32 i, PcProfile *profile)
{
    if (i == 0) {
        attachProfile(profile);
        return;
    }
    extra_profiles_[i - 1] = profile;
    core(i).setProfile(profile);
}

void
System::tick()
{
    if (!extra_cores_.empty()) {
        tickMulti();
        return;
    }
    if (injector_)
        injector_->onCycle(now_);
    bus_->tick();
    if (fabric_)
        fabric_->tick(now_);
    core_->tick(now_);
    core_->storeBuffer().tick();
    if (iface_) {
        if (config_.histograms)
            iface_->sampleOccupancy();
        if (trace_ && iface_->fifoSize() != traced_ffifo_depth_) {
            traced_ffifo_depth_ = iface_->fifoSize();
            trace_->counter("ffifo_occupancy", now_,
                            traced_ffifo_depth_);
        }
    }
    ++now_;
}

void
System::tickMulti()
{
    // Deterministic total order every cycle: injector, bus, fabrics
    // (core-index order), then each core and its store buffer in core-
    // index order. Cores offering to a shared interface therefore push
    // in index order within the cycle — that tick order *is* the FFIFO
    // arbitration, with no randomness to seed (docs/multicore.md).
    if (injector_)
        injector_->onCycle(now_);
    bus_->tick();
    if (fabric_)
        fabric_->tick(now_);
    for (auto &fab : extra_fabrics_)
        fab->tick(now_);
    core_->tick(now_);
    core_->storeBuffer().tick();
    for (auto &c : extra_cores_) {
        c->tick(now_);
        c->storeBuffer().tick();
    }
    if (config_.histograms && iface_) {
        iface_->sampleOccupancy();
        for (auto &ifc : extra_ifaces_)
            ifc->sampleOccupancy();
    }
    ++now_;
}

void
System::fastForward()
{
    // Whole-system quiescence: nothing in flight anywhere except the
    // single condition the core is waiting out.
    if (core_->halted() || now_ >= config_.max_cycles)
        return;
    if (!core_->storeBuffer().empty())
        return;
    if (fabric_ && !fabric_->idle())
        return;
    if (iface_ && iface_->fifoSize() != 0)
        return;
    const Core::IdleStretch stretch = core_->idleStretch();
    if (stretch.cycles == 0)
        return;
    u64 k = std::min<u64>(stretch.cycles, config_.max_cycles - now_);
    if (injector_) {
        // Never skip over a cycle-triggered fault: cap the stretch so
        // a real tick() executes at the trigger cycle (where onCycle
        // drains it) in both the bulk and the debug-lockstep path.
        const Cycle next = injector_->nextCycleTrigger();
        if (next != kCycleNever)
            k = std::min<u64>(k, next > now_ ? next - now_ : 0);
    }
    if (watchdog_deadline_ != kCycleNever) {
        // A quiescent stretch commits nothing, so it may expire the
        // watchdog: stop exactly at the deadline and let run()'s
        // post-fast-forward check fire, byte-identical to serial.
        k = std::min<u64>(k, watchdog_deadline_ - now_);
    }
    if (k == 0)
        return;
#ifndef NDEBUG
    // Lockstep verification: single-step the predicted stretch and
    // assert every cycle charged the predicted bucket. Debug builds
    // thus prove the bulk path's claim while producing the exact
    // single-step behavior.
    const u64 cycles_before = core_->cycles();
    const u64 bucket_before = core_->cyclesIn(stretch.bucket);
    for (u64 i = 0; i < k; ++i)
        tick();
    assert(core_->cycles() == cycles_before + k &&
           "fast-forward stretch must advance the core every cycle");
    assert(core_->cyclesIn(stretch.bucket) == bucket_before + k &&
           "fast-forward stretch must charge the predicted bucket");
#else
    core_->advanceIdle(k, stretch.bucket);
    bus_->advanceIdle(k);
    if (fabric_)
        fabric_->advanceIdle(k);
    if (iface_ && config_.histograms)
        iface_->sampleOccupancy(k);
    now_ += k;
#endif
}

RunResult
System::run()
{
    if (!extra_cores_.empty())
        return runMulti();
    if (config_.sample_period != 0)
        return runSampled();

    const u64 wd = config_.watchdog_commits;
    bool hung = false;
    bool cancelled = false;
    next_cancel_check_ = cancel_ ? now_ + kCancelCheckCycles
                                 : kCycleNever;
    // Burst dispatch requires the commit fast path to be exactly the
    // inline one: no per-commit fault hooks, no watchdog bookkeeping,
    // no ALU fault injection, no software-instrumentation expansion,
    // and no per-cycle observers (a trace sink or a profiler needs
    // every cycle to pass through Core::tick()). Any of those falls
    // back to the interpreter loops below, which produce identical
    // results by definition (kThreaded only changes how eligible
    // cycles are dispatched, never what they do) — so a streaming
    // trace of a threaded run is byte-identical to the interp trace,
    // and a threaded run without observers keeps its full burst speed.
    const bool burstable = config_.exec_mode == ExecMode::kThreaded &&
                           !injector_ && wd == 0 &&
                           config_.fault_rate == 0.0 &&
                           config_.mode != ImplMode::kSoftware &&
                           !trace_ && !profile_;
    if (burstable) {
        while (!core_->halted() && now_ < config_.max_cycles) {
            // The engine consumes every provably plain fetch/latency
            // cycle; anything else (misses, FIFO waits, micro-ops,
            // traps, drains) is handed back to the interpreter tick.
            // A cancel token clamps the burst at its next poll cycle;
            // burst boundaries are not observable, so results stay
            // byte-identical to the unclamped run.
            now_ = engine_->burst(
                now_, std::min(config_.max_cycles,
                               next_cancel_check_));
            if (cancel_ && now_ >= next_cancel_check_) {
                next_cancel_check_ = now_ + kCancelCheckCycles;
                if (cancel_->expired()) {
                    cancelled = true;
                    break;
                }
            }
            if (core_->halted() || now_ >= config_.max_cycles)
                break;
            tick();
            if (config_.fast_forward && core_->idleCandidate())
                fastForward();
        }
    } else if (!injector_ && wd == 0) {
        // Hot path: identical per-cycle work to the pre-watchdog
        // loops. A cancel token only chunks the loop — the inner
        // bound is a constant between polls, so the tick sequence
        // (and therefore every result) is unchanged, and a run
        // without a token collapses to a single chunk.
        while (!core_->halted() && now_ < config_.max_cycles) {
            const Cycle bound =
                std::min(config_.max_cycles, next_cancel_check_);
            if (config_.fast_forward) {
                while (!core_->halted() && now_ < bound) {
                    tick();
                    // idleCandidate() is a two-branch filter for the
                    // same states idleStretch() can accept, so
                    // skipping fastForward() elsewhere changes
                    // nothing. A stretch may overshoot the poll
                    // bound; the poll below catches up.
                    if (core_->idleCandidate())
                        fastForward();
                }
            } else {
                while (!core_->halted() && now_ < bound)
                    tick();
            }
            if (cancel_ && now_ >= next_cancel_check_) {
                next_cancel_check_ = now_ + kCancelCheckCycles;
                if (cancel_->expired()) {
                    cancelled = true;
                    break;
                }
            }
        }
    } else {
        // Monitored loop: tracks commit progress (instructions plus
        // micro-ops, so long window spill/fill sequences count) for
        // the no-commit watchdog, lets fastForward() cap stretches
        // at fault triggers and the watchdog deadline, and polls the
        // cancel token every kCancelCheckCycles.
        u64 last_progress = core_->instructions() + core_->microOps();
        watchdog_deadline_ = wd ? now_ + wd : kCycleNever;
        while (!core_->halted() && now_ < config_.max_cycles) {
            tick();
            const u64 progress =
                core_->instructions() + core_->microOps();
            if (progress != last_progress) {
                last_progress = progress;
                if (wd)
                    watchdog_deadline_ = now_ + wd;
            } else if (now_ >= watchdog_deadline_) {
                hung = true;
                break;
            }
            if (config_.fast_forward && core_->idleCandidate()) {
                fastForward();
                // The skipped stretch commits nothing, so only the
                // deadline (at which fastForward stops) can expire.
                if (now_ >= watchdog_deadline_) {
                    hung = true;
                    break;
                }
            }
            if (now_ >= next_cancel_check_) {
                next_cancel_check_ = now_ + kCancelCheckCycles;
                if (cancel_->expired()) {
                    cancelled = true;
                    break;
                }
            }
        }
        watchdog_deadline_ = kCycleNever;
    }
    return finishRun(hung, cancelled, wd);
}

bool
System::multiRunDone()
{
    // The run ends when every core has halted (each exits via its own
    // `ta 0`), or as soon as any core halts on a trap: the trap is the
    // run's result (a monitor detection, or a core-detected error),
    // and letting the other cores run on would only blur its cycle
    // attribution.
    bool all_halted = true;
    for (u32 i = 0; i < config_.num_cores; ++i) {
        const Core &c = core(i);
        if (!c.halted())
            all_halted = false;
        else if (c.trap().pending())
            return true;
    }
    return all_halted;
}

u64
System::totalProgress()
{
    u64 progress = 0;
    for (u32 i = 0; i < config_.num_cores; ++i)
        progress += core(i).instructions() + core(i).microOps();
    return progress;
}

void
System::fastForwardMulti()
{
    // All-cores quiescence: every fabric idle, every FFIFO and store
    // buffer empty, and every still-running core in a provable idle
    // stretch. Core::idleStretch() already demands an idle (or
    // exclusively-ours) bus, so with several active cores this only
    // fires when all of them sit in fixed-latency stalls — but those
    // lockstep stretches are exactly where a naive multi-core loop
    // burns its cycles.
    if (now_ >= config_.max_cycles)
        return;
    if (fabric_ && !fabric_->idle())
        return;
    for (auto &fab : extra_fabrics_) {
        if (!fab->idle())
            return;
    }
    if (iface_ && iface_->fifoSize() != 0)
        return;
    for (auto &ifc : extra_ifaces_) {
        if (ifc->fifoSize() != 0)
            return;
    }
    struct Pending
    {
        Core *core;
        Core::CycleBucket bucket;
    };
    Pending pending[SystemConfig::kMaxCores];
    u32 npending = 0;
    u64 k = config_.max_cycles - now_;
    for (u32 i = 0; i < config_.num_cores; ++i) {
        Core &c = core(i);
        if (c.halted())
            continue;
        if (!c.storeBuffer().empty())
            return;
        const Core::IdleStretch stretch = c.idleStretch();
        if (stretch.cycles == 0)
            return;
        k = std::min<u64>(k, stretch.cycles);
        pending[npending++] = {&c, stretch.bucket};
    }
    if (npending == 0)
        return;
    if (injector_) {
        const Cycle next = injector_->nextCycleTrigger();
        if (next != kCycleNever)
            k = std::min<u64>(k, next > now_ ? next - now_ : 0);
    }
    if (watchdog_deadline_ != kCycleNever)
        k = std::min<u64>(k, watchdog_deadline_ - now_);
    if (k == 0)
        return;
#ifndef NDEBUG
    // Lockstep verification, as in the single-core path: single-step
    // the stretch and assert every active core charged its predicted
    // bucket on every one of the k cycles.
    u64 cycles_before[SystemConfig::kMaxCores];
    u64 bucket_before[SystemConfig::kMaxCores];
    for (u32 p = 0; p < npending; ++p) {
        cycles_before[p] = pending[p].core->cycles();
        bucket_before[p] = pending[p].core->cyclesIn(pending[p].bucket);
    }
    for (u64 i = 0; i < k; ++i)
        tickMulti();
    for (u32 p = 0; p < npending; ++p) {
        assert(pending[p].core->cycles() == cycles_before[p] + k &&
               "multi-core fast-forward must advance every active core");
        assert(pending[p].core->cyclesIn(pending[p].bucket) ==
                   bucket_before[p] + k &&
               "multi-core fast-forward must charge predicted buckets");
    }
#else
    for (u32 p = 0; p < npending; ++p)
        pending[p].core->advanceIdle(k, pending[p].bucket);
    bus_->advanceIdle(k);
    if (fabric_)
        fabric_->advanceIdle(k);
    for (auto &fab : extra_fabrics_)
        fab->advanceIdle(k);
    if (config_.histograms && iface_) {
        iface_->sampleOccupancy(k);
        for (auto &ifc : extra_ifaces_)
            ifc->sampleOccupancy(k);
    }
    now_ += k;
#endif
}

RunResult
System::runMulti()
{
    // Multi-core runs always use the monitored-loop shape: totalled
    // commit progress feeds the watchdog, fast-forward demands
    // all-cores quiescence, and the cancel token is polled on the
    // same cycle grid as the single-core loops.
    const u64 wd = config_.watchdog_commits;
    bool hung = false;
    bool cancelled = false;
    u64 last_progress = totalProgress();
    watchdog_deadline_ = wd ? now_ + wd : kCycleNever;
    next_cancel_check_ = cancel_ ? now_ + kCancelCheckCycles
                                 : kCycleNever;
    while (!multiRunDone() && now_ < config_.max_cycles) {
        tickMulti();
        const u64 progress = totalProgress();
        if (progress != last_progress) {
            last_progress = progress;
            if (wd)
                watchdog_deadline_ = now_ + wd;
        } else if (now_ >= watchdog_deadline_) {
            hung = true;
            break;
        }
        if (config_.fast_forward) {
            fastForwardMulti();
            if (now_ >= watchdog_deadline_) {
                hung = true;
                break;
            }
        }
        if (now_ >= next_cancel_check_) {
            next_cancel_check_ = now_ + kCancelCheckCycles;
            if (cancel_->expired()) {
                cancelled = true;
                break;
            }
        }
    }
    watchdog_deadline_ = kCycleNever;
    return finishRun(hung, cancelled, wd);
}

bool
System::sampleBoundaryReady() const
{
    // Deliberately weaker than full quiescence: queued FFIFO packets
    // and occupied monitor-pipe stages are allowed, because the
    // warming engine drains them functionally at the window boundary
    // (ThreadedEngine::drainFunctional). Under a saturating monitor
    // the FFIFO never empties while the core keeps committing, so
    // requiring it empty would pin the run inside one endless
    // detailed window. What must be clean is the core itself (no
    // partial instruction, micro-op, or ack wait), the store buffer,
    // the bus (no refill in flight anywhere, which also means the
    // fabric cannot be frozen mid-miss), and any undelivered trap.
    return core_->quiescent() && core_->storeBuffer().empty() &&
           bus_->idle() && (!fabric_ || !fabric_->frozen()) &&
           (!iface_ || !iface_->trapPending());
}

RunResult
System::runSampled()
{
    const u64 window = config_.sample_window;
    const u64 period = config_.sample_period;
    const u64 wd = config_.watchdog_commits;
    bool hung = false;
    bool cancelled = false;
    u64 detailed_insts = 0;
    u64 last_progress = core_->instructions() + core_->microOps();
    watchdog_deadline_ = wd ? now_ + wd : kCycleNever;
    next_cancel_check_ = cancel_ ? now_ + kCancelCheckCycles
                                 : kCycleNever;

    while (!core_->halted() && now_ < config_.max_cycles) {
        // Detailed window: exact cycle-accurate simulation until
        // sample_window instructions committed, then keep going until
        // the system reaches a sampling boundary (core drained,
        // refills and store-buffer writes finished; any still-queued
        // forward packets are drained functionally by warm()).
        if (trace_)
            trace_->window(now_, core_->instructions(), true);
        const u64 start_insts = core_->instructions();
        const u64 detail_target = start_insts + window;
        while (!core_->halted() && now_ < config_.max_cycles &&
               (core_->instructions() < detail_target ||
                !sampleBoundaryReady())) {
            tick();
            const u64 progress =
                core_->instructions() + core_->microOps();
            if (progress != last_progress) {
                last_progress = progress;
                if (wd)
                    watchdog_deadline_ = now_ + wd;
            } else if (wd && now_ >= watchdog_deadline_) {
                hung = true;
                break;
            }
            if (config_.fast_forward && core_->idleCandidate()) {
                fastForward();
                if (wd && now_ >= watchdog_deadline_) {
                    hung = true;
                    break;
                }
            }
            if (now_ >= next_cancel_check_) {
                next_cancel_check_ = now_ + kCancelCheckCycles;
                if (cancel_->expired()) {
                    cancelled = true;
                    break;
                }
            }
        }
        detailed_insts += core_->instructions() - start_insts;
        if (hung || cancelled || core_->halted() ||
            now_ >= config_.max_cycles)
            break;

        // Functional warming for the remainder of the sampling unit.
        const u64 executed = core_->instructions() - start_insts;
        if (executed < period) {
            if (trace_)
                trace_->window(now_, core_->instructions(), false);
            engine_->warm(period - executed);
            last_progress = core_->instructions() + core_->microOps();
            if (wd)
                watchdog_deadline_ = now_ + wd;
            // Warming advances instructions but not now_, so the
            // cycle-gated poll above cannot fire during it; one
            // explicit poll per warmed stretch bounds its latency.
            if (cancel_ && cancel_->expired()) {
                cancelled = true;
                break;
            }
        }
    }
    watchdog_deadline_ = kCycleNever;

    RunResult result = finishRun(hung, cancelled, wd);
    result.sampled = true;
    result.detailed_cycles = now_;
    result.detailed_instructions = detailed_insts;
    // CPI extrapolation: every simulated cycle belongs to a detailed
    // window, so total cycles ~= detailed CPI x total instructions.
    // A run that never left the detailed windows is exact by
    // construction (estimated == detailed when nothing was warmed).
    const u64 total_insts = result.instructions;
    if (detailed_insts > 0 && total_insts > detailed_insts) {
        result.estimated_cycles = static_cast<Cycle>(
            (static_cast<double>(now_) /
             static_cast<double>(detailed_insts)) *
            static_cast<double>(total_insts));
    } else {
        result.estimated_cycles = now_;
    }
    result.cycles = result.estimated_cycles;
    return result;
}

RunResult
System::finishRun(bool hung, bool cancelled, u64 wd)
{
    core_->flushTrace();
    if (fabric_)
        fabric_->flushTrace(now_);
    bus_->flushObservers();

    // The report core: the first (lowest-index) core that trapped —
    // the event that ended a multi-core run — or core 0 otherwise.
    // Single-core, this is always core 0 and the classification below
    // reduces exactly to the classic one (a trap implies halted, and
    // an unhalted core implies no trap).
    u32 report_core = 0;
    for (u32 i = 0; i < config_.num_cores; ++i) {
        if (core(i).trap().pending()) {
            report_core = i;
            break;
        }
    }
    Core &reporter = core(report_core);
    bool all_halted = true;
    u64 instructions = 0;
    std::string console;
    for (u32 i = 0; i < config_.num_cores; ++i) {
        all_halted = all_halted && core(i).halted();
        instructions += core(i).instructions();
        console += core(i).consoleOutput();
    }

    RunResult result;
    result.cycles = now_;
    result.instructions = instructions;
    result.console = std::move(console);
    result.exit_code = core_->exitCode();
    result.trap = reporter.trap();
    if (cancelled) {
        result.exit = RunResult::Exit::kDeadline;
        result.trap_reason = "cancelled after " +
                             std::to_string(now_) + " cycles";
    } else if (hung) {
        result.exit = RunResult::Exit::kHang;
        result.trap_reason = "no commit in " + std::to_string(wd) +
                             " cycles (watchdog)";
    } else if (reporter.trap().kind == TrapKind::kMonitor) {
        result.exit = RunResult::Exit::kMonitorTrap;
        if (monitor_)
            result.trap_reason =
                monitorForCore(report_core)->lastTrapReason();
    } else if (reporter.trap().pending()) {
        result.exit = RunResult::Exit::kCoreTrap;
        result.trap_reason = reporter.trap().detail;
    } else if (!all_halted) {
        result.exit = RunResult::Exit::kMaxCycles;
    } else {
        result.exit = RunResult::Exit::kExited;
    }
    if ((result.exit == RunResult::Exit::kMonitorTrap ||
         result.exit == RunResult::Exit::kCoreTrap) &&
        (result.trap.pc & 3u) == 0) {
        result.trap_inst = memoryAt(report_core).read32(result.trap.pc);
    }
    return result;
}

}  // namespace flexcore
