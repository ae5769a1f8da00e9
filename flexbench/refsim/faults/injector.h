/**
 * @file
 * The run-time fault injector: owns a FaultPlan during one System run
 * and applies each FaultSpec at its exact trigger point through small
 * mutation hooks on the owning components (register file, memory,
 * store buffer, forward FIFO, monitor shadow/tag state).
 *
 * Hot-path contract: a System without a plan constructs no injector at
 * all, so the only per-cycle cost of the feature is one null-pointer
 * check in System::tick() and Core::finishInstruction(). With a plan
 * loaded, onCycle()/onCommit() are O(1) comparisons until a trigger is
 * due. nextCycleTrigger() lets System::fastForward() cap quiescent
 * stretches so a bulk skip can never jump over a scheduled injection —
 * injections land on the same cycle with fast-forward on or off.
 */

#ifndef FLEXCORE_FAULTS_INJECTOR_H_
#define FLEXCORE_FAULTS_INJECTOR_H_

#include <vector>

#include "faults/fault_plan.h"

namespace flexcore {

class System;
class TraceSink;

/** What the injector actually did during the run. */
struct InjectionLog
{
    u64 applied = 0;   //!< faults that mutated state
    u64 skipped = 0;   //!< triggers that found no target (empty queue)
    Cycle first_cycle = kCycleNever;   //!< cycle of the first mutation
};

class FaultInjector
{
  public:
    /** @p system must outlive the injector. The plan is copied. */
    FaultInjector(System *system, const FaultPlan &plan);

    /** Apply all cycle-triggered faults due at @p now (tick start). */
    void
    onCycle(Cycle now)
    {
        if (cycle_idx_ < by_cycle_.size() &&
            by_cycle_[cycle_idx_].when <= now)
            applyDueCycleFaults(now);
    }

    /** Apply commit-triggered faults due after commit @p commit_index. */
    void
    onCommit(u64 commit_index, Cycle now)
    {
        while (commit_idx_ < by_commit_.size() &&
               by_commit_[commit_idx_].when <= commit_index)
            apply(by_commit_[commit_idx_++], now);
    }

    /** Next pending cycle trigger (kCycleNever when none remain). */
    Cycle
    nextCycleTrigger() const
    {
        return cycle_idx_ < by_cycle_.size() ? by_cycle_[cycle_idx_].when
                                             : kCycleNever;
    }

    const InjectionLog &log() const { return log_; }

    /** Attach a trace sink (System::attachTrace forwards it): every
     * *applied* fault then emits a kFaultMark stream record. */
    void setTraceSink(TraceSink *sink) { trace_ = sink; }

  private:
    void applyDueCycleFaults(Cycle now);
    void apply(const FaultSpec &spec, Cycle now);

    System *sys_;
    std::vector<FaultSpec> by_cycle_;    //!< sorted by when
    std::vector<FaultSpec> by_commit_;   //!< sorted by when
    size_t cycle_idx_ = 0;
    size_t commit_idx_ = 0;
    InjectionLog log_;
    TraceSink *trace_ = nullptr;
};

}  // namespace flexcore

#endif  // FLEXCORE_FAULTS_INJECTOR_H_
