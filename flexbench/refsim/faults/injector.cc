#include "faults/injector.h"

#include <algorithm>

#include "common/trace_event.h"
#include "sim/system.h"

namespace flexcore {

FaultInjector::FaultInjector(System *system, const FaultPlan &plan)
    : sys_(system)
{
    for (const FaultSpec &spec : plan.specs) {
        if (spec.trigger == FaultTrigger::kCycle)
            by_cycle_.push_back(spec);
        else
            by_commit_.push_back(spec);
    }
    const auto by_when = [](const FaultSpec &a, const FaultSpec &b) {
        return a.when < b.when;
    };
    std::stable_sort(by_cycle_.begin(), by_cycle_.end(), by_when);
    std::stable_sort(by_commit_.begin(), by_commit_.end(), by_when);
}

void
FaultInjector::applyDueCycleFaults(Cycle now)
{
    while (cycle_idx_ < by_cycle_.size() &&
           by_cycle_[cycle_idx_].when <= now)
        apply(by_cycle_[cycle_idx_++], now);
}

void
FaultInjector::apply(const FaultSpec &spec, Cycle now)
{
    // spec.core names the target core's state element; finalize()
    // guarantees it is in range, and on single-core systems it is
    // always 0 so every lookup below resolves to the classic target.
    bool applied = true;
    switch (spec.kind) {
      case FaultKind::kRegFlip:
        sys_->core(spec.core).regs().flipBitPhys(spec.target, spec.bit);
        break;

      case FaultKind::kShadowRegFlip:
        if (Monitor *monitor = sys_->monitorForCore(spec.core))
            monitor->regTags().flipBit(static_cast<u16>(spec.target),
                                       spec.bit);
        else
            applied = false;
        break;

      case FaultKind::kMemFlip:
        sys_->memoryAt(spec.core).flipBit(spec.target, spec.bit);
        // The flipped byte may sit in decoded text; force a re-decode
        // so the corrupted word is what actually executes.
        sys_->core(spec.core).invalidateUopsAt(spec.target);
        break;

      case FaultKind::kMetaFlip:
        if (Monitor *monitor = sys_->monitorForCore(spec.core)) {
            TagStore &tags = monitor->memTags();
            tags.write(spec.target,
                       tags.read(spec.target) ^
                           static_cast<u8>(1u << (spec.bit & 7)));
        } else {
            applied = false;
        }
        break;

      case FaultKind::kFfifoFlip: {
        FlexInterface *iface = sys_->ifaceForCore(spec.core);
        CommitPacket *pkt =
            iface ? iface->queuedPacket(spec.target) : nullptr;
        if (!pkt) {
            applied = false;   // empty FIFO (or no interface at all)
            break;
        }
        const u32 mask = 1u << (spec.bit & 31);
        switch (spec.field) {
          case PacketField::kRes: pkt->res ^= mask; break;
          case PacketField::kSrcv1: pkt->srcv1 ^= mask; break;
          case PacketField::kSrcv2: pkt->srcv2 ^= mask; break;
          case PacketField::kAddr: pkt->addr ^= mask; break;
          case PacketField::kDest:
            // DEST is the 9-bit physical register number (Table II).
            pkt->dest ^= static_cast<u16>(1u << (spec.bit % 9));
            break;
        }
        break;
      }

      case FaultKind::kSbFlip:
        applied = sys_->core(spec.core).storeBuffer().corruptEntry(
            spec.target, spec.bit);
        break;
    }

    if (applied) {
        ++log_.applied;
        if (log_.first_cycle == kCycleNever)
            log_.first_cycle = now;
        if (trace_) {
            trace_->faultMark(now, static_cast<u8>(spec.kind),
                              spec.target, static_cast<u8>(spec.bit));
        }
    } else {
        ++log_.skipped;
    }
}

}  // namespace flexcore
