#include "flexcore/interface.h"

#include <algorithm>
#include <bit>

namespace flexcore {

FlexInterface::FlexInterface(StatGroup *parent, Params params)
    : params_(params),
      stats_("interface", parent),
      forwarded_(&stats_, "forwarded", "packets pushed to the FFIFO"),
      dropped_(&stats_, "dropped",
               "packets dropped under the if-not-full policy"),
      commit_stalls_(&stats_, "commit_stalls",
                     "cycles commit stalled on a full FFIFO"),
      traps_(&stats_, "traps", "TRAP assertions from the fabric"),
      occupancy_(&stats_, "ffifo_occupancy",
                 "FFIFO entries in use, sampled per core cycle",
                 Histogram::Params{0, params.fifo_depth + 1,
                                   static_cast<u32>(params.fifo_depth + 1),
                                   false}),
      fill_frac_(&stats_, "fill_frac",
                 "mean FFIFO occupancy / FIFO depth",
                 [this]() {
                     return occupancy_.mean() /
                            static_cast<double>(params_.fifo_depth);
                 })
{
    // Capacity 1 minimum keeps the ring arithmetic well-defined even
    // for a zero-depth FIFO (offer() rejects every push then anyway).
    // Round up to a power of two so the ring indices wrap with a mask
    // instead of a divide; occupancy stays bounded by fifo_depth.
    fifo_.resize(std::bit_ceil(std::max<u32>(params_.fifo_depth, 1)));
    fifo_mask_ = static_cast<u32>(fifo_.size()) - 1;
    bfifo_.resize(1);
}

void
FlexInterface::setNumCores(u32 cores)
{
    bfifo_.resize(std::max<u32>(cores, 1));
}

CommitAction
FlexInterface::offer(const CommitPacket &packet, Cycle now)
{
    const InstrType type = static_cast<InstrType>(packet.opcode);
    const ForwardPolicy policy = cfgr_.policy(type);
    switch (policy) {
      case ForwardPolicy::kIgnore:
        return CommitAction::kProceed;
      case ForwardPolicy::kIfNotFull:
        if (fifoFull()) {
            ++dropped_;
            return CommitAction::kProceed;
        }
        break;
      case ForwardPolicy::kAlways:
      case ForwardPolicy::kWaitAck:
        if (fifoFull()) {
            ++commit_stalls_;
            return CommitAction::kStall;
        }
        break;
    }

    const bool wait_ack = policy == ForwardPolicy::kWaitAck;
    // Write into the ring slot directly: the packet copy is the bulk
    // of the cost on the commit path, so make exactly one.
    Entry &entry = fifo_[(fifo_head_ + fifo_count_) & fifo_mask_];
    ++fifo_count_;
    entry.packet = packet;
    entry.packet.wants_ack = wait_ack;
    entry.ready_at = now + params_.sync_cycles;
    fabric_idle_ = false;
    ++forwarded_;
    ++forwarded_by_type_[type];
    return wait_ack ? CommitAction::kWaitAck : CommitAction::kProceed;
}

std::optional<CommitPacket>
FlexInterface::popReady(Cycle now)
{
    const CommitPacket *head = peekReady(now);
    if (!head)
        return std::nullopt;
    CommitPacket packet = *head;
    popFront();
    return packet;
}

std::optional<u32>
FlexInterface::popBfifo(u8 core)
{
    std::deque<u32> &lane = bfifo_[core];
    if (lane.empty())
        return std::nullopt;
    const u32 value = lane.front();
    lane.pop_front();
    return value;
}

void
FlexInterface::raiseTrap(Addr pc, u8 core)
{
    if (!trap_pending_) {
        trap_pending_ = true;
        trap_pc_ = pc;
        trap_core_ = core;
    }
    ++traps_;
}

}  // namespace flexcore
