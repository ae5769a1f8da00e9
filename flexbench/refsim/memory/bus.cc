#include "memory/bus.h"

#include <cassert>

namespace flexcore {

namespace {

const char *
busOpName(BusOp op)
{
    switch (op) {
      case BusOp::kReadLine: return "line_read";
      case BusOp::kWriteLine: return "line_write";
      case BusOp::kWriteWord: return "word_write";
    }
    return "?";
}

}  // namespace

Bus::Bus(StatGroup *parent, const SdramTimings &timings)
    : timings_(timings),
      ports_(1),
      stats_("bus", parent),
      line_reads_(&stats_, "line_reads", "cache line refills"),
      line_writes_(&stats_, "line_writes", "dirty line writebacks"),
      word_writes_(&stats_, "word_writes", "write-through stores"),
      busy_cycles_(&stats_, "busy_cycles", "cycles the bus was occupied"),
      queue_cycles_(&stats_, "queue_cycles",
                    "aggregate cycles requests spent queued"),
      queue_depth_(&stats_, "queue_depth",
                   "requests queued behind the active transaction, "
                   "sampled per cycle",
                   Histogram::Params{0, 16, 16, false}),
      row_model_(&stats_)
{
}

void
Bus::setNumPorts(u32 ports)
{
    assert(ports >= 1);
    assert(queued_ == 0 && !active_);
    ports_.resize(ports);
    rr_next_ = 0;
}

void
Bus::request(BusRequest req)
{
    switch (req.op) {
      case BusOp::kReadLine: ++line_reads_; break;
      case BusOp::kWriteLine: ++line_writes_; break;
      case BusOp::kWriteWord: ++word_writes_; break;
    }
    assert(req.port < ports_.size());
    ports_[req.port].push_back(std::move(req));
    ++queued_;
    if (!active_)
        startNext();
    if (trace_ && queued_ != traced_depth_) {
        traced_depth_ = queued_;
        trace_->counter("bus_queue_depth", now_, traced_depth_);
    }
}

void
Bus::startNext()
{
    // Round-robin grant: scan from the port after the last winner.
    // With one port this always picks port 0 — exact FCFS.
    const u32 nports = static_cast<u32>(ports_.size());
    u32 port = rr_next_;
    while (ports_[port].empty())
        port = port + 1 < nports ? port + 1 : 0;
    current_ = std::move(ports_[port].front());
    ports_[port].pop_front();
    --queued_;
    rr_next_ = port + 1 < nports ? port + 1 : 0;
    remaining_ = timings_.cost(current_.op);
    active_ = true;
    current_start_ = now_;
    row_model_.observe(current_.addr);
    if (current_.on_start)
        current_.on_start();
}

void
Bus::tickBusy()
{
    if (active_) {
        ++busy_cycles_;
        if (--remaining_ == 0) {
            active_ = false;
            if (trace_) {
                trace_->complete(busOpName(current_.op), "bus", 2,
                                 current_start_, now_ + 1);
            }
            // Move the callback out first: it may enqueue new requests.
            auto done = std::move(current_.on_complete);
            if (queued_ != 0)
                startNext();
            if (done)
                done();
        }
    }
    queue_cycles_ += queued_;
    if (sampling_)
        queue_depth_.add(queued_);
    if (trace_ && queued_ != traced_depth_) {
        traced_depth_ = queued_;
        trace_->counter("bus_queue_depth", now_, traced_depth_);
    }
    ++now_;
}

void
Bus::advanceIdle(u64 cycles)
{
    // Preconditions guarantee no completion (and hence no callback, no
    // dequeue, no trace event) can occur inside the stretch, so the
    // per-cycle effects reduce to counter accrual.
    assert(queued_ == 0);
    assert(!active_ || remaining_ > cycles);
    if (active_) {
        busy_cycles_ += cycles;
        remaining_ -= static_cast<u32>(cycles);
    }
    if (sampling_)
        queue_depth_.add(0, cycles);
    now_ += cycles;
}

}  // namespace flexcore
