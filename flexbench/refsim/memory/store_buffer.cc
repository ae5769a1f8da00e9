#include "memory/store_buffer.h"

namespace flexcore {

StoreBuffer::StoreBuffer(StatGroup *parent, Bus *bus, u32 depth)
    : bus_(bus),
      depth_(depth),
      stats_("store_buffer", parent),
      stores_(&stats_, "stores", "stores accepted"),
      full_stalls_(&stats_, "full_stalls", "cycles rejected because full")
{
}

bool
StoreBuffer::push(Addr addr)
{
    if (full()) {
        ++full_stalls_;
        return false;
    }
    entries_.push_back(addr);
    ++stores_;
    return true;
}

void
StoreBuffer::issueHead()
{
    draining_ = true;
    BusRequest req;
    req.op = BusOp::kWriteWord;
    req.addr = entries_.front();
    req.port = bus_port_;
    req.on_complete = [this]() {
        entries_.pop_front();
        draining_ = false;
    };
    bus_->request(std::move(req));
}

}  // namespace flexcore
