#include "monitors/watch.h"

#include "extensions/builtin.h"
#include "extensions/registry.h"
#include "synth/extension_synth.h"

namespace flexcore {

void
registerWatchExtension(ExtensionRegistry &registry)
{
    using K = Primitive::Kind;
    ExtensionDescriptor desc;
    desc.kind = MonitorKind::kWatch;
    desc.name = "watch";
    desc.doc = "iWatcher-style hardware watchpoints over tagged "
               "address ranges";
    desc.make = [](const MonitorOptions &) -> std::unique_ptr<Monitor> {
        return std::make_unique<WatchMonitor>();
    };
    desc.pipeline_depth = 3;
    desc.tag_bits_per_word = 4;
    desc.default_flex_period = 2;
    desc.forwardClasses({kTypeLoadWord, kTypeLoadByte, kTypeLoadHalf,
                         kTypeStoreWord, kTypeStoreByte, kTypeStoreHalf,
                         kTypeCpop1, kTypeCpop2});
    desc.tapped_groups = 2;
    desc.build_fabric = [](const ExtensionDescriptor &d,
                           Inventory *fab) {
        fab->critical_levels = 4.0;
        fab->add(K::kAdder, 32);
        fab->add(K::kAdder, 32, 3);       // hit counters
        fab->add(K::kComparator, 2, 2);   // mode decode
        fab->add(K::kRandomLogic, 130);
        fab->add(K::kRegister, 40, d.pipeline_depth);
    };
    registry.add(std::move(desc));
}

void
WatchMonitor::process(const CommitPacket &packet, MonitorResult *result)
{
    const Instruction &di = packet.di;

    if (di.op == Op::kCpop1 || di.op == Op::kCpop2) {
        switch (di.cpop_fn) {
          case CpopFn::kSetMemTag:
            mem_tags_.write(packet.addr,
                            static_cast<u8>(packet.dest & 0x3));
            result->addOp(metaAddr(packet.addr), true);
            break;
          case CpopFn::kClearMemTag:
            mem_tags_.write(packet.addr, kNotWatched);
            result->addOp(metaAddr(packet.addr), true);
            break;
          case CpopFn::kReadTag:
            result->has_bfifo = true;
            switch (static_cast<Selector>(di.simm & 0xff)) {
              case kSelHits:
                result->bfifo = static_cast<u32>(hits_);
                break;
              case kSelLoadHits:
                result->bfifo = static_cast<u32>(load_hits_);
                break;
              case kSelStoreHits:
                result->bfifo = static_cast<u32>(store_hits_);
                break;
              default:
                result->bfifo = 0;
                break;
            }
            break;
          case CpopFn::kSetPolicy:
            policy_ = packet.addr;
            break;
          case CpopFn::kSetBase:
            meta_base_ = packet.res;
            break;
          default:
            break;
        }
        return;
    }

    if (!isLoad(di.op) && !isStore(di.op))
        return;

    const Mode watch_mode = mode(packet.addr);
    result->addOp(metaAddr(packet.addr), false);
    if (watch_mode == kNotWatched)
        return;

    ++hits_;
    if (isLoad(di.op))
        ++load_hits_;
    else
        ++store_hits_;

    if (!(policy_ & 1))
        return;
    if (watch_mode == kTrapAccess ||
        (watch_mode == kTrapStore && isStore(di.op))) {
        result->setTrap(isStore(di.op) ? "watchpoint hit (store)"
                                       : "watchpoint hit (load)");
    }
}

void
WatchMonitor::reset()
{
    Monitor::reset();
    hits_ = load_hits_ = store_hits_ = 0;
}

}  // namespace flexcore
