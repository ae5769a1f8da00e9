#include "monitors/memprot.h"

#include "extensions/builtin.h"
#include "extensions/registry.h"
#include "synth/extension_synth.h"

namespace flexcore {

void
registerMemProtExtension(ExtensionRegistry &registry)
{
    using K = Primitive::Kind;
    ExtensionDescriptor desc;
    desc.kind = MonitorKind::kMemProt;
    desc.name = "memprot";
    desc.doc = "Mondrian-style word-granular memory protection "
               "(read/write permission tags)";
    desc.make = [](const MonitorOptions &) -> std::unique_ptr<Monitor> {
        return std::make_unique<MemProtMonitor>();
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
        fab->add(K::kMux, 32);
        fab->add(K::kComparator, 2, 2);   // permission checks
        fab->add(K::kDecoder, 4);
        fab->add(K::kRandomLogic, 140);
        fab->add(K::kRegister, 40, d.pipeline_depth);
    };
    registry.add(std::move(desc));
}

void
MemProtMonitor::process(const CommitPacket &packet,
                        MonitorResult *result)
{
    const Instruction &di = packet.di;
    if (di.op == Op::kCpop1 || di.op == Op::kCpop2) {
        handleCpop(packet, result);
        return;
    }
    if (!isLoad(di.op) && !isStore(di.op))
        return;

    const Perm perm = permission(packet.addr);
    result->addOp(metaAddr(packet.addr), false);
    if (!(policy_ & 1))
        return;
    if (perm == kPermNoAccess) {
        result->setTrap(isLoad(di.op)
                            ? "load from no-access word"
                            : "store to no-access word");
        return;
    }
    if (perm == kPermReadOnly && isStore(di.op))
        result->setTrap("store to read-only word");
}

void
MemProtMonitor::handleCpop(const CommitPacket &packet,
                           MonitorResult *result)
{
    switch (packet.di.cpop_fn) {
      case CpopFn::kSetMemTag:
        mem_tags_.write(packet.addr,
                        static_cast<u8>(packet.dest & 0x3));
        result->addOp(metaAddr(packet.addr), true);
        break;
      case CpopFn::kClearMemTag:
        mem_tags_.write(packet.addr, kPermDefault);
        result->addOp(metaAddr(packet.addr), true);
        break;
      case CpopFn::kReadTag:
        result->has_bfifo = true;
        result->bfifo = permission(packet.addr);
        result->addOp(metaAddr(packet.addr), false);
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
}

}  // namespace flexcore
