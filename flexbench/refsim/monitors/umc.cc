#include "monitors/umc.h"

#include "extensions/builtin.h"
#include "extensions/registry.h"
#include "synth/extension_synth.h"

namespace flexcore {

void
registerUmcExtension(ExtensionRegistry &registry)
{
    using K = Primitive::Kind;
    ExtensionDescriptor desc;
    desc.kind = MonitorKind::kUmc;
    desc.name = "umc";
    desc.doc = "uninitialized memory check: init bit per word, set on "
               "stores, checked on loads";
    desc.make = [](const MonitorOptions &) -> std::unique_ptr<Monitor> {
        return std::make_unique<UmcMonitor>();
    };
    desc.pipeline_depth = 3;
    desc.tag_bits_per_word = 1;
    desc.default_flex_period = 2;
    desc.forwardClasses({kTypeLoadWord, kTypeLoadByte, kTypeLoadHalf,
                         kTypeStoreWord, kTypeStoreByte, kTypeStoreHalf,
                         kTypeCpop1, kTypeCpop2});
    desc.tapped_groups = 2;   // address + opcode
    desc.build_fabric = [](const ExtensionDescriptor &d,
                           Inventory *fab) {
        fab->critical_levels = 4.0;
        fab->add(K::kAdder, 32);          // tag address translation
        fab->add(K::kMux, 32);            // tag bit write alignment
        fab->add(K::kDecoder, 4);         // opcode dispatch
        fab->add(K::kComparator, 1);      // tag check
        fab->add(K::kRandomLogic, 130);   // pipeline + cache control
        fab->add(K::kRegister, 40, d.pipeline_depth);
    };
    desc.build_asic = [](const ExtensionDescriptor &,
                         Inventory *asic) {
        asic->sram_bits =
            metaCacheBits(4 * 1024, 32) + forwardFifoBits(64);
        asic->sram_macros = 3;
        asic->add(K::kAdder, 32);
        asic->add(K::kRandomLogic, 5800);
    };
    desc.paper_grid = true;
    registry.add(std::move(desc));
}

u8
UmcMonitor::byteMask(Op op, Addr addr)
{
    switch (op) {
      case Op::kLd: case Op::kSt:
        return 0xf;
      case Op::kLduh: case Op::kSth:
        return static_cast<u8>(0x3 << (addr & 2));
      default:   // byte access
        return static_cast<u8>(0x1 << (addr & 3));
    }
}

void
UmcMonitor::onProgramLoad(Addr base, u32 size)
{
    // The OS marks statically initialized image memory as written.
    const u8 full = byte_granular_ ? 0xf : 1;
    for (Addr addr = base & ~3u; addr < base + size; addr += 4)
        mem_tags_.write(addr, full);
}

void
UmcMonitor::process(const CommitPacket &packet, MonitorResult *result)
{
    const Instruction &di = packet.di;
    if (di.op == Op::kCpop1 || di.op == Op::kCpop2) {
        handleCpop(packet, result);
        return;
    }
    if (isStore(di.op)) {
        if (byte_granular_) {
            const u8 tag = mem_tags_.read(packet.addr);
            mem_tags_.write(packet.addr,
                            tag | byteMask(di.op, packet.addr));
        } else {
            mem_tags_.write(packet.addr, 1);
        }
        result->addOp(metaAddr(packet.addr), true);
        return;
    }
    if (isLoad(di.op)) {
        result->addOp(metaAddr(packet.addr), false);
        bool ok;
        if (byte_granular_) {
            const u8 need = byteMask(di.op, packet.addr);
            ok = (mem_tags_.read(packet.addr) & need) == need;
        } else {
            ok = mem_tags_.read(packet.addr) != 0;
        }
        if (!ok && (policy_ & 1))
            result->setTrap("uninitialized memory read");
        return;
    }
}

void
UmcMonitor::handleCpop(const CommitPacket &packet, MonitorResult *result)
{
    switch (packet.di.cpop_fn) {
      case CpopFn::kSetMemTag:
        mem_tags_.write(packet.addr, byte_granular_ ? 0xf : 1);
        result->addOp(metaAddr(packet.addr), true);
        break;
      case CpopFn::kClearMemTag:
        mem_tags_.write(packet.addr, 0);
        result->addOp(metaAddr(packet.addr), true);
        break;
      case CpopFn::kReadTag:
        result->has_bfifo = true;
        result->bfifo = mem_tags_.read(packet.addr);
        result->addOp(metaAddr(packet.addr), false);
        break;
      case CpopFn::kSetPolicy:
        policy_ = packet.addr;
        break;
      case CpopFn::kSetBase:
        meta_base_ = packet.res;
        break;
      default:
        break;   // register-tag ops are meaningless for UMC
    }
}

}  // namespace flexcore
