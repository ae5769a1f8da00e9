#include "monitors/bc.h"

#include "extensions/builtin.h"
#include "extensions/registry.h"
#include "flexcore/shadow_regfile.h"
#include "synth/extension_synth.h"

namespace flexcore {

void
registerBcExtension(ExtensionRegistry &registry)
{
    using K = Primitive::Kind;
    ExtensionDescriptor desc;
    desc.kind = MonitorKind::kBc;
    desc.name = "bc";
    desc.doc = "color-based array bounds check: pointer colors vs "
               "location colors on every load and store";
    desc.make = [](const MonitorOptions &) -> std::unique_ptr<Monitor> {
        return std::make_unique<BcMonitor>();
    };
    desc.pipeline_depth = 5;
    desc.tag_bits_per_word = 8;
    desc.default_flex_period = 2;
    // All arithmetic is forwarded: a pointer may flow through logic or
    // shift ops (alignment masks), so colors must follow conservatively.
    desc.forwardClasses({kTypeAluAdd, kTypeAluSub, kTypeAluLogic,
                         kTypeAluShift, kTypeLoadWord, kTypeLoadByte,
                         kTypeLoadHalf, kTypeStoreWord, kTypeStoreByte,
                         kTypeStoreHalf, kTypeSave, kTypeRestore,
                         kTypeCpop1, kTypeCpop2});
    desc.tapped_groups = 9;
    desc.build_fabric = [](const ExtensionDescriptor &d,
                           Inventory *fab) {
        fab->critical_levels = 5.0;
        fab->add(K::kAdder, 32);          // tag address translation
        fab->add(K::kAdder, 4, 2);        // color addition (two sources)
        fab->add(K::kComparator, 4, 2);   // color match (load + store)
        fab->add(K::kMux, 8);             // packed tag extract
        fab->add(K::kMux, 32);
        fab->add(K::kDecoder, 5);
        fab->add(K::kRandomLogic, 420);   // two-port sequencing control
        fab->add(K::kRegister, 56, d.pipeline_depth);
    };
    desc.build_asic = [](const ExtensionDescriptor &,
                         Inventory *asic) {
        asic->sram_bits =
            metaCacheBits(4 * 1024, 32) + forwardFifoBits(64);
        asic->sram_macros = 3;
        asic->add(K::kAdder, 32);
        asic->add(K::kRegister, kNumPhysRegs * 4);   // 4-bit colors
        asic->add(K::kRandomLogic, 41000);
    };
    desc.paper_grid = true;
    registry.add(std::move(desc));
}

u8
BcMonitor::accessColor(const CommitPacket &packet) const
{
    return static_cast<u8>((reg_tags_.read(packet.src1) +
                            reg_tags_.read(packet.src2)) &
                           0xf);
}

void
BcMonitor::process(const CommitPacket &packet, MonitorResult *result)
{
    const Instruction &di = packet.di;

    if (di.op == Op::kCpop1 || di.op == Op::kCpop2) {
        handleCpop(packet, result);
        return;
    }

    if (isLoad(di.op)) {
        const u8 mtag = mem_tags_.read(packet.addr);
        const u8 mem_color = mtag & 0xf;
        const u8 ptr_color = accessColor(packet);
        result->addOp(metaAddr(packet.addr), false);
        if ((policy_ & 1) && (mem_color != 0 || ptr_color != 0) &&
            ptr_color != mem_color) {
            result->setTrap("out-of-bounds load");
        }
        // The loaded value inherits the stored pointer color.
        reg_tags_.write(packet.dest, (mtag >> 4) & 0xf);
        return;
    }
    if (isStore(di.op)) {
        const u8 mtag = mem_tags_.read(packet.addr);
        const u8 mem_color = mtag & 0xf;
        const u8 ptr_color = accessColor(packet);
        // Check read, then tag write: two cache operations.
        result->addOp(metaAddr(packet.addr), false);
        result->addOp(metaAddr(packet.addr), true);
        if ((policy_ & 1) && (mem_color != 0 || ptr_color != 0) &&
            ptr_color != mem_color) {
            result->setTrap("out-of-bounds store");
        }
        const u8 data_color = reg_tags_.read(packet.dest) & 0xf;
        mem_tags_.write(packet.addr,
                        static_cast<u8>((data_color << 4) | mem_color));
        return;
    }

    switch (di.type) {
      case kTypeAluAdd:
      case kTypeAluSub:
      case kTypeAluLogic:
      case kTypeAluShift:
      case kTypeSave:
      case kTypeRestore: {
        // Pointer arithmetic: pointer + offset keeps the color
        // (offset registers carry color 0).
        const u8 color = static_cast<u8>((reg_tags_.read(packet.src1) +
                                          reg_tags_.read(packet.src2)) &
                                         0xf);
        reg_tags_.write(packet.dest, color);
        break;
      }
      case kTypeIndirectJump:
      case kTypeCall:
        // Link register receives a code address: colorless.
        reg_tags_.write(packet.dest, 0);
        break;
      default:
        break;
    }
}

void
BcMonitor::handleCpop(const CommitPacket &packet, MonitorResult *result)
{
    // For SetRegTag/SetMemTag the 4-bit color value travels in the
    // packet's DEST field (the instruction's rd slot).
    const u8 color = static_cast<u8>(packet.dest & 0xf);
    switch (packet.di.cpop_fn) {
      case CpopFn::kSetRegTag:
        reg_tags_.write(packet.src1, color);
        break;
      case CpopFn::kClearRegTag:
        reg_tags_.write(packet.src1, 0);
        break;
      case CpopFn::kSetMemTag: {
        // Allocation: set the location color, clear the pointer color.
        mem_tags_.write(packet.addr, color);
        result->addOp(metaAddr(packet.addr), true);
        break;
      }
      case CpopFn::kClearMemTag:
        mem_tags_.write(packet.addr, 0);
        result->addOp(metaAddr(packet.addr), true);
        break;
      case CpopFn::kSetPolicy:
        policy_ = packet.addr;
        break;
      case CpopFn::kReadTag:
        result->has_bfifo = true;
        result->bfifo = reg_tags_.read(packet.src1) & 0xf;
        break;
      case CpopFn::kSetBase:
        meta_base_ = packet.res;
        break;
      default:
        break;
    }
}

}  // namespace flexcore
