#include "synth/extension_synth.h"

#include <cctype>

#include "common/log.h"
#include "extensions/registry.h"
#include "flexcore/packet.h"
#include "flexcore/shadow_regfile.h"

namespace flexcore {

namespace {
using K = Primitive::Kind;
}  // namespace

u64
forwardFifoBits(u32 depth)
{
    return u64{depth} * ffifoEntryBits();
}

u64
metaCacheBits(u32 size_bytes, u32 line_bytes)
{
    const u32 lines = size_bytes / line_bytes;
    const u32 tag_bits = 22;   // 32b addr - index - offset, plus state
    return u64{size_bytes} * 8 + u64{lines} * tag_bits;
}

ExtensionSynth
extensionSynth(MonitorKind kind)
{
    const ExtensionDescriptor *desc =
        ExtensionRegistry::instance().find(kind);
    if (!desc)
        FLEX_FATAL("no synthesis model for monitor kind ",
                   static_cast<int>(kind));

    ExtensionSynth ext;
    // Report names are the canonical name in caps ("umc" -> "UMC").
    for (char c : desc->name)
        ext.name += static_cast<char>(
            std::toupper(static_cast<unsigned char>(c)));
    ext.tapped_groups = desc->tapped_groups;

    ext.fabric.name = std::string(desc->name) + "-fabric";
    desc->build_fabric(*desc, &ext.fabric);

    if (desc->build_asic) {
        ext.asic_extra.name = std::string(desc->name) + "-asic";
        desc->build_asic(*desc, &ext.asic_extra);
    }
    return ext;
}

Inventory
commonModulesInventory()
{
    Inventory inv;
    inv.name = "flexcore-common";
    inv.sram_bits = metaCacheBits(4 * 1024, 32) + forwardFifoBits(64) +
                    ShadowRegFile::storageBits();
    inv.sram_macros = 4;
    inv.add(K::kRegister, 64);          // CFGR
    inv.add(K::kRegister, 293, 2);      // CDC synchronizer stages
    inv.add(K::kAdder, 32);             // generic address path
    // The general-purpose interface (full Table II field muxing,
    // per-class policy logic, decode, BFIFO/CTRL) is substantially
    // larger than any single ASIC extension's glue logic.
    inv.add(K::kRandomLogic, 103000);
    return inv;
}

unsigned
commonTappedGroups()
{
    return 7;
}

}  // namespace flexcore
