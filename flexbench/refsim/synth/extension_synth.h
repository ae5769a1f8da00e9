/**
 * @file
 * Structural descriptions of the monitoring extensions and the
 * dedicated FlexCore modules, as both fabric (FPGA) netlists and the
 * extra blocks their full-ASIC variants add to Leon3. These drive the
 * Table III reproduction. The per-extension inventories are built by
 * the builder callbacks each extension registers in the
 * ExtensionRegistry (src/extensions/); this module only assembles
 * them plus the shared FlexCore hardware.
 */

#ifndef FLEXCORE_SYNTH_EXTENSION_SYNTH_H_
#define FLEXCORE_SYNTH_EXTENSION_SYNTH_H_

#include "sim/config.h"
#include "synth/resources.h"

namespace flexcore {

struct ExtensionSynth
{
    std::string name;
    Inventory fabric;       //!< mapped onto the reconfigurable fabric
    Inventory asic_extra;   //!< added to Leon3 in the full-ASIC variant
    unsigned tapped_groups; //!< commit-stage signal groups tapped
};

/** Structural description of one extension. */
ExtensionSynth extensionSynth(MonitorKind kind);

/**
 * The dedicated FlexCore hardware (core-fabric interface, 4 KB
 * meta-data cache, 64-entry forward FIFO, shadow register file, CFGR).
 */
Inventory commonModulesInventory();
unsigned commonTappedGroups();

/** FIFO SRAM bits for a given depth (Table II entry width). */
u64 forwardFifoBits(u32 depth);

/** Meta-data cache SRAM bits (data + tags) for a given geometry. */
u64 metaCacheBits(u32 size_bytes, u32 line_bytes);

}  // namespace flexcore

#endif  // FLEXCORE_SYNTH_EXTENSION_SYNTH_H_
