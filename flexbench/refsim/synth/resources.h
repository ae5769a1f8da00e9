/**
 * @file
 * Structural resource inventories used by the synthesis models. Each
 * monitoring extension is described as a netlist-level inventory
 * (adders, comparators, muxes, registers, decoders, SRAM bits); the
 * FPGA model maps the inventory to 6-input LUTs and the ASIC model to
 * gate and SRAM-macro area.
 */

#ifndef FLEXCORE_SYNTH_RESOURCES_H_
#define FLEXCORE_SYNTH_RESOURCES_H_

#include <string>
#include <vector>

#include "common/types.h"

namespace flexcore {

/** One primitive block in a datapath inventory. */
struct Primitive
{
    enum class Kind : u8 {
        kAdder,        //!< ripple/carry adder, width bits
        kComparator,   //!< equality/magnitude compare, width bits
        kMux,          //!< 2:1 mux, width bits (ways folded into count)
        kRegister,     //!< pipeline/architectural flip-flops, width bits
        kDecoder,      //!< n:2^n decoder, width = n
        kRandomLogic,  //!< control logic, width = equivalent 2-input gates
        kShifter,      //!< barrel shifter, width bits (log stages)
        kMultiplier,   //!< array multiplier, width x width
    };
    Kind kind;
    u32 width = 0;
    u32 count = 1;
};

/** A named hardware block: primitives plus embedded SRAM. */
struct Inventory
{
    std::string name;
    std::vector<Primitive> primitives;
    u64 sram_bits = 0;      //!< dedicated SRAM (cache/FIFO/regfile)
    u32 sram_macros = 0;    //!< number of distinct SRAM arrays
    /**
     * LUT levels between pipeline registers on the critical path
     * (drives the FPGA frequency model).
     */
    double critical_levels = 4.0;

    void
    add(Primitive::Kind kind, u32 width, u32 count = 1)
    {
        primitives.push_back({kind, width, count});
    }
};

/** FPGA mapping result. */
struct FpgaResources
{
    u32 luts = 0;
    u32 ffs = 0;
    double critical_levels = 4.0;
};

/** ASIC mapping result. */
struct AsicResources
{
    u64 gates = 0;        //!< NAND2-equivalent gates
    u64 sram_bits = 0;
    u32 sram_macros = 0;
};

/** Map an inventory to FPGA LUT/FF counts (6-LUT fabric). */
FpgaResources mapToFpga(const Inventory &inventory);

/** Map an inventory to ASIC gate counts. */
AsicResources mapToAsic(const Inventory &inventory);

}  // namespace flexcore

#endif  // FLEXCORE_SYNTH_RESOURCES_H_
