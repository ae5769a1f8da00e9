/**
 * @file
 * Fundamental fixed-width types and small value helpers shared by every
 * FlexCore module.
 */

#ifndef FLEXCORE_COMMON_TYPES_H_
#define FLEXCORE_COMMON_TYPES_H_

#include <cstdint>

namespace flexcore {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using s8 = std::int8_t;
using s16 = std::int16_t;
using s32 = std::int32_t;
using s64 = std::int64_t;

/** Physical/virtual byte address in the simulated machine. */
using Addr = u32;

/** Simulation time, measured in core-clock cycles. */
using Cycle = u64;

/** A value that means "no cycle"/"not scheduled". */
inline constexpr Cycle kCycleNever = ~Cycle{0};

}  // namespace flexcore

#endif  // FLEXCORE_COMMON_TYPES_H_
