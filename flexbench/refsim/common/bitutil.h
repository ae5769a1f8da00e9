/**
 * @file
 * Bit-manipulation helpers used by the ISA encoder/decoder, the caches,
 * and the monitoring extensions.
 */

#ifndef FLEXCORE_COMMON_BITUTIL_H_
#define FLEXCORE_COMMON_BITUTIL_H_

#include <bit>

#include "common/types.h"

namespace flexcore {

/** Extract bits [hi:lo] (inclusive) of @p value, right-justified. */
constexpr u32
bits(u32 value, unsigned hi, unsigned lo)
{
    const unsigned width = hi - lo + 1;
    const u32 mask = width >= 32 ? ~u32{0} : ((u32{1} << width) - 1);
    return (value >> lo) & mask;
}

/** Extract a single bit of @p value. */
constexpr u32
bit(u32 value, unsigned pos)
{
    return (value >> pos) & 1u;
}

/** Insert @p field into bits [hi:lo] of @p value and return the result. */
constexpr u32
insertBits(u32 value, unsigned hi, unsigned lo, u32 field)
{
    const unsigned width = hi - lo + 1;
    const u32 mask = width >= 32 ? ~u32{0} : ((u32{1} << width) - 1);
    return (value & ~(mask << lo)) | ((field & mask) << lo);
}

/** Sign-extend the low @p width bits of @p value to 32 bits. */
constexpr s32
signExtend(u32 value, unsigned width)
{
    const unsigned shift = 32 - width;
    return static_cast<s32>(value << shift) >> shift;
}

/** True if @p value is a power of two (zero is not). */
constexpr bool
isPowerOfTwo(u64 value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/** log2 of a power-of-two value. */
constexpr unsigned
log2Exact(u64 value)
{
    unsigned n = 0;
    while (value > 1) {
        value >>= 1;
        ++n;
    }
    return n;
}

/** Round @p value up to the next multiple of @p align (a power of two). */
constexpr u32
alignUp(u32 value, u32 align)
{
    return (value + align - 1) & ~(align - 1);
}

/** Population count on a 32-bit value. */
inline unsigned
popcount32(u32 value)
{
    return static_cast<unsigned>(std::popcount(value));
}

}  // namespace flexcore

#endif  // FLEXCORE_COMMON_BITUTIL_H_
