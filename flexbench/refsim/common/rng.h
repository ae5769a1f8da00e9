/**
 * @file
 * Deterministic pseudo-random number generator (xorshift64*) used by
 * workload input generation and fault injection. Deterministic across
 * platforms so experiments and tests are reproducible.
 */

#ifndef FLEXCORE_COMMON_RNG_H_
#define FLEXCORE_COMMON_RNG_H_

#include "common/types.h"

namespace flexcore {

class Rng
{
  public:
    explicit Rng(u64 seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    u64 next64();

    /** Next 32-bit value. */
    u32 next32() { return static_cast<u32>(next64() >> 32); }

    /** Uniform in [0, bound). @p bound must be > 0. */
    u32 below(u32 bound);

    /** Uniform in [lo, hi] inclusive. */
    u32 range(u32 lo, u32 hi);

    /** Uniform real in [0, 1). */
    double real();

    /** Bernoulli trial with probability @p p. */
    bool chance(double p) { return real() < p; }

  private:
    u64 state_;
};

}  // namespace flexcore

#endif  // FLEXCORE_COMMON_RNG_H_
