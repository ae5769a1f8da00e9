#include "common/rng.h"

#include "common/log.h"

namespace flexcore {

Rng::Rng(u64 seed)
    : state_(seed ? seed : 0x9e3779b97f4a7c15ull)
{
}

u64
Rng::next64()
{
    // xorshift64* (Vigna); good quality for simulation inputs and cheap.
    u64 x = state_;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    state_ = x;
    return x * 0x2545f4914f6cdd1dull;
}

u32
Rng::below(u32 bound)
{
    if (bound == 0)
        FLEX_PANIC("Rng::below called with bound 0");
    return static_cast<u32>(next64() % bound);
}

u32
Rng::range(u32 lo, u32 hi)
{
    if (lo > hi)
        FLEX_PANIC("Rng::range with lo > hi");
    return lo + below(hi - lo + 1);
}

double
Rng::real()
{
    return static_cast<double>(next64() >> 11) * (1.0 / 9007199254740992.0);
}

}  // namespace flexcore
