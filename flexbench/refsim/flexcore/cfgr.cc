#include "flexcore/cfgr.h"

namespace flexcore {

void
Cfgr::setAll(ForwardPolicy policy)
{
    value_ = 0;
    for (unsigned type = 0; type < kNumInstrTypes; ++type)
        value_ |= static_cast<u64>(policy) << (2 * type);
}

}  // namespace flexcore
