/**
 * @file
 * The host-speed reference (see HostPace in bench.h): a frozen copy of
 * the simulator's core, memory, fabric and monitors (flexbench/refsim/)
 * compiled into its own namespace, so it links beside the simulator
 * under test and keeps doing the same work while src/ changes.
 */

#ifndef FLEXBENCH_REFERENCE_H_
#define FLEXBENCH_REFERENCE_H_

#include <string>
#include <vector>

namespace fb {

/** The frozen kernels the reference runs (refsim/programs.cc). */
const std::vector<std::string> &referencePrograms();

/**
 * Run the reference once: each frozen kernel unmonitored and under
 * DIFT on the fabric, on the frozen simulator. Returns the sum of the
 * simulated cycles, which must be the same on every call.
 */
unsigned long long runReference();

}  // namespace fb

#endif  // FLEXBENCH_REFERENCE_H_
