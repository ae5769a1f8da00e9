/**
 * @file
 * The source paper's Table IV: normalized execution time (geomean
 * over the six benchmarks) of each extension at each fabric clock.
 *
 * Source: Deng, Lo, Malysa, Schneider, Suh, "Flexible and Efficient
 * Instruction-Grained Run-Time Monitoring Using On-Chip Reconfigurable
 * Fabric", MICRO 2010, Table IV; copied from the "paper" columns of
 * the Table IV section of EXPERIMENTS.md.
 */

#ifndef FLEXBENCH_PAPER_TABLE4_H_
#define FLEXBENCH_PAPER_TABLE4_H_

namespace fb {

struct PaperRow
{
    const char *monitor;   //!< extension registry name
    double x1;             //!< ASIC, full core clock
    double x05;            //!< fabric at 0.5X
    double x025;           //!< fabric at 0.25X
};

inline constexpr PaperRow kPaperTable4[] = {
    {"umc", 1.02, 1.02, 1.05},
    {"dift", 1.05, 1.18, 1.43},
    {"bc", 1.07, 1.17, 1.44},
    {"sec", 1.00, 1.16, 1.40},
};

}  // namespace fb

#endif  // FLEXBENCH_PAPER_TABLE4_H_
