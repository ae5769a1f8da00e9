/**
 * @file
 * SDRAM timing parameters. The paper's prototype has no L2; both the
 * Leon3 L1 caches and the meta-data cache refill directly from off-chip
 * SDRAM over the shared memory bus, so one transaction's occupancy is
 * what creates the bus contention discussed in §V-C.
 */

#ifndef FLEXCORE_MEMORY_SDRAM_H_
#define FLEXCORE_MEMORY_SDRAM_H_

#include "common/stats.h"
#include "common/types.h"

namespace flexcore {

/** Kinds of bus/SDRAM transactions. */
enum class BusOp : u8 {
    kReadLine,    // 32-byte cache line refill
    kWriteWord,   // write-through word/halfword/byte store
    kWriteLine,   // meta-data cache dirty-line writeback
};

/**
 * Occupancy of the shared bus + SDRAM for each transaction type, in
 * core-clock cycles. Defaults approximate a 100 MHz-class SDR SDRAM
 * behind an AMBA AHB as in the Leon3 reference design: a line refill
 * costs row activation plus a burst of 8 words.
 */
struct SdramTimings
{
    u32 line_read = 30;
    u32 line_write = 26;
    u32 word_write = 3;

    u32 cost(BusOp op) const
    {
        switch (op) {
          case BusOp::kReadLine: return line_read;
          case BusOp::kWriteLine: return line_write;
          case BusOp::kWriteWord: return word_write;
        }
        return 1;
    }
};

/**
 * Observational row-buffer model: classifies each bus transaction as a
 * row hit or miss per bank and records the distribution of same-row
 * run lengths. Purely statistical — the fixed SdramTimings above stay
 * authoritative for timing, so attaching this model never perturbs the
 * golden traces.
 */
class SdramRowModel
{
  public:
    explicit SdramRowModel(StatGroup *parent);

    /** Classify one transaction (call at transaction start). */
    void observe(Addr addr);

    /** Close any open same-row runs (call at end of simulation). */
    void flush();

    u64 rowHits() const { return row_hits_.value(); }
    u64 rowMisses() const { return row_misses_.value(); }

  private:
    static constexpr u32 kNumBanks = 4;
    static constexpr u32 kBankShift = 13;   //!< 8 KB bank interleave
    static constexpr u32 kRowShift = 15;    //!< 32 KB rows

    struct Bank
    {
        bool open = false;
        u32 row = 0;
        u64 run = 0;   //!< consecutive accesses to the open row
    };

    Bank banks_[kNumBanks];
    StatGroup stats_;
    Counter row_hits_;
    Counter row_misses_;
    Histogram run_length_;
};

}  // namespace flexcore

#endif  // FLEXCORE_MEMORY_SDRAM_H_
