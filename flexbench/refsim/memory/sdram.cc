#include "memory/sdram.h"

namespace flexcore {

SdramRowModel::SdramRowModel(StatGroup *parent)
    : stats_("sdram", parent),
      row_hits_(&stats_, "row_hits",
                "transactions hitting a bank's open row"),
      row_misses_(&stats_, "row_misses",
                  "transactions opening a new row (incl. first access)"),
      run_length_(&stats_, "row_run_length",
                  "consecutive transactions to the same open row",
                  Histogram::Params{1, 0, 12, true})
{
}

void
SdramRowModel::observe(Addr addr)
{
    Bank &bank = banks_[(addr >> kBankShift) & (kNumBanks - 1)];
    const u32 row = addr >> kRowShift;
    if (bank.open && bank.row == row) {
        ++row_hits_;
        ++bank.run;
        return;
    }
    ++row_misses_;
    if (bank.run > 0)
        run_length_.add(bank.run);
    bank.open = true;
    bank.row = row;
    bank.run = 1;
}

void
SdramRowModel::flush()
{
    for (Bank &bank : banks_) {
        if (bank.run > 0)
            run_length_.add(bank.run);
        bank.run = 0;
        bank.open = false;
    }
}

}  // namespace flexcore
