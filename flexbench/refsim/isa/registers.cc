#include "isa/registers.h"

#include <cctype>

#include "common/log.h"

namespace flexcore {

std::string
archRegName(unsigned arch_reg)
{
    if (arch_reg >= kNumArchRegs)
        FLEX_PANIC("bad architectural register index ", arch_reg);
    static const char kGroups[4] = {'g', 'o', 'l', 'i'};
    std::string name = "%";
    name += kGroups[arch_reg / 8];
    name += static_cast<char>('0' + arch_reg % 8);
    return name;
}

bool
parseRegName(const std::string &name, unsigned *arch_reg)
{
    if (name.size() < 3 || name[0] != '%')
        return false;
    const std::string body = name.substr(1);
    if (body == "sp") {
        *arch_reg = kRegSp;
        return true;
    }
    if (body == "fp") {
        *arch_reg = kRegFp;
        return true;
    }
    if (body[0] == 'r') {
        unsigned idx = 0;
        for (size_t i = 1; i < body.size(); ++i) {
            if (!std::isdigit(static_cast<unsigned char>(body[i])))
                return false;
            idx = idx * 10 + (body[i] - '0');
        }
        if (idx >= kNumArchRegs)
            return false;
        *arch_reg = idx;
        return true;
    }
    if (body.size() != 2 || body[1] < '0' || body[1] > '7')
        return false;
    unsigned group;
    switch (body[0]) {
      case 'g': group = 0; break;
      case 'o': group = 1; break;
      case 'l': group = 2; break;
      case 'i': group = 3; break;
      default: return false;
    }
    *arch_reg = group * 8 + (body[1] - '0');
    return true;
}

}  // namespace flexcore
