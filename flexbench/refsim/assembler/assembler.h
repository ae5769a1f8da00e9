/**
 * @file
 * Two-pass assembler for the SPARC V8 subset, including the monitor
 * pseudo-ops (m.settag, m.setmtag, m.policy, m.read, ...) that assemble
 * to CPop1 instructions.
 *
 * Supported directives: .org .align .word .half .byte .asciz .ascii
 * .space .equ .global .text .data
 *
 * Supported pseudo-instructions: nop, set, mov, clr, cmp, tst, ret,
 * retl, jmp, inc, dec, neg, not, ta, and the b<cond>[,a] branch family.
 */

#ifndef FLEXCORE_ASSEMBLER_ASSEMBLER_H_
#define FLEXCORE_ASSEMBLER_ASSEMBLER_H_

#include <string>
#include <vector>

#include "assembler/parser.h"
#include "assembler/program.h"

namespace flexcore {

/** One assembly diagnostic. */
struct AsmError
{
    int line = 0;
    std::string message;
};

class Assembler
{
  public:
    /**
     * Assemble @p source into @p out. Returns true on success; on
     * failure errors() holds at least one diagnostic.
     */
    bool assemble(const std::string &source, Program *out);

    const std::vector<AsmError> &errors() const { return errors_; }

    /** Render all diagnostics as one newline-separated string. */
    std::string errorText() const;

    /**
     * Convenience for tests and workloads: assemble or die with a
     * fatal error listing the diagnostics.
     */
    static Program assembleOrDie(const std::string &source,
                                 Addr base = 0x1000);

  private:
    struct Pending
    {
        Addr addr = 0;
        int line = 0;
        ParsedLine parsed;
    };

    struct DataFixup
    {
        Addr addr = 0;
        int line = 0;
        ExprRef expr;
    };

    void addError(int line, std::string message);

    /** Pass 1 helpers. */
    bool runDirective(const ParsedLine &parsed, int line, Program *out);
    static bool isDirective(const std::string &mnemonic);
    static unsigned instrByteSize(const ParsedLine &parsed);

    /** Pass 2: resolve and encode one parsed instruction. */
    void encodeStatement(const Pending &pending, Program *out);

    bool resolve(const ExprRef &expr, const Program &prog, int line,
                 u32 *value);

    std::vector<AsmError> errors_;
    std::vector<Pending> pending_;
    std::vector<DataFixup> fixups_;
    bool emitted_anything_ = false;
};

}  // namespace flexcore

#endif  // FLEXCORE_ASSEMBLER_ASSEMBLER_H_
