/**
 * @file
 * Syntactic analysis for the assembler: turns a token line into a
 * ParsedLine (labels, mnemonic, structured operands). Symbol values are
 * resolved later by the Assembler's second pass.
 */

#ifndef FLEXCORE_ASSEMBLER_PARSER_H_
#define FLEXCORE_ASSEMBLER_PARSER_H_

#include <string>
#include <vector>

#include "assembler/lexer.h"
#include "common/types.h"

namespace flexcore {

/**
 * A (possibly symbolic) integer expression: symbol + addend, with an
 * optional %hi/%lo modifier. An empty symbol means a plain constant.
 */
struct ExprRef
{
    enum class Mod : u8 { kNone, kHi, kLo };
    std::string symbol;
    s64 addend = 0;
    Mod mod = Mod::kNone;

    bool isConstant() const { return symbol.empty(); }
};

/** One parsed operand. */
struct Operand
{
    enum class Kind : u8 {
        kReg,       // %o0 ...
        kImm,       // expression
        kMem,       // [%rs1 + %rs2] or [%rs1 + imm]
        kSpecialY,  // %y
    };
    Kind kind = Kind::kImm;
    unsigned reg = 0;          // kReg: register index; kMem: base register
    bool mem_has_index_reg = false;
    unsigned index_reg = 0;    // kMem with register index
    ExprRef expr;              // kImm value or kMem immediate offset
};

/** A parsed source line. */
struct ParsedLine
{
    std::vector<std::string> labels;
    std::string mnemonic;      // empty for label-only/blank lines
    bool annul = false;        // ",a" suffix on branches
    std::vector<Operand> operands;
    std::vector<std::string> string_args;  // for .asciz etc.
};

/**
 * Parse one tokenized line. Returns false and fills @p error on a
 * syntax error.
 */
bool parseLine(const std::vector<Token> &tokens, ParsedLine *out,
               std::string *error);

}  // namespace flexcore

#endif  // FLEXCORE_ASSEMBLER_PARSER_H_
