/**
 * @file
 * Line-oriented tokenizer for the assembler. Comments start with ';',
 * '!' or '#' and run to end of line.
 */

#ifndef FLEXCORE_ASSEMBLER_LEXER_H_
#define FLEXCORE_ASSEMBLER_LEXER_H_

#include <string>
#include <vector>

#include "common/types.h"

namespace flexcore {

enum class TokKind : u8 {
    kIdent,      // mnemonic, label, symbol, or ".directive" / "m.op"
    kPercent,    // %g0, %hi, %lo, %sp, ... (text excludes the '%')
    kNumber,     // integer literal (value in Token::value)
    kString,     // quoted string (text holds the unescaped contents)
    kComma,
    kColon,
    kLBracket,
    kRBracket,
    kLParen,
    kRParen,
    kPlus,
    kMinus,
    kEnd,        // end of line
};

struct Token
{
    TokKind kind = TokKind::kEnd;
    std::string text;
    s64 value = 0;
    int column = 0;
};

/**
 * Tokenize one source line. Returns false and fills @p error on a
 * malformed token (bad number, unterminated string, stray character).
 */
bool tokenizeLine(const std::string &line, std::vector<Token> *tokens,
                  std::string *error);

}  // namespace flexcore

#endif  // FLEXCORE_ASSEMBLER_LEXER_H_
