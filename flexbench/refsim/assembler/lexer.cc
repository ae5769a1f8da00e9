#include "assembler/lexer.h"

#include <cctype>

namespace flexcore {

namespace {

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.';
}

}  // namespace

bool
tokenizeLine(const std::string &line, std::vector<Token> *tokens,
             std::string *error)
{
    tokens->clear();
    size_t i = 0;
    const size_t n = line.size();
    while (i < n) {
        const char c = line[i];
        if (c == ' ' || c == '\t' || c == '\r') {
            ++i;
            continue;
        }
        if (c == ';' || c == '!' || c == '#')
            break;  // comment to end of line

        Token tok;
        tok.column = static_cast<int>(i) + 1;

        if (isIdentStart(c)) {
            size_t j = i;
            while (j < n && isIdentChar(line[j]))
                ++j;
            tok.kind = TokKind::kIdent;
            tok.text = line.substr(i, j - i);
            i = j;
        } else if (c == '%') {
            size_t j = i + 1;
            while (j < n && std::isalnum(static_cast<unsigned char>(line[j])))
                ++j;
            if (j == i + 1) {
                *error = "stray '%'";
                return false;
            }
            tok.kind = TokKind::kPercent;
            tok.text = line.substr(i + 1, j - i - 1);
            i = j;
        } else if (std::isdigit(static_cast<unsigned char>(c))) {
            size_t j = i;
            int base = 10;
            if (c == '0' && j + 1 < n && (line[j+1] == 'x' || line[j+1] == 'X')) {
                base = 16;
                j += 2;
            }
            s64 value = 0;
            bool any = false;
            while (j < n) {
                const char d = line[j];
                int digit;
                if (d >= '0' && d <= '9') {
                    digit = d - '0';
                } else if (base == 16 && d >= 'a' && d <= 'f') {
                    digit = d - 'a' + 10;
                } else if (base == 16 && d >= 'A' && d <= 'F') {
                    digit = d - 'A' + 10;
                } else {
                    break;
                }
                if (digit >= base)
                    break;
                value = value * base + digit;
                any = true;
                ++j;
            }
            if (!any) {
                *error = "malformed number";
                return false;
            }
            tok.kind = TokKind::kNumber;
            tok.value = value;
            tok.text = line.substr(i, j - i);
            i = j;
        } else if (c == '"') {
            std::string contents;
            size_t j = i + 1;
            bool closed = false;
            while (j < n) {
                if (line[j] == '"') {
                    closed = true;
                    ++j;
                    break;
                }
                if (line[j] == '\\' && j + 1 < n) {
                    ++j;
                    switch (line[j]) {
                      case 'n': contents += '\n'; break;
                      case 't': contents += '\t'; break;
                      case '0': contents += '\0'; break;
                      case '\\': contents += '\\'; break;
                      case '"': contents += '"'; break;
                      default: contents += line[j]; break;
                    }
                    ++j;
                } else {
                    contents += line[j];
                    ++j;
                }
            }
            if (!closed) {
                *error = "unterminated string literal";
                return false;
            }
            tok.kind = TokKind::kString;
            tok.text = contents;
            i = j;
        } else {
            switch (c) {
              case ',': tok.kind = TokKind::kComma; break;
              case ':': tok.kind = TokKind::kColon; break;
              case '[': tok.kind = TokKind::kLBracket; break;
              case ']': tok.kind = TokKind::kRBracket; break;
              case '(': tok.kind = TokKind::kLParen; break;
              case ')': tok.kind = TokKind::kRParen; break;
              case '+': tok.kind = TokKind::kPlus; break;
              case '-': tok.kind = TokKind::kMinus; break;
              default:
                *error = std::string("unexpected character '") + c + "'";
                return false;
            }
            ++i;
        }
        tokens->push_back(std::move(tok));
    }
    Token end;
    end.kind = TokKind::kEnd;
    end.column = static_cast<int>(i) + 1;
    tokens->push_back(std::move(end));
    return true;
}

}  // namespace flexcore
