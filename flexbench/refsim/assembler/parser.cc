#include "assembler/parser.h"

#include "isa/registers.h"

namespace flexcore {

namespace {

/** Cursor over the token vector. */
class Cursor
{
  public:
    explicit Cursor(const std::vector<Token> &tokens) : tokens_(tokens) {}

    const Token &peek() const { return tokens_[pos_]; }
    const Token &next() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
    bool atEnd() const { return peek().kind == TokKind::kEnd; }

    size_t pos() const { return pos_; }
    void setPos(size_t pos) { pos_ = pos; }

    bool
    accept(TokKind kind)
    {
        if (peek().kind != kind)
            return false;
        next();
        return true;
    }

  private:
    const std::vector<Token> &tokens_;
    size_t pos_ = 0;
};

bool
parseExpr(Cursor *cur, ExprRef *out, std::string *error)
{
    *out = ExprRef{};
    // Optional %hi( ... ) / %lo( ... ) wrapper.
    if (cur->peek().kind == TokKind::kPercent &&
        (cur->peek().text == "hi" || cur->peek().text == "lo")) {
        out->mod = cur->peek().text == "hi" ? ExprRef::Mod::kHi
                                            : ExprRef::Mod::kLo;
        cur->next();
        if (!cur->accept(TokKind::kLParen)) {
            *error = "expected '(' after %hi/%lo";
            return false;
        }
        ExprRef inner;
        if (!parseExpr(cur, &inner, error))
            return false;
        if (inner.mod != ExprRef::Mod::kNone) {
            *error = "nested %hi/%lo not allowed";
            return false;
        }
        out->symbol = inner.symbol;
        out->addend = inner.addend;
        if (!cur->accept(TokKind::kRParen)) {
            *error = "expected ')' after %hi/%lo expression";
            return false;
        }
        return true;
    }

    // term ((+|-) term)* where each term is a number or (at most one,
    // non-negated) symbol.
    s64 sign = 1;
    for (;;) {
        while (cur->accept(TokKind::kMinus))
            sign = -sign;
        const Token &tok = cur->peek();
        if (tok.kind == TokKind::kNumber) {
            out->addend += sign * tok.value;
            cur->next();
        } else if (tok.kind == TokKind::kIdent && out->symbol.empty() &&
                   sign > 0) {
            out->symbol = tok.text;
            cur->next();
        } else {
            *error = "expected expression term";
            return false;
        }
        if (cur->accept(TokKind::kPlus)) {
            sign = 1;
            continue;
        }
        if (cur->peek().kind == TokKind::kMinus) {
            cur->next();
            sign = -1;
            continue;
        }
        break;
    }
    return true;
}

bool
parseMemOperand(Cursor *cur, Operand *out, std::string *error)
{
    out->kind = Operand::Kind::kMem;
    if (cur->peek().kind != TokKind::kPercent) {
        *error = "expected base register in memory operand";
        return false;
    }
    unsigned base;
    if (!parseRegName("%" + cur->peek().text, &base)) {
        *error = "bad register '%" + cur->peek().text + "'";
        return false;
    }
    cur->next();
    out->reg = base;
    out->expr = ExprRef{};

    if (cur->accept(TokKind::kPlus)) {
        if (cur->peek().kind == TokKind::kPercent) {
            unsigned index;
            if (!parseRegName("%" + cur->peek().text, &index)) {
                *error = "bad index register";
                return false;
            }
            cur->next();
            out->mem_has_index_reg = true;
            out->index_reg = index;
        } else {
            if (!parseExpr(cur, &out->expr, error))
                return false;
        }
    } else if (cur->peek().kind == TokKind::kMinus) {
        if (!parseExpr(cur, &out->expr, error))
            return false;
    }
    if (!cur->accept(TokKind::kRBracket)) {
        *error = "expected ']' in memory operand";
        return false;
    }
    return true;
}

bool
parseOperand(Cursor *cur, Operand *out, std::string *error)
{
    *out = Operand{};
    const Token &tok = cur->peek();
    if (tok.kind == TokKind::kLBracket) {
        cur->next();
        return parseMemOperand(cur, out, error);
    }
    if (tok.kind == TokKind::kPercent) {
        if (tok.text == "y") {
            out->kind = Operand::Kind::kSpecialY;
            cur->next();
            return true;
        }
        if (tok.text == "hi" || tok.text == "lo") {
            out->kind = Operand::Kind::kImm;
            return parseExpr(cur, &out->expr, error);
        }
        unsigned reg;
        if (!parseRegName("%" + tok.text, &reg)) {
            *error = "bad register '%" + tok.text + "'";
            return false;
        }
        cur->next();
        // "%r + imm" / "%r + %r" without brackets (jmpl-style address):
        // fold into a kMem operand.
        if (cur->peek().kind == TokKind::kPlus) {
            cur->next();
            out->kind = Operand::Kind::kMem;
            out->reg = reg;
            if (cur->peek().kind == TokKind::kPercent) {
                unsigned index;
                if (!parseRegName("%" + cur->peek().text, &index)) {
                    *error = "bad index register";
                    return false;
                }
                cur->next();
                out->mem_has_index_reg = true;
                out->index_reg = index;
                return true;
            }
            return parseExpr(cur, &out->expr, error);
        }
        out->kind = Operand::Kind::kReg;
        out->reg = reg;
        return true;
    }
    out->kind = Operand::Kind::kImm;
    return parseExpr(cur, &out->expr, error);
}

}  // namespace

bool
parseLine(const std::vector<Token> &tokens, ParsedLine *out,
          std::string *error)
{
    *out = ParsedLine{};
    Cursor cur(tokens);

    // Leading labels: ident ':' (possibly several).
    while (cur.peek().kind == TokKind::kIdent) {
        // Look ahead one token for ':'.
        const size_t save = cur.pos();
        const std::string name = cur.peek().text;
        cur.next();
        if (cur.accept(TokKind::kColon)) {
            out->labels.push_back(name);
            continue;
        }
        cur.setPos(save);
        break;
    }

    if (cur.atEnd())
        return true;  // blank / label-only line

    if (cur.peek().kind != TokKind::kIdent) {
        *error = "expected mnemonic or directive";
        return false;
    }
    out->mnemonic = cur.peek().text;
    cur.next();

    // Branch annul suffix: "ba,a target".
    if (cur.peek().kind == TokKind::kComma) {
        const size_t save = cur.pos();
        cur.next();
        if (cur.peek().kind == TokKind::kIdent && cur.peek().text == "a") {
            cur.next();
            out->annul = true;
        } else {
            cur.setPos(save);
        }
    }

    // Operand list.
    bool first = true;
    while (!cur.atEnd()) {
        if (!first && !cur.accept(TokKind::kComma)) {
            *error = "expected ',' between operands";
            return false;
        }
        if (cur.peek().kind == TokKind::kString) {
            out->string_args.push_back(cur.peek().text);
            cur.next();
        } else {
            Operand op;
            if (!parseOperand(&cur, &op, error))
                return false;
            out->operands.push_back(std::move(op));
        }
        first = false;
    }
    return true;
}

}  // namespace flexcore
