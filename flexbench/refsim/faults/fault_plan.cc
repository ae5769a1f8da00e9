#include "faults/fault_plan.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "isa/registers.h"

namespace flexcore {

std::string_view
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::kRegFlip: return "reg";
      case FaultKind::kShadowRegFlip: return "shadow";
      case FaultKind::kMemFlip: return "mem";
      case FaultKind::kMetaFlip: return "meta";
      case FaultKind::kFfifoFlip: return "ffifo";
      case FaultKind::kSbFlip: return "sb";
    }
    return "?";
}

std::string_view
packetFieldName(PacketField field)
{
    switch (field) {
      case PacketField::kRes: return "res";
      case PacketField::kSrcv1: return "srcv1";
      case PacketField::kSrcv2: return "srcv2";
      case PacketField::kAddr: return "addr";
      case PacketField::kDest: return "dest";
    }
    return "?";
}

bool
parseFaultKind(std::string_view name, FaultKind *out)
{
    static constexpr FaultKind kAll[] = {
        FaultKind::kRegFlip,   FaultKind::kShadowRegFlip,
        FaultKind::kMemFlip,   FaultKind::kMetaFlip,
        FaultKind::kFfifoFlip, FaultKind::kSbFlip,
    };
    for (FaultKind kind : kAll) {
        if (name == faultKindName(kind)) {
            *out = kind;
            return true;
        }
    }
    return false;
}

bool
parsePacketField(std::string_view name, PacketField *out)
{
    static constexpr PacketField kAll[] = {
        PacketField::kRes, PacketField::kSrcv1, PacketField::kSrcv2,
        PacketField::kAddr, PacketField::kDest,
    };
    for (PacketField field : kAll) {
        if (name == packetFieldName(field)) {
            *out = field;
            return true;
        }
    }
    return false;
}

std::string
formatFaultSpec(const FaultSpec &spec)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s@%c%llu:t%u:b%u",
                  std::string(faultKindName(spec.kind)).c_str(),
                  spec.trigger == FaultTrigger::kCycle ? 'c' : 'i',
                  static_cast<unsigned long long>(spec.when),
                  spec.target, spec.bit);
    std::string out = buf;
    if (spec.kind == FaultKind::kFfifoFlip) {
        out += ":f";
        out += packetFieldName(spec.field);
    }
    if (spec.core != 0) {
        out += ":c";
        out += std::to_string(spec.core);
    }
    return out;
}

namespace {

bool
parseU64(std::string_view text, u64 *out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const std::string copy(text);
    const unsigned long long value = std::strtoull(copy.c_str(), &end, 0);
    if (end != copy.c_str() + copy.size())
        return false;
    *out = value;
    return true;
}

bool
fail(std::string *error, std::string message)
{
    if (error)
        *error = std::move(message);
    return false;
}

}  // namespace

bool
parseFaultSpec(std::string_view text, FaultSpec *out, std::string *error)
{
    const size_t at = text.find('@');
    if (at == std::string_view::npos) {
        return fail(error, "fault spec '" + std::string(text) +
                               "' has no '@' (expected "
                               "KIND@{c|i}N:tT:bB[:fFIELD])");
    }
    FaultSpec spec;
    if (!parseFaultKind(text.substr(0, at), &spec.kind)) {
        return fail(error, "unknown fault kind '" +
                               std::string(text.substr(0, at)) +
                               "' (reg|shadow|mem|meta|ffifo|sb)");
    }

    // Split the remainder on ':' into trigger, then tagged fields.
    std::string_view rest = text.substr(at + 1);
    bool have_trigger = false, have_target = false, have_bit = false;
    while (!rest.empty()) {
        const size_t colon = rest.find(':');
        const std::string_view part = rest.substr(0, colon);
        rest = colon == std::string_view::npos ? std::string_view{}
                                               : rest.substr(colon + 1);
        if (part.empty())
            return fail(error, "empty field in fault spec '" +
                                   std::string(text) + "'");
        const char tag = part[0];
        const std::string_view value = part.substr(1);
        u64 number = 0;
        switch (tag) {
          case 'c':
            // The first cN is the cycle trigger; a second one (after
            // the trigger is known) selects the target core.
            if (have_trigger) {
                if (!parseU64(value, &number) || number > ~u32{0}) {
                    return fail(error, "bad core '" + std::string(part) +
                                           "' in '" + std::string(text) +
                                           "'");
                }
                spec.core = static_cast<u32>(number);
                break;
            }
            [[fallthrough]];
          case 'i':
            if (have_trigger || !parseU64(value, &number)) {
                return fail(error, "bad trigger '" + std::string(part) +
                                       "' in '" + std::string(text) + "'");
            }
            spec.trigger = tag == 'c' ? FaultTrigger::kCycle
                                      : FaultTrigger::kCommit;
            spec.when = number;
            have_trigger = true;
            break;
          case 't':
            if (have_target || !parseU64(value, &number) ||
                number > ~u32{0}) {
                return fail(error, "bad target '" + std::string(part) +
                                       "' in '" + std::string(text) + "'");
            }
            spec.target = static_cast<u32>(number);
            have_target = true;
            break;
          case 'b':
            if (have_bit || !parseU64(value, &number) || number > 31) {
                return fail(error, "bad bit '" + std::string(part) +
                                       "' in '" + std::string(text) + "'");
            }
            spec.bit = static_cast<u32>(number);
            have_bit = true;
            break;
          case 'f':
            if (spec.kind != FaultKind::kFfifoFlip ||
                !parsePacketField(value, &spec.field)) {
                return fail(error, "bad field '" + std::string(part) +
                                       "' in '" + std::string(text) +
                                       "' (ffifo only; "
                                       "res|srcv1|srcv2|addr|dest)");
            }
            break;
          default:
            return fail(error, "unknown tag '" + std::string(part) +
                                   "' in '" + std::string(text) + "'");
        }
    }
    if (!have_trigger) {
        return fail(error, "fault spec '" + std::string(text) +
                               "' has no trigger (cN or iN)");
    }
    *out = spec;
    return true;
}

std::string
FaultPlan::format() const
{
    std::string out;
    for (size_t i = 0; i < specs.size(); ++i) {
        if (i > 0)
            out += ',';
        out += formatFaultSpec(specs[i]);
    }
    return out;
}

namespace {

/**
 * Minimal JSON scanner for the plan schema. Not a general parser: it
 * accepts exactly one object with a "faults" array of flat objects
 * whose values are strings or unsigned integers.
 */
class PlanJsonParser
{
  public:
    PlanJsonParser(std::string_view text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool
    parse(FaultPlan *out)
    {
        skipWs();
        if (!expect('{'))
            return false;
        std::string key;
        if (!parseString(&key) || key != "faults")
            return fail("expected a single \"faults\" key");
        skipWs();
        if (!expect(':'))
            return false;
        skipWs();
        if (!expect('['))
            return false;
        skipWs();
        if (peek() != ']') {
            do {
                FaultSpec spec;
                if (!parseSpecObject(&spec))
                    return false;
                out->specs.push_back(spec);
                skipWs();
            } while (consumeIf(','));
        }
        if (!expect(']'))
            return false;
        skipWs();
        if (!expect('}'))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after the plan object");
        return true;
    }

  private:
    bool
    fail(std::string message)
    {
        if (error_)
            *error_ = "fault plan JSON: " + std::move(message);
        return false;
    }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    consumeIf(char c)
    {
        skipWs();
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    bool
    expect(char c)
    {
        if (consumeIf(c))
            return true;
        return fail(std::string("expected '") + c + "' at offset " +
                    std::to_string(pos_));
    }

    bool
    parseString(std::string *out)
    {
        skipWs();
        if (peek() != '"')
            return fail("expected a string at offset " +
                        std::to_string(pos_));
        ++pos_;
        out->clear();
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\')
                return fail("escapes are not supported in plan strings");
            *out += text_[pos_++];
        }
        if (pos_ >= text_.size())
            return fail("unterminated string");
        ++pos_;
        return true;
    }

    bool
    parseNumber(u64 *out)
    {
        skipWs();
        const size_t start = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        if (pos_ == start)
            return fail("expected an unsigned integer at offset " +
                        std::to_string(start));
        return parseU64(text_.substr(start, pos_ - start), out) ||
               fail("bad number");
    }

    bool
    parseSpecObject(FaultSpec *spec)
    {
        skipWs();
        if (!expect('{'))
            return false;
        skipWs();
        if (peek() != '}') {
            do {
                std::string key;
                if (!parseString(&key))
                    return false;
                skipWs();
                if (!expect(':'))
                    return false;
                if (key == "kind") {
                    std::string value;
                    if (!parseString(&value) ||
                        !parseFaultKind(value, &spec->kind))
                        return fail("bad \"kind\"");
                } else if (key == "trigger") {
                    std::string value;
                    if (!parseString(&value))
                        return false;
                    if (value == "cycle")
                        spec->trigger = FaultTrigger::kCycle;
                    else if (value == "commit")
                        spec->trigger = FaultTrigger::kCommit;
                    else
                        return fail("bad \"trigger\" (cycle|commit)");
                } else if (key == "field") {
                    std::string value;
                    if (!parseString(&value) ||
                        !parsePacketField(value, &spec->field))
                        return fail("bad \"field\"");
                } else if (key == "when") {
                    if (!parseNumber(&spec->when))
                        return false;
                } else if (key == "target") {
                    u64 value = 0;
                    if (!parseNumber(&value) || value > ~u32{0})
                        return fail("bad \"target\"");
                    spec->target = static_cast<u32>(value);
                } else if (key == "bit") {
                    u64 value = 0;
                    if (!parseNumber(&value) || value > 31)
                        return fail("bad \"bit\"");
                    spec->bit = static_cast<u32>(value);
                } else if (key == "core") {
                    u64 value = 0;
                    if (!parseNumber(&value) || value > ~u32{0})
                        return fail("bad \"core\"");
                    spec->core = static_cast<u32>(value);
                } else {
                    return fail("unknown key \"" + key + "\"");
                }
                skipWs();
            } while (consumeIf(','));
        }
        return expect('}');
    }

    std::string_view text_;
    std::string *error_;
    size_t pos_ = 0;
};

}  // namespace

bool
parseFaultPlan(std::string_view text, FaultPlan *out, std::string *error)
{
    FaultPlan plan;
    // Autodetect: a JSON document starts with '{'.
    size_t first = 0;
    while (first < text.size() &&
           std::isspace(static_cast<unsigned char>(text[first])))
        ++first;
    if (first < text.size() && text[first] == '{') {
        if (!PlanJsonParser(text, error).parse(&plan))
            return false;
        *out = std::move(plan);
        return true;
    }

    // Compact syntax: specs separated by newlines or commas, with '#'
    // comments running to end of line.
    std::string current;
    const auto flush = [&]() -> bool {
        // Trim surrounding whitespace.
        size_t b = 0, e = current.size();
        while (b < e && std::isspace(static_cast<unsigned char>(
                            current[b])))
            ++b;
        while (e > b && std::isspace(static_cast<unsigned char>(
                            current[e - 1])))
            --e;
        if (b == e)
            return true;
        FaultSpec spec;
        if (!parseFaultSpec(current.substr(b, e - b), &spec, error))
            return false;
        plan.specs.push_back(spec);
        return true;
    };
    bool in_comment = false;
    for (char c : text) {
        if (c == '\n') {
            in_comment = false;
            if (!flush())
                return false;
            current.clear();
        } else if (in_comment) {
            // skip
        } else if (c == '#') {
            in_comment = true;
        } else if (c == ',') {
            if (!flush())
                return false;
            current.clear();
        } else {
            current += c;
        }
    }
    if (!flush())
        return false;
    *out = std::move(plan);
    return true;
}

std::string
faultSpecJson(const FaultSpec &spec)
{
    char buf[160];
    std::snprintf(
        buf, sizeof(buf),
        "{\"kind\": \"%s\", \"trigger\": \"%s\", \"when\": %llu, "
        "\"target\": %u, \"bit\": %u",
        std::string(faultKindName(spec.kind)).c_str(),
        spec.trigger == FaultTrigger::kCycle ? "cycle" : "commit",
        static_cast<unsigned long long>(spec.when), spec.target,
        spec.bit);
    std::string out = buf;
    if (spec.kind == FaultKind::kFfifoFlip) {
        out += ", \"field\": \"";
        out += packetFieldName(spec.field);
        out += "\"";
    }
    if (spec.core != 0) {
        out += ", \"core\": ";
        out += std::to_string(spec.core);
    }
    out += "}";
    return out;
}

std::string
faultPlanJson(const FaultPlan &plan)
{
    std::string out = "{\"faults\": [";
    for (size_t i = 0; i < plan.specs.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += faultSpecJson(plan.specs[i]);
    }
    out += "]}";
    return out;
}

std::string
validateFaultPlan(const FaultPlan &plan)
{
    for (const FaultSpec &spec : plan.specs) {
        const std::string where =
            "fault '" + formatFaultSpec(spec) + "': ";
        if (spec.when == 0)
            return where + "trigger point must be >= 1";
        u32 max_bit = 31;
        switch (spec.kind) {
          case FaultKind::kRegFlip:
            if (spec.target == 0 || spec.target >= kNumPhysRegs) {
                return where + "register target must be in [1, " +
                       std::to_string(kNumPhysRegs - 1) + "]";
            }
            break;
          case FaultKind::kShadowRegFlip:
            if (spec.target == 0 || spec.target >= kNumPhysRegs) {
                return where + "register target must be in [1, " +
                       std::to_string(kNumPhysRegs - 1) + "]";
            }
            max_bit = 7;
            break;
          case FaultKind::kMemFlip:
            max_bit = 7;
            break;
          case FaultKind::kMetaFlip:
            if (spec.target & 3)
                return where + "meta target must be a word address";
            max_bit = 7;
            break;
          case FaultKind::kFfifoFlip:
          case FaultKind::kSbFlip:
            break;
        }
        if (spec.bit > max_bit) {
            return where + "bit must be <= " + std::to_string(max_bit) +
                   " for this kind";
        }
    }
    return {};
}

}  // namespace flexcore
