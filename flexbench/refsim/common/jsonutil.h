/**
 * @file
 * Tiny canonical-JSON building blocks shared by every JSON emitter in
 * the simulator (statistics tree, campaign tables, trace events). All
 * emitters hand-render their JSON so the byte layout is fully under our
 * control: same inputs, same bytes, on every platform — the property
 * the determinism checks compare with cmp(1).
 */

#ifndef FLEXCORE_COMMON_JSONUTIL_H_
#define FLEXCORE_COMMON_JSONUTIL_H_

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace flexcore {

/** Escape a string for inclusion inside JSON double quotes. */
inline std::string
jsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * Render a double as a JSON number. %.17g round-trips every IEEE-754
 * binary64 value; non-finite values (which JSON cannot express) become
 * 0 so a division by a zero-valued counter never corrupts the output.
 */
inline std::string
jsonDouble(double value)
{
    if (!std::isfinite(value))
        value = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

}  // namespace flexcore

#endif  // FLEXCORE_COMMON_JSONUTIL_H_
