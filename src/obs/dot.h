#ifndef SENTINEL_OBS_DOT_H_
#define SENTINEL_OBS_DOT_H_

#include <string>
#include <string_view>

namespace sentinel::obs {

/// Escapes `\` and `"` so an event or rule name can sit inside a Graphviz
/// DOT double-quoted string (names are not validated and may hold either).
inline std::string DotEscape(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if (c == '\\' || c == '"') out += '\\';
    out += c;
  }
  return out;
}

/// `name` as a quoted DOT identifier.
inline std::string DotQuote(std::string_view name) {
  return "\"" + DotEscape(name) + "\"";
}

}  // namespace sentinel::obs

#endif  // SENTINEL_OBS_DOT_H_
