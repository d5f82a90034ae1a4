#ifndef SENTINEL_OBS_JSON_H_
#define SENTINEL_OBS_JSON_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>

namespace sentinel::obs {

/// Minimal streaming JSON writer for the observability surfaces (stats,
/// trace, graph dumps). Callers are responsible for structural validity;
/// the writer only handles separators and string escaping.
class JsonWriter {
 public:
  JsonWriter& BeginObject() {
    Separate();
    out_ += '{';
    fresh_ = true;
    return *this;
  }
  JsonWriter& EndObject() {
    out_ += '}';
    fresh_ = false;
    return *this;
  }
  JsonWriter& BeginArray() {
    Separate();
    out_ += '[';
    fresh_ = true;
    return *this;
  }
  JsonWriter& EndArray() {
    out_ += ']';
    fresh_ = false;
    return *this;
  }

  JsonWriter& Key(std::string_view key) {
    Separate();
    AppendString(key);
    out_ += ':';
    fresh_ = true;  // suppress the comma before the value
    return *this;
  }

  JsonWriter& Value(std::string_view v) {
    Separate();
    AppendString(v);
    return *this;
  }
  JsonWriter& Value(const char* v) { return Value(std::string_view(v)); }
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  JsonWriter& Value(T v) {
    Separate();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Value(bool v) {
    Separate();
    out_ += v ? "true" : "false";
    return *this;
  }
  /// Non-finite values have no JSON form and render as null.
  JsonWriter& Value(double v) {
    char buf[32] = "null";
    if (std::isfinite(v)) std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(buf);
  }

  template <typename T>
  JsonWriter& Field(std::string_view key, T v) {
    Key(key);
    return Value(v);
  }

  /// Splices a pre-rendered JSON fragment as the next value.
  JsonWriter& Raw(const std::string& json) {
    Separate();
    out_ += json;
    return *this;
  }

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void Separate() {
    if (!fresh_ && !out_.empty()) out_ += ',';
    fresh_ = false;
  }

  void AppendString(std::string_view s) {
    out_ += '"';
    for (char c : s) {
      switch (c) {
        case '"':
          out_ += "\\\"";
          break;
        case '\\':
          out_ += "\\\\";
          break;
        case '\n':
          out_ += "\\n";
          break;
        case '\r':
          out_ += "\\r";
          break;
        case '\t':
          out_ += "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            static const char* hex = "0123456789abcdef";
            out_ += "\\u00";
            out_ += hex[(c >> 4) & 0xf];
            out_ += hex[c & 0xf];
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  bool fresh_ = true;
};

}  // namespace sentinel::obs

#endif  // SENTINEL_OBS_JSON_H_
