// The observability layer's JSON, both ways, without a third-party library.
//
// JsonWriter builds one value into a std::string; nesting is the caller's
// responsibility (begin/end pairs). Doubles are printed with %.17g so that a
// value round-trips exactly and, more importantly, so that two identical runs
// produce byte-identical output — the determinism tests compare trace files
// bytewise.
//
// parse_json() is the one reader of those documents: `hydra report` (trace,
// metrics, --merge, --format chrome), `hydra perf` and `hydra top`. It is
// strict: a torn line, trailing bytes, a bad escape or nesting deeper than a
// fixed limit is rejected as a whole, never read in part.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/log.hpp"

namespace hydra::obs {

class JsonWriter {
 public:
  void begin_object() {
    comma();
    out_.push_back('{');
    fresh_ = true;
  }
  void end_object() {
    out_.push_back('}');
    fresh_ = false;
  }
  void begin_array() {
    comma();
    out_.push_back('[');
    fresh_ = true;
  }
  void end_array() {
    out_.push_back(']');
    fresh_ = false;
  }

  /// Emits `"name":` — must be followed by exactly one value.
  void key(std::string_view name) {
    comma();
    string_raw(name);
    out_.push_back(':');
    fresh_ = true;  // the upcoming value must not be preceded by a comma
  }

  void value(std::string_view s) {
    comma();
    string_raw(s);
    fresh_ = false;
  }
  void value(const char* s) { value(std::string_view{s}); }
  void value(bool b) {
    comma();
    out_ += b ? "true" : "false";
    fresh_ = false;
  }
  void value(double d) {
    comma();
    if (!std::isfinite(d)) {
      out_ += "null";  // JSON has no NaN or infinity
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", d);
      out_ += buf;
    }
    fresh_ = false;
  }
  void value(std::uint64_t v) {
    comma();
    out_ += std::to_string(v);
    fresh_ = false;
  }
  void value(std::int64_t v) {
    comma();
    out_ += std::to_string(v);
    fresh_ = false;
  }
  void value(std::uint32_t v) { value(std::uint64_t{v}); }
  void value(int v) { value(std::int64_t{v}); }

  template <typename T>
  void kv(std::string_view name, T v) {
    key(name);
    value(v);
  }

  /// Splices an already-serialized JSON value (e.g. a Registry snapshot).
  void raw(std::string_view json) {
    comma();
    out_ += json;
    fresh_ = false;
  }

  [[nodiscard]] const std::string& str() const noexcept { return out_; }
  [[nodiscard]] std::string take() noexcept { return std::move(out_); }

 private:
  void comma() {
    if (!fresh_ && !out_.empty()) out_.push_back(',');
  }

  void string_raw(std::string_view s) {
    out_.push_back('"');
    for (const char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\r': out_ += "\\r"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out_ += buf;
          } else {
            out_.push_back(c);
          }
      }
    }
    out_.push_back('"');
  }

  std::string out_;
  bool fresh_ = true;
};

/// Replaces the file at `path` with `doc` and a trailing newline: the one
/// way hydra stores a document. Every write is checked, because a document
/// that silently truncates (disk full, quota) is worse than none — tooling
/// would trust a partial table. On failure logs "<what>: ..." and returns
/// false.
inline bool write_document(const std::string& path, std::string_view doc,
                           const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    HYDRA_LOG_ERROR("%s: cannot open %s for writing", what, path.c_str());
    return false;
  }
  bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  ok = std::fputc('\n', f) != EOF && ok;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) HYDRA_LOG_ERROR("%s: short write to %s", what, path.c_str());
  return ok;
}

/// One value read back by parse_json(). Objects keep their members in
/// document order, and numbers keep their source text, so u64 send ids, fnv
/// hashes and %.17g doubles convert exactly.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  /// A string's decoded text, a number's source text, or the literal `true`,
  /// `false` or `null`; empty for arrays, objects and absent members.
  [[nodiscard]] const std::string& text() const noexcept { return text_; }
  [[nodiscard]] const std::vector<JsonValue>& items() const noexcept { return items_; }
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members()
      const noexcept {
    return members_;
  }
  /// The first member named `key`, or an empty kNull value when there is none.
  [[nodiscard]] const JsonValue& operator[](std::string_view key) const noexcept {
    static const JsonValue kAbsent;
    for (const auto& [name, value] : members_) {
      if (name == key) return value;
    }
    return kAbsent;
  }

  /// A number whose whole source text converts to the type; nullopt otherwise.
  [[nodiscard]] std::optional<std::uint64_t> as_u64() const { return as<std::uint64_t>(); }
  [[nodiscard]] std::optional<std::int64_t> as_i64() const { return as<std::int64_t>(); }
  [[nodiscard]] std::optional<double> as_double() const { return as<double>(); }
  /// An array's elements: as doubles, NaN where one is not a number (the
  /// writer turns every non-finite double into null); as u64s, 0 where one
  /// does not convert.
  [[nodiscard]] std::vector<double> reals() const {
    std::vector<double> out;
    for (const auto& item : items_) out.push_back(item.as_double().value_or(NAN));
    return out;
  }
  [[nodiscard]] std::vector<std::uint64_t> u64s() const {
    std::vector<std::uint64_t> out;
    for (const auto& item : items_) out.push_back(item.as_u64().value_or(0));
    return out;
  }

  // Shorthands for the flat objects hydra writes: the member's text or
  // number, "" or 0 when it is absent or does not convert.
  [[nodiscard]] const std::string& str(std::string_view key) const noexcept {
    return (*this)[key].text();
  }
  [[nodiscard]] std::int64_t i64(std::string_view key) const {
    return (*this)[key].as_i64().value_or(0);
  }
  [[nodiscard]] std::uint64_t u64(std::string_view key) const {
    return (*this)[key].as_u64().value_or(0);
  }
  [[nodiscard]] double real(std::string_view key) const {
    return (*this)[key].as_double().value_or(0.0);
  }

 private:
  friend class JsonParser;

  template <typename T>
  std::optional<T> as() const {
    if (kind_ != Kind::kNumber) return std::nullopt;
    T out{};
    const char* end = text_.data() + text_.size();
    const auto [at, ec] = std::from_chars(text_.data(), end, out);
    if (ec != std::errc{} || at != end) return std::nullopt;
    return out;
  }

  Kind kind_ = Kind::kNull;
  std::string text_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Recursive descent over one document; only parse_json() can run it.
class JsonParser {
  friend std::optional<JsonValue> parse_json(std::string_view doc);

  /// Deeper than any document hydra writes (a metrics histogram sits four
  /// levels down) and shallow enough that the recursion cannot exhaust the
  /// stack, whatever the input.
  static constexpr int kMaxDepth = 64;

  explicit JsonParser(std::string_view doc) : doc_(doc) {}

  std::optional<JsonValue> document() {
    JsonValue v;
    if (!value(v, 0)) return std::nullopt;
    skip_ws();
    if (pos_ != doc_.size()) return std::nullopt;
    return v;
  }

  bool value(JsonValue& out, int depth) {
    skip_ws();
    switch (pos_ < doc_.size() ? doc_[pos_] : '\0') {
      case '{': return container(out, depth + 1, JsonValue::Kind::kObject, '}');
      case '[': return container(out, depth + 1, JsonValue::Kind::kArray, ']');
      case '"': out.kind_ = JsonValue::Kind::kString; return string(out.text_);
      case 't': return literal(out, "true", JsonValue::Kind::kBool);
      case 'f': return literal(out, "false", JsonValue::Kind::kBool);
      case 'n': return literal(out, "null", JsonValue::Kind::kNull);
      default: return number(out);
    }
  }

  /// An object's members or an array's items, up to `close`.
  bool container(JsonValue& out, int depth, JsonValue::Kind kind, char close) {
    if (depth > kMaxDepth) return false;
    out.kind_ = kind;
    ++pos_;
    skip_ws();
    if (eat(close)) return true;
    do {
      JsonValue* slot = nullptr;
      if (kind == JsonValue::Kind::kArray) {
        slot = &out.items_.emplace_back();
      } else {
        std::string key;
        skip_ws();
        if (!string(key)) return false;
        skip_ws();
        if (!eat(':')) return false;
        slot = &out.members_.emplace_back(std::move(key), JsonValue{}).second;
      }
      if (!value(*slot, depth)) return false;
      skip_ws();
    } while (eat(','));
    return eat(close);
  }

  bool string(std::string& out) {
    static constexpr std::string_view kEscaped = "\"\\/bfnrt";
    static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
    if (!eat('"')) return false;
    while (pos_ < doc_.size()) {
      const char c = doc_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char escape = pos_ < doc_.size() ? doc_[pos_++] : '\0';
      if (const auto i = kEscaped.find(escape); i != std::string_view::npos) {
        out.push_back(kDecoded[i]);
      } else if (escape != 'u' || !code_point(out)) {
        return false;
      }
    }
    return false;  // unterminated
  }

  /// The rest of a \uXXXX escape (a surrogate pair takes two), as UTF-8.
  bool code_point(std::string& out) {
    std::uint32_t cp = 0;
    std::uint32_t low = 0;
    if (!hex4(cp) || (cp >= 0xDC00 && cp <= 0xDFFF)) return false;
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (!eat('\\') || !eat('u') || !hex4(low) || low < 0xDC00 || low > 0xDFFF) return false;
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    }
    // A lead byte 0xxxxxxx, 110xxxxx, 1110xxxx or 11110xxx, then 10xxxxxx each.
    const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    const std::uint32_t lead = tail == 0 ? 0 : 0xFF00 >> (tail + 1);
    out.push_back(static_cast<char>(lead | (cp >> (6 * tail))));
    for (int i = tail - 1; i >= 0; --i) {
      out.push_back(static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F)));
    }
    return true;
  }

  bool hex4(std::uint32_t& out) {
    if (doc_.size() - pos_ < 4) return false;
    const char* first = doc_.data() + pos_;
    pos_ += 4;
    const auto [end, ec] = std::from_chars(first, first + 4, out, 16);
    return ec == std::errc{} && end == first + 4;
  }

  /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, kept as its source text.
  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    eat('-');
    if (!eat('0') && !digits()) return false;
    if (eat('.') && !digits()) return false;
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (!digits()) return false;
    }
    out.kind_ = JsonValue::Kind::kNumber;
    out.text_ = doc_.substr(start, pos_ - start);
    return true;
  }

  bool digits() {
    const std::size_t start = pos_;
    pos_ = std::min(doc_.find_first_not_of("0123456789", pos_), doc_.size());
    return pos_ > start;
  }

  bool literal(JsonValue& out, std::string_view word, JsonValue::Kind kind) {
    if (doc_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    out.kind_ = kind;
    out.text_ = word;
    return true;
  }

  void skip_ws() { pos_ = std::min(doc_.find_first_not_of(" \t\n\r", pos_), doc_.size()); }

  bool eat(char c) {
    if (pos_ == doc_.size() || doc_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  std::string_view doc_;
  std::size_t pos_ = 0;
};

/// Parses exactly one JSON value (RFC 8259), optionally surrounded by
/// whitespace. nullopt on anything else: a torn line, trailing bytes, a bad
/// escape, a raw control character in a string, or nesting deeper than 64.
[[nodiscard]] inline std::optional<JsonValue> parse_json(std::string_view doc) {
  return JsonParser(doc).document();
}

}  // namespace hydra::obs
