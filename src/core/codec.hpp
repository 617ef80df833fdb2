// Field-list JSON codec (DESIGN.md §2.10). Every serialized record names
// its fields once, in wire order, in a `visit_fields(visitor, record)`
// overload (`v("key", record.member)` per field, found by ADL in
// linkpad::core). One list drives every visitor: the JsonWriter below, and
// the strict shard reader and PopulationShard::same_campaign in
// core/shard_io.cpp, so a new field costs one line and no writer and reader
// can disagree. Visitors are templates: no std::function, virtual call or
// map lookup runs per field. This is also the one home of the value rules
// every linkpad JSON document shares: a double crosses as the 16-hex-digit
// IEEE-754 bit pattern of its value (never printf'd decimal), and a string
// escapes only `"`, `\`, newline, tab and carriage return.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "classify/evaluation.hpp"

namespace linkpad::core {

// ------------------------------------------------------------ value rules

/// Append the 16 lowercase hex digits of `x`'s bit pattern. Total order on
/// the bits, not the value: NaN payloads, signed zeros and ±inf survive.
inline void append_hex_bits(std::string& out, double x) {
  static constexpr char kDigits[] = "0123456789abcdef";
  auto bits = std::bit_cast<std::uint64_t>(x);
  const std::size_t at = out.size();
  out.resize(at + 16);
  for (std::size_t i = 16; i-- > 0; bits >>= 4) out[at + i] = kDigits[bits & 0xF];
}

/// The bit pattern of `x` as 16 hex digits ("3fe0000000000000").
inline std::string encode_double(double x) {
  std::string out;
  append_hex_bits(out, x);
  return out;
}

/// Inverse of encode_double. Throws std::invalid_argument (message starting
/// "shard_io:") on anything but exactly 16 lowercase hex digits.
inline double decode_double(std::string_view hex) {
  std::uint64_t bits = 0;
  bool ok = hex.size() == 16;
  for (const char c : hex) {
    const bool digit = c >= '0' && c <= '9';
    ok = ok && (digit || (c >= 'a' && c <= 'f'));
    bits = bits << 4 | static_cast<std::uint64_t>(digit ? c - '0' : c - 'a' + 10);
  }
  if (!ok) {
    throw std::invalid_argument("shard_io: hex double must be 16 lowercase hex digits, got \"" +
                                std::string(hex) + "\"");
  }
  return std::bit_cast<double>(bits);
}

inline void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out.push_back(c); break;
    }
  }
  out.push_back('"');
}

// ------------------------------------------------------------ field lists

/// `R` is `T` or `const T`: one list serves reading and writing.
template <class R, class T>
concept RecordOf = std::same_as<std::remove_const_t<R>, T>;

/// The wire form of a classify::ConfusionMatrix: row-major
/// [truth][predicted] counts of a classes × classes matrix.
struct ConfusionFields {
  std::uint64_t classes = 0;
  std::vector<std::uint64_t> counts;
};

template <class V, RecordOf<ConfusionFields> R>
void visit_fields(V& v, R& c) {
  v("classes", c.classes);
  v("counts", c.counts);
}

class JsonWriter;

/// Types with a field list.
template <class T>
concept Record = requires(JsonWriter& writer, T& r) { visit_fields(writer, r); };

// ------------------------------------------------------------------ writer

/// JSON of any field list: enums as integers, optionals as the value or
/// null, tuples as fixed-length arrays. kCompact is one line with no
/// whitespace and doubles as quoted hex bits. kPretty puts each top-level
/// member, and each record of an array of records, on its own line, ", "
/// and ": " inside records, and each double as {"bits": hex, "value": a
/// %.17g echo of the same bits}.
class JsonWriter {
 public:
  enum class Layout { kCompact, kPretty };

  explicit JsonWriter(std::string& out, Layout layout = Layout::kCompact)
      : out_(out), pretty_(layout == Layout::kPretty) {}

  /// One `"key":value` member of the enclosing object.
  template <class T>
  void operator()(std::string_view key, const T& value) {
    if (!first_) out_ += !pretty_ ? "," : depth_ == 1 ? ",\n  " : ", ";
    first_ = false;
    out_.push_back('"');
    out_ += key;
    out_ += pretty_ ? "\": " : "\":";
    put(value);
  }

  /// An object whose members `members()` writes through operator().
  template <class F>
  void object(F&& members) {
    const bool outer = std::exchange(first_, true);
    const bool top = pretty_ && depth_ == 0;
    out_ += top ? "{\n  " : "{";
    ++depth_;
    members();
    --depth_;
    out_ += top ? "\n}\n" : "}";
    first_ = outer;
  }

  void put(bool b) { out_ += b ? "true" : "false"; }
  void put(std::uint64_t n) { out_ += std::to_string(n); }
  void put(const std::string& s) { append_json_string(out_, s); }

  void put(double x) {
    if (pretty_) out_ += "{\"bits\":";
    out_.push_back('"');
    append_hex_bits(out_, x);
    out_.push_back('"');
    if (!pretty_) return;
    char echo[40];
    std::snprintf(echo, sizeof echo, "%.17g", x);
    out_ += ",\"value\":";
    append_json_string(out_, echo);
    out_.push_back('}');
  }

  template <class E>
    requires std::is_enum_v<E>
  void put(E e) {
    put(static_cast<std::uint64_t>(e));
  }

  template <class T>
  void put(const std::optional<T>& x) {
    if (x.has_value()) return put(*x);
    out_ += "null";
  }

  template <class T>
  void put(const std::vector<T>& items) {
    const bool rows = pretty_ && Record<T>;
    out_.push_back('[');
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (rows || i != 0) out_ += !rows ? "," : i == 0 ? "\n    " : ",\n    ";
      put(items[i]);
    }
    out_ += rows && !items.empty() ? "\n  ]" : "]";
  }

  template <class T0, class... T>
  void put(const std::tuple<T0&, T&...>& items) {
    std::apply([this](const auto& first, const auto&... rest) {
      out_.push_back('[');
      put(first);
      ((out_ += pretty_ ? ", " : ",", put(rest)), ...);
      out_.push_back(']');
    }, items);
  }

  void put(const classify::ConfusionMatrix& cm) {
    put(ConfusionFields{cm.num_classes(), cm.counts()});
  }

  template <Record R>
  void put(const R& r) {
    object([&] { visit_fields(*this, r); });
  }

 private:
  std::string& out_;
  bool pretty_;
  int depth_ = 0;  // objects open around the next member
  bool first_ = true;
};

}  // namespace linkpad::core
