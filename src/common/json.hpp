// Generic JSON document model with a strict recursive-descent parser and a
// canonical writer — the one parser behind every JSON reader in the
// project: serve request bodies, disk run-cache artifacts and stats dumps
// (StatsDump::parse_json, which ptb-stats uses). Writers (StatsDump::to_json,
// reporting.cpp) keep their hand-rolled emitters and share escape().
//
// Strictness contract: the whole input must be one JSON value plus
// trailing whitespace, no comments, no trailing commas, objects keep
// insertion order (never hash order — parsed documents feed deterministic
// output paths). Nesting is bounded (64 levels), so hostile input cannot
// exhaust the stack. parse() never throws; a malformed document returns
// false with a position-carrying error message.
//
// Numbers keep their raw source text alongside the double value so 64-bit
// integers round-trip exactly (u64() re-parses the raw text; a double can
// only hold 53 bits).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ptb::json {

class Value {
 public:
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  double as_double() const { return num_; }
  const std::string& as_string() const { return str_; }
  /// Raw source spelling of a number ("42", "0.5", "1e-3").
  const std::string& number_raw() const { return str_; }

  /// Exact unsigned integer: true iff the raw spelling is a plain
  /// non-negative integer that fits in 64 bits.
  bool as_u64(std::uint64_t& out) const;
  /// Exact u32 (via as_u64 with a range check).
  bool as_u32(std::uint32_t& out) const;

  const std::vector<Value>& array() const { return array_; }
  /// Members in source order.
  const std::vector<std::pair<std::string, Value>>& members() const {
    return members_;
  }
  /// First member with this key; null when absent. O(n) — documents here
  /// are small (configs, artifacts), never hot-path data.
  const Value* find(std::string_view key) const;
  /// Typed member lookups: false (`out` untouched) when the key is absent
  /// or holds another kind.
  bool get_string(std::string_view key, std::string& out) const;
  bool get_number(std::string_view key, double& out) const;

  // --- construction (for writers/tests) ---
  static Value null();
  static Value boolean(bool b);
  static Value number(double v);
  static Value string(std::string s);
  static Value array_value(std::vector<Value> items);
  static Value object(std::vector<std::pair<std::string, Value>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;  // string payload, or raw number text
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> members_;

  friend class Parser;
};

/// Strict whole-input parse; on failure returns false and `err` carries
/// "offset N: reason". `out` is untouched on failure.
bool parse(std::string_view text, Value& out, std::string& err);

/// JSON string-literal escaping (quotes, backslash, control characters).
std::string escape(std::string_view s);

}  // namespace ptb::json
