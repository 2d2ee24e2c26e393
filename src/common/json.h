// A minimal JSON reader for offline tooling (vcbench_cli report/trace and
// schema-checking tests). This is deliberately NOT a serialization framework:
// the simulator writes JSON by hand (runner reports, traces) and this parser
// only has to read those files back plus any well-formed JSON a user points
// the CLI at. Objects preserve key order so re-rendered tables match the
// writer's deterministic ordering.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vc::json {

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<Value> array_items;
  std::vector<std::pair<std::string, Value>> object_items;  // insertion order

  bool is_null() const { return type == Type::kNull; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;
  /// find() that throws std::runtime_error naming the missing key.
  const Value& at(const std::string& key) const;

  double as_number(double fallback = 0.0) const {
    return is_number() ? number_value : fallback;
  }
  const std::string& as_string() const { return string_value; }
};

/// Parses a complete JSON document; throws std::runtime_error with a byte
/// offset on malformed input, trailing garbage, or container nesting deeper
/// than 256 levels (the parser recurses, so depth is bounded to keep "[[[["
/// bombs from overflowing the stack). Duplicate object keys are preserved in
/// insertion order; find()/at() return the first occurrence.
Value parse(const std::string& text);

/// Renders `v` exactly as printf("%.{precision}g") would in the C locale,
/// but via std::to_chars — independent of LC_NUMERIC, so reports stay
/// byte-identical (and machine-parseable) under a de_DE-style locale that
/// would otherwise print decimal commas. Every hand-rolled JSON/CSV/trace
/// writer in the repo goes through this (or format_fixed).
std::string format_number(double v, int precision = 17);

/// The printf("%.{precision}f") equivalent, same locale independence.
std::string format_fixed(double v, int precision);

/// Appends `s` to `out` as the body of a JSON string (quotes not included):
/// `"` and `\` are backslash-escaped and every control character below 0x20
/// becomes \b, \f, \n, \r, \t or \u00XX. Every hand-rolled writer in the
/// repo escapes names and messages through this.
void append_escaped(std::string& out, std::string_view s);

}  // namespace vc::json
