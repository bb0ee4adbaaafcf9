// Minimal deterministic JSON value, parser and writer for the campaign
// layer (DESIGN.md §17).
//
// Self-contained on purpose: the container bakes no JSON dependency, and
// the campaign contract needs properties a general-purpose library would
// not promise anyway —
//
//   * objects preserve insertion order (a vector of pairs, no hashing), so
//     dumps are byte-stable and the tree stays clean of unordered
//     containers (tools/sledzig_analyzer bans them in src/);
//   * dump() is a canonical serialization: the same value always produces
//     the same bytes, which is what campaign hashes and store digests are
//     computed over;
//   * parse errors carry line:column and a message, feeding the
//     field-path error reporting in scenario_json/spec.
//
// The grammar is RFC 8259: all escapes including \uXXXX (surrogate pairs
// decode to UTF-8; a lone surrogate is a parse error with line:column).
// The writer stays canonical — non-ASCII bytes pass through raw and only
// the mandatory escapes are emitted — so existing dumps and store digests
// are byte-stable.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace sledzig::campaign {

class JsonValue;

/// Object member list: insertion-ordered, linear lookup (configs are
/// small; determinism beats asymptotics here).
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;
using JsonArray = std::vector<JsonValue>;

class JsonValue {
 public:
  enum class Type : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject,
  };

  JsonValue() : type_(Type::kNull) {}
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}                 // NOLINT
  JsonValue(double d) : type_(Type::kNumber), num_(d) {}              // NOLINT
  JsonValue(int i) : type_(Type::kNumber), num_(i) {}                 // NOLINT
  JsonValue(std::uint64_t u);                                        // NOLINT
  JsonValue(const char* s) : type_(Type::kString), str_(s) {}         // NOLINT
  JsonValue(std::string s) : type_(Type::kString), str_(std::move(s)) {} // NOLINT
  JsonValue(JsonArray a) : type_(Type::kArray), arr_(std::move(a)) {} // NOLINT
  JsonValue(JsonObject o) : type_(Type::kObject), obj_(std::move(o)) {} // NOLINT

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; calling the wrong one is a programming error the
  /// campaign layer never commits (it type-checks through JsonCursor).
  bool as_bool() const { return bool_; }
  double as_number() const { return num_; }
  const std::string& as_string() const { return str_; }
  const JsonArray& as_array() const { return arr_; }
  JsonArray& as_array() { return arr_; }
  const JsonObject& as_object() const { return obj_; }
  JsonObject& as_object() { return obj_; }

  /// Object member by key; nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const;
  JsonValue* find(const std::string& key);

  /// Sets (replacing) an object member, keeping insertion order for new
  /// keys.  Must be an object (or null, which becomes an empty object).
  void set(const std::string& key, JsonValue v);

  /// Canonical type name for error messages ("number", "object", ...).
  const char* type_name() const;

  bool operator==(const JsonValue& other) const;
  bool operator!=(const JsonValue& other) const { return !(*this == other); }

 private:
  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  JsonArray arr_;
  JsonObject obj_;
};

/// One parse failure, positioned in the input text.
struct JsonParseError {
  std::size_t line = 0;    ///< 1-based
  std::size_t column = 0;  ///< 1-based
  std::string message;

  std::string to_string() const;
};

/// Parses `text` into `out`.  Returns false and fills `error` on the first
/// syntax error.  Trailing non-whitespace after the top-level value is an
/// error (a truncated or concatenated file must never half-parse).
bool json_parse(const std::string& text, JsonValue* out,
                JsonParseError* error);

/// Canonical serialization: stable byte output for equal values.  Numbers
/// print as the shortest round-trip decimal ("%.17g" tightened when fewer
/// digits survive a round trip), objects keep insertion order, `indent`
/// is the number of spaces per level (0 = single line, the store-record
/// and digest format).
std::string json_dump(const JsonValue& value, int indent = 0);

/// FNV-1a over the canonical dump: the campaign-hash primitive.
std::uint64_t json_fnv1a(const JsonValue& value);

}  // namespace sledzig::campaign
