// The repo's one JSON reader and its writing helpers. Every JSON surface —
// the serve wire protocol, the WAL and its snapshots, the sweep checkpoint
// journal, and the tests that read back the obs exports — goes through
// this file, so there is one parser to harden.
//
// Reading: a recursive-descent parser for real JSON — objects, arrays,
// strings, doubles, bools, null; strict escapes (including \uXXXX
// surrogate pairs), full-token numbers via from_chars, no trailing
// garbage. Nesting is capped at kMaxJsonDepth, so a hostile line cannot
// exhaust the stack. Malformed input throws ParseError with
// source/line/column, matching the rest of the repo's line-oriented
// readers.
//
// Writing stays string-based: json_escape / json_quote for strings and
// exact_number for doubles that must re-read bit-identically.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace tvnep {

/// Deepest array/object nesting parse_json accepts. The deepest record
/// the repo writes (a WAL decision: record → commit → req → links →
/// [from,to,demand]) nests five levels; Chrome trace exports nest three.
inline constexpr int kMaxJsonDepth = 64;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<JsonValue>& as_array() const { return array_; }
  const std::map<std::string, JsonValue>& as_object() const { return object_; }

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const;

  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double x);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(std::map<std::string, JsonValue> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses exactly one JSON value from `text` (the whole string must be
/// consumed apart from surrounding whitespace). `source` and `line` seed
/// the ParseError location; columns are 1-based offsets into `text`.
JsonValue parse_json(const std::string& text, const std::string& source,
                     long line = 1);

/// The `limit` of require_index that admits every nonnegative int: for an
/// id whose range the decoder cannot know (a substrate node id before the
/// substrate is known, a seed).
inline constexpr long long kAnyIntIndex =
    static_cast<long long>(std::numeric_limits<int>::max()) + 1;

/// `value` as an index in [0, limit), limit <= kAnyIntIndex; anything
/// else — not a number, a fraction, negative, too large — throws a
/// ParseError at source:line naming `what`. The double is range-checked
/// before the int cast: casting 1e20, infinity or NaN is undefined
/// behaviour.
int require_index(const JsonValue& value, const std::string& what,
                  long long limit, const std::string& source, long line);

/// `value` as a sequence number or counter: a whole number below 2^64,
/// range-checked before the cast for the same reason as require_index.
std::uint64_t require_uint(const JsonValue& value, const std::string& what,
                           const std::string& source, long line);

// Located member accessors for the decoders of untrusted records (the
// serve protocol, the WAL and its snapshots, the sweep checkpoint). A
// missing key or a member of the wrong type throws a ParseError at
// source:line naming the key; `value` that is no object has no members.

const JsonValue& member(const JsonValue& value, const char* key,
                        const std::string& source, long line);
double number_member(const JsonValue& value, const char* key,
                     const std::string& source, long line);
/// require_uint on the member.
std::uint64_t uint_member(const JsonValue& value, const char* key,
                          const std::string& source, long line);
const std::string& string_member(const JsonValue& value, const char* key,
                                 const std::string& source, long line);
bool bool_member(const JsonValue& value, const char* key,
                 const std::string& source, long line);
const std::vector<JsonValue>& array_member(const JsonValue& value,
                                           const char* key,
                                           const std::string& source,
                                           long line);
const std::map<std::string, JsonValue>& object_member(
    const JsonValue& value, const char* key, const std::string& source,
    long line);

/// Escapes a string for embedding between JSON quotes.
std::string json_escape(const std::string& value);

/// `value` escaped and wrapped in double quotes.
std::string json_quote(const std::string& value);

/// %.17g: re-reads to the identical double, so recovered schedules, flows
/// and sweep rows compare byte-exact against the run that wrote them.
/// Finite values only — callers map inf/nan to something JSON can carry.
std::string exact_number(double value);

}  // namespace tvnep
