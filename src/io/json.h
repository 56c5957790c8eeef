#ifndef SWFOMC_IO_JSON_H_
#define SWFOMC_IO_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "io/diagnostics.h"

namespace swfomc::io {

/// A small JSON document model: enough for the golden corpus, the
/// benchmark reports, and the CLI's machine-readable output, with no
/// external dependency. Numbers are kept verbatim (as their source text)
/// so exact integers and rationals survive a round trip untouched —
/// nothing in this library wants a double.
///
/// Objects preserve insertion order (serialization is deterministic and
/// diff-friendly); duplicate keys are a parse error.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;                                   // kBool
  std::string string;                                     // kString / kNumber
  std::vector<JsonValue> array;                           // kArray
  std::vector<std::pair<std::string, JsonValue>> object;  // kObject

  static JsonValue MakeNull() { return JsonValue{}; }
  static JsonValue MakeBool(bool value);
  /// The number's exact decimal rendering, e.g. "42", "-7", "0.125".
  static JsonValue MakeNumber(std::string text);
  static JsonValue MakeNumber(std::uint64_t value);
  /// Shortest round-trippable decimal rendering. Non-finite values have
  /// no JSON representation and serialize as null (never bare inf/nan,
  /// which the parser — like every conforming parser — rejects).
  static JsonValue MakeNumber(double value);
  static JsonValue MakeString(std::string text);
  static JsonValue MakeArray();
  static JsonValue MakeObject();

  /// Appends a member to an object (no duplicate check; builders are
  /// trusted). Returns a reference to the stored value.
  JsonValue& Add(std::string key, JsonValue value);

  /// Object member access; throws std::runtime_error when the key is
  /// absent or this is not an object.
  const JsonValue& At(const std::string& key) const;
  bool Has(const std::string& key) const;

  /// Serializes the value. `indent` < 0 renders one compact line; >= 0
  /// pretty-prints with that many spaces per nesting level.
  std::string Dump(int indent = 2) const;
};

/// Parses a complete JSON document. Supports objects, arrays, strings
/// (with the standard escapes, \uXXXX included for the BMP), numbers,
/// booleans, and null. Throws io::ParseError carrying `source` and the
/// line/column of the offending character; never crashes on malformed
/// input.
JsonValue ParseJson(std::string_view text, std::string_view source = "");

/// JSON string escaping (quotes not included): obs::AppendJsonEscaped
/// into a fresh string.
std::string EscapeJson(std::string_view text);

}  // namespace swfomc::io

#endif  // SWFOMC_IO_JSON_H_
