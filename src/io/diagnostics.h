#ifndef SWFOMC_IO_DIAGNOSTICS_H_
#define SWFOMC_IO_DIAGNOSTICS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

namespace swfomc::io {

/// Why ParseDecimal rejected its text; kNone when it did not.
enum class DecimalError { kNone, kEmpty, kNotDigit, kOverflow };

/// Parses `text` as a decimal integer of at most `max` into *value:
/// digits only, no sign and no spaces. The first fault from the left
/// wins, so "12x99…9" is kNotDigit however long its tail. Every reader of
/// counts, sizes and budgets — the text formats, the CLI's flags and the
/// daemon's JSON fields — goes through here and words its own message.
inline DecimalError ParseDecimal(
    std::string_view text, std::uint64_t* value,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (text.empty()) return DecimalError::kEmpty;
  std::uint64_t result = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return DecimalError::kNotDigit;
    auto digit = static_cast<std::uint64_t>(c - '0');
    // Checked before the multiply: the *10 itself can wrap past a
    // post-hoc "smaller than before" test.
    if (result > (max - digit) / 10) return DecimalError::kOverflow;
    result = result * 10 + digit;
  }
  *value = result;
  return DecimalError::kNone;
}

/// A 1-based position inside a text document.
struct Location {
  std::size_t line = 1;
  std::size_t column = 1;
};

/// Every reader in this module reports malformed input through ParseError,
/// never by crashing: the exception carries the source name (usually a file
/// path), the 1-based line/column of the offending token, and a message.
/// what() renders the conventional "file:line:column: message" form that
/// editors and CI logs understand.
class ParseError : public std::runtime_error {
 public:
  ParseError(std::string source, Location location, std::string message)
      : std::runtime_error((source.empty() ? std::string("<input>") : source) +
                           ":" + std::to_string(location.line) + ":" +
                           std::to_string(location.column) + ": " + message),
        source_(std::move(source)),
        location_(location),
        message_(std::move(message)) {}

  const std::string& source() const { return source_; }
  const Location& location() const { return location_; }
  const std::string& message() const { return message_; }

 private:
  std::string source_;
  Location location_;
  std::string message_;
};

}  // namespace swfomc::io

#endif  // SWFOMC_IO_DIAGNOSTICS_H_
