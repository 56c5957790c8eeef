#ifndef SWFOMC_NUMERIC_DECIMAL_H_
#define SWFOMC_NUMERIC_DECIMAL_H_

#include <cstdint>
#include <limits>
#include <string_view>

namespace swfomc::numeric {

/// Why ParseDecimal rejected its text; kNone when it did not.
enum class DecimalError { kNone, kEmpty, kNotDigit, kOverflow };

/// Parses `text` as a decimal integer of at most `max` into *value:
/// digits only, no sign and no spaces. The first fault from the left
/// wins, so "12x99…9" is kNotDigit however long its tail. This is the one
/// decimal loop: the FO lexer's constants, the text formats' counts and
/// sizes, the CLI's flags, the daemon's JSON fields and BigInt's digit
/// chunks all go through here, and each caller words its own message.
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

}  // namespace swfomc::numeric

#endif  // SWFOMC_NUMERIC_DECIMAL_H_
