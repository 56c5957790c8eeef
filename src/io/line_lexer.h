#ifndef SWFOMC_IO_LINE_LEXER_H_
#define SWFOMC_IO_LINE_LEXER_H_

// Shared machinery for the io module's line-oriented readers — the .model
// reader (model_format.cpp), the weighted CNF reader (cnf_format.cpp) and
// both circuit dialects, `.nnf` and `.lnnf` (nnf_format.cpp): the line
// loop, whitespace tokenization with column tracking, and the numeric
// token parsers with their overflow checks, all reporting through
// io::ParseError at the offending line and column. Internal to src/io —
// not part of the module's public surface.

#include <cctype>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "io/diagnostics.h"
#include "numeric/rational.h"

namespace swfomc::io::internal {

/// Calls fn(line_number, line) for every line of `text` (1-based, final
/// newline-less line included). A trailing '\n' terminates the last line
/// rather than opening a phantom empty one — "a\n" is one line, "a\n\n"
/// is two — so EOF diagnostics keyed to the last delivered line point at
/// the last real line. Windows '\r' is stripped. Every reader gets its
/// line accounting from here so their diagnostics can never drift.
template <typename LineFn>
inline void ForEachLine(std::string_view text, LineFn&& fn) {
  std::size_t pos = 0;
  std::size_t number = 1;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    fn(number, line);
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
    ++number;
  }
}

/// One whitespace-delimited token plus the 1-based column it starts at.
struct LineToken {
  std::string text;
  std::size_t column = 1;
};

inline std::vector<LineToken> Tokenize(std::string_view line) {
  std::vector<LineToken> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    if (std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
      continue;
    }
    std::size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    tokens.push_back(
        LineToken{std::string(line.substr(start, i - start)), start + 1});
  }
  return tokens;
}

/// The reader every format derives from. It owns the document's text, its
/// source name and the current line, and binds failures and the token
/// parsers to that line, so a format's parser says only what its lines
/// mean.
class LineReader {
 public:
  LineReader(std::string_view text, std::string_view source)
      : text_(text), source_(source) {}

 protected:
  /// Calls fn(line) for every line of the text, with line_number() current.
  template <typename LineFn>
  void ReadLines(LineFn&& fn) {
    ForEachLine(text_, [&](std::size_t number, std::string_view line) {
      line_ = number;
      fn(line);
    });
  }

  std::size_t line_number() const { return line_; }
  Location At(const LineToken& token) const { return {line_, token.column}; }
  /// Where end-of-document errors point: column 1 of the last real line.
  Location AtEnd() const { return {line_, 1}; }

  [[noreturn]] void Fail(Location location, const std::string& message) const {
    throw ParseError(std::string(source_), location, message);
  }

  /// Requires exactly `count` tokens, the line's keyword included.
  void RequireTokenCount(const std::vector<LineToken>& tokens,
                         std::size_t count, const char* what) const {
    if (tokens.size() < count) {
      Fail(At(tokens.back()), std::string(what) + ": expected " +
                                  std::to_string(count - 1) + " value(s)");
    }
    if (tokens.size() > count) {
      Fail(At(tokens[count]), std::string("unexpected trailing token '") +
                                  tokens[count].text + "' on " + what +
                                  " line");
    }
  }

  /// The token as a non-negative integer.
  std::uint64_t Unsigned(const LineToken& token, const char* what) const {
    return Unsigned(token, token.text, what);
  }

  /// `text` — the token or, for domain ranges, a piece of it — as a
  /// non-negative integer; errors point at the token.
  std::uint64_t Unsigned(const LineToken& token, std::string_view text,
                         const char* what) const {
    std::uint64_t value = 0;
    switch (ParseDecimal(text, &value)) {
      case DecimalError::kNone:
        return value;
      case DecimalError::kEmpty:
        Fail(At(token), std::string("missing ") + what);
      case DecimalError::kNotDigit:
        Fail(At(token), std::string("bad ") + what + " '" + std::string(text) +
                            "' (expected a non-negative integer)");
      case DecimalError::kOverflow:
        break;
    }
    Fail(At(token), std::string(what) + " '" + std::string(text) +
                        "' overflows");
  }

  /// The token as an optionally '-'-signed integer. Its magnitude
  /// overflows once a prefix of its digits exceeds 2^32; a smaller one is
  /// left to the caller's range check.
  std::int64_t Signed(const LineToken& token, const char* what) const {
    constexpr std::uint64_t kMaxMagnitude = (std::uint64_t{1} << 32) * 10 + 9;
    std::string_view digits = token.text;
    bool negative = !digits.empty() && digits[0] == '-';
    if (negative) digits.remove_prefix(1);
    std::uint64_t magnitude = 0;
    switch (ParseDecimal(digits, &magnitude, kMaxMagnitude)) {
      case DecimalError::kNone: {
        auto value = static_cast<std::int64_t>(magnitude);
        return negative ? -value : value;
      }
      case DecimalError::kEmpty:
        Fail(At(token), std::string("bad ") + what + " '" + token.text + "'");
      case DecimalError::kNotDigit:
        Fail(At(token), std::string("bad ") + what + " '" + token.text +
                            "' (expected an integer)");
      case DecimalError::kOverflow:
        break;
    }
    Fail(At(token), std::string(what) + " '" + token.text + "' overflows");
  }

  /// The token as an exact rational "a", "-a" or "a/b" with b != 0.
  numeric::BigRational Rational(const LineToken& token) const {
    try {
      return numeric::BigRational::FromString(token.text);
    } catch (const std::invalid_argument&) {
      Fail(At(token), "bad rational '" + token.text +
                          "' (expected \"a\", \"-a\", or \"a/b\")");
    } catch (const std::domain_error&) {
      Fail(At(token), "bad rational '" + token.text + "' (zero denominator)");
    }
  }

 private:
  std::string_view text_;
  std::string_view source_;
  std::size_t line_ = 1;
};

}  // namespace swfomc::io::internal

#endif  // SWFOMC_IO_LINE_LEXER_H_
