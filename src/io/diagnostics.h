#ifndef SWFOMC_IO_DIAGNOSTICS_H_
#define SWFOMC_IO_DIAGNOSTICS_H_

#include <cstddef>
#include <stdexcept>
#include <string>

#include "numeric/decimal.h"

namespace swfomc::io {

// The overflow-checked decimal parser lives in numeric, below logic, so
// the FO lexer shares it; io's readers keep calling it by these names.
using numeric::DecimalError;
using numeric::ParseDecimal;

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
