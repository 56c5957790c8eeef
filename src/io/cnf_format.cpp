#include "io/cnf_format.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "io/diagnostics.h"
#include "io/line_lexer.h"
#include "numeric/rational.h"

namespace swfomc::io {

namespace {

using numeric::BigRational;
using internal::LineToken;

class CnfParser : private internal::LineReader {
 public:
  using LineReader::LineReader;

  WeightedCnf Parse() {
    ReadLines([&](std::string_view line) { ParseLine(line); });
    if (!saw_header_) Fail(AtEnd(), "missing 'p cnf VARS CLAUSES' header");
    if (!open_clause_.empty()) {
      Fail(AtEnd(),
           "truncated CNF: final clause is missing its terminating 0");
    }
    if (instance_.cnf.clauses.size() != declared_clauses_) {
      Fail(AtEnd(),
           "truncated CNF: header declares " +
               std::to_string(declared_clauses_) + " clauses but " +
               std::to_string(instance_.cnf.clauses.size()) + " were given");
    }
    return std::move(instance_);
  }

 private:
  void ParseLine(std::string_view line) {
    std::vector<LineToken> tokens = internal::Tokenize(line);
    if (tokens.empty()) return;
    if (tokens[0].text == "c") return;  // comment
    if (tokens[0].text == "p") {
      ParseHeader(tokens);
      return;
    }
    if (!saw_header_) {
      Fail(At(tokens[0]),
           "expected the 'p cnf VARS CLAUSES' header before this line");
    }
    if (tokens[0].text == "w") {
      ParseWeightLine(tokens);
      return;
    }
    ParseClauseTokens(tokens);
  }

  void ParseHeader(const std::vector<LineToken>& tokens) {
    if (saw_header_) Fail(At(tokens[0]), "duplicate 'p' header");
    if (tokens.size() != 4 || tokens[1].text != "cnf") {
      Fail(At(tokens[0]), "malformed header (expected 'p cnf VARS CLAUSES')");
    }
    saw_header_ = true;
    std::uint64_t variables = Unsigned(tokens[2], "variable count");
    // Literals are 2v + sign in 32 bits (prop::Lit), and the search
    // indexes the literal space [0, 2·count], which must fit one too.
    if (variables > (std::uint64_t{1} << 31) - 1) {
      Fail(At(tokens[2]), "variable count " + tokens[2].text +
                              " exceeds the supported maximum (2^31 - 1)");
    }
    instance_.cnf.variable_count = static_cast<std::uint32_t>(variables);
    declared_clauses_ = Unsigned(tokens[3], "clause count");
    instance_.weights.EnsureSize(instance_.cnf.variable_count);
    // The declared count is untrusted; cap the speculative reserve so a
    // bogus header cannot demand gigabytes up front.
    instance_.cnf.clauses.reserve(
        std::min<std::size_t>(declared_clauses_, std::size_t{1} << 20));
    positive_set_.assign(instance_.cnf.variable_count, false);
    negative_set_.assign(instance_.cnf.variable_count, false);
  }

  void ParseWeightLine(const std::vector<LineToken>& tokens) {
    if (tokens.size() == 4) {
      // w VAR W WBAR. A literal trailing "0" cannot be told apart from a
      // terminated MiniC2D literal-form line, so that spelling is
      // rejected outright; a genuine zero weight is written "0/1".
      if (tokens[3].text == "0") {
        Fail(At(tokens[3]),
             "ambiguous trailing 0 (a terminated 'w LIT W' line or "
             "w̄ = 0?); write the zero weight as 0/1, and no terminator");
      }
      std::uint64_t var = Unsigned(tokens[1], "variable");
      prop::VarId id = RequireVariable(tokens[1], var);
      SetWeight(tokens[1], id, /*positive=*/true, Rational(tokens[2]));
      SetWeight(tokens[1], id, /*positive=*/false, Rational(tokens[3]));
      return;
    }
    if (tokens.size() == 3) {
      // w LIT W (MiniC2D style: the sign picks the side)
      std::int64_t literal = Signed(tokens[1], "literal");
      if (literal == 0) {
        Fail(At(tokens[1]), "weight literal must be nonzero");
      }
      std::uint64_t var =
          static_cast<std::uint64_t>(literal < 0 ? -literal : literal);
      prop::VarId id = RequireVariable(tokens[1], var);
      SetWeight(tokens[1], id, literal > 0, Rational(tokens[2]));
      return;
    }
    // A trailing "0" after either form would be ambiguous (is `w 2 1/2 0`
    // a terminated literal-form line or w̄ = 0?), so weight lines take no
    // terminator at all — reject with a hint rather than silently picking
    // one reading.
    std::string hint =
        tokens.size() > 1 && tokens.back().text == "0"
            ? "; weight lines take no trailing 0 terminator"
            : "";
    Fail(At(tokens[0]),
         "malformed weight line (expected 'w VAR W WBAR' or 'w LIT W'" +
             hint + ")");
  }

  prop::VarId RequireVariable(const LineToken& token, std::uint64_t var) {
    if (var == 0 || var > instance_.cnf.variable_count) {
      Fail(At(token), "variable " + token.text +
                          " out of range [1, " +
                          std::to_string(instance_.cnf.variable_count) + "]");
    }
    return static_cast<prop::VarId>(var - 1);
  }

  void SetWeight(const LineToken& token, prop::VarId id, bool positive,
                 BigRational value) {
    std::vector<bool>& seen = positive ? positive_set_ : negative_set_;
    if (seen[id]) {
      Fail(At(token), std::string("weight ") + (positive ? "w" : "w̄") +
                          " of variable " + std::to_string(id + 1) +
                          " set twice");
    }
    seen[id] = true;
    wmc::VariableWeights weights = instance_.weights.Get(id);
    (positive ? weights.positive : weights.negative) = std::move(value);
    instance_.weights.Set(id, std::move(weights.positive),
                          std::move(weights.negative));
  }

  void ParseClauseTokens(const std::vector<LineToken>& tokens) {
    for (const LineToken& token : tokens) {
      std::int64_t literal = Signed(token, "literal");
      if (literal == 0) {
        if (instance_.cnf.clauses.size() == declared_clauses_) {
          Fail(At(token), "more clauses than the header's declared " +
                              std::to_string(declared_clauses_));
        }
        instance_.cnf.clauses.push_back(std::move(open_clause_));
        open_clause_.clear();
        continue;
      }
      std::uint64_t var =
          static_cast<std::uint64_t>(literal < 0 ? -literal : literal);
      prop::VarId id = RequireVariable(token, var);
      open_clause_.push_back(prop::MakeLit(id, literal > 0));
    }
  }

  WeightedCnf instance_;
  bool saw_header_ = false;
  std::size_t declared_clauses_ = 0;
  prop::Clause open_clause_;
  std::vector<bool> positive_set_;
  std::vector<bool> negative_set_;
};

}  // namespace

WeightedCnf ParseWeightedCnf(std::string_view text, std::string_view source) {
  return CnfParser(text, source).Parse();
}

WeightedCnf LoadWeightedCnfFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open cnf file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseWeightedCnf(buffer.str(), path);
}

std::string PrintWeightedCnf(const WeightedCnf& instance) {
  std::ostringstream out;
  out << "p cnf " << instance.cnf.variable_count << " "
      << instance.cnf.clauses.size() << "\n";
  for (prop::VarId id = 0; id < instance.cnf.variable_count; ++id) {
    const wmc::VariableWeights& weights = instance.weights.Get(id);
    if (weights.positive.IsOne() && weights.negative.IsOne()) continue;
    // A bare trailing "0" is rejected by the reader as ambiguous (see
    // ParseWeightLine), so a zero w̄ is spelled "0/1".
    out << "w " << (id + 1) << " " << weights.positive.ToString() << " "
        << (weights.negative.IsZero() ? "0/1"
                                      : weights.negative.ToString())
        << "\n";
  }
  for (const prop::Clause& clause : instance.cnf.clauses) {
    for (prop::Lit lit : clause) {
      out << (prop::LitPositive(lit) ? "" : "-") << (prop::LitVariable(lit) + 1)
          << " ";
    }
    out << "0\n";
  }
  return out.str();
}

}  // namespace swfomc::io
