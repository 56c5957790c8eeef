#include "io/model_format.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "io/line_lexer.h"
#include "logic/parser.h"
#include "logic/printer.h"

namespace swfomc::io {

namespace {

using numeric::BigRational;
using internal::LineToken;
using internal::Tokenize;

class ModelParser : private internal::LineReader {
 public:
  using LineReader::LineReader;

  ModelSpec Parse() {
    ReadLines([&](std::string_view line) { ParseLine(line); });
    if (!saw_sentence_) {
      Fail(AtEnd(), "missing required directive 'sentence'");
    }
    if (!saw_domain_ &&
        (spec_.expect.has_value() || !point_expects_.empty())) {
      Fail(AtEnd(),
           "directive 'expect' needs a 'domain' directive (there is no "
           "domain size to expect a value at)");
    }
    ValidatePointExpects();
    return std::move(spec_);
  }

 private:
  void ParseLine(std::string_view line) {
    // Comments run from '#' to end of line ('#' cannot occur inside any
    // directive operand, the FO syntax included).
    std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);

    std::vector<LineToken> tokens = Tokenize(line);
    if (tokens.empty()) return;
    const std::string& directive = tokens[0].text;

    if (directive == "model") {
      RequireOperands(tokens, 1, "model NAME");
      RequireFirst(!saw_name_, tokens[0], "duplicate 'model' directive");
      saw_name_ = true;
      spec_.name = tokens[1].text;
    } else if (directive == "predicate") {
      ParsePredicate(tokens);
    } else if (directive == "sentence") {
      ParseSentence(line, tokens);
    } else if (directive == "weight") {
      ParseWeight(tokens);
    } else if (directive == "domain") {
      ParseDomain(tokens);
    } else if (directive == "method") {
      RequireOperands(tokens, 1, "method NAME");
      RequireFirst(!saw_method_, tokens[0], "duplicate 'method' directive");
      saw_method_ = true;
      auto method = ParseMethodName(tokens[1].text);
      if (!method.has_value()) {
        Fail(At(tokens[1]),
             "unknown method '" + tokens[1].text +
                 "' (expected auto, lifted-fo2, gamma-acyclic, or grounded)");
      }
      spec_.method = *method;
    } else if (directive == "expect") {
      ParseExpect(tokens);
    } else {
      Fail(At(tokens[0]), "unknown directive '" + directive + "'");
    }
  }

  void RequireOperands(const std::vector<LineToken>& tokens, std::size_t count,
                       const char* usage) {
    if (tokens.size() != count + 1) {
      Fail(At(tokens[0]), "directive '" + tokens[0].text + "' takes " +
                              std::to_string(count) +
                              (count == 1 ? " operand" : " operands") +
                              ": " + usage);
    }
  }

  void RequireFirst(bool first, const LineToken& token,
                    const std::string& message) {
    if (!first) Fail(At(token), message);
  }

  void ParsePredicate(const std::vector<LineToken>& tokens) {
    RequireOperands(tokens, 2, "predicate NAME ARITY");
    if (saw_sentence_) {
      Fail(At(tokens[0]),
           "predicate declarations must precede the sentence");
    }
    const std::string& name = tokens[1].text;
    if (name.empty() ||
        !std::isupper(static_cast<unsigned char>(name[0]))) {
      Fail(At(tokens[1]),
           "predicate name must start with an uppercase letter (got '" +
               name + "')");
    }
    if (spec_.vocabulary.Find(name).has_value()) {
      Fail(At(tokens[1]), "duplicate predicate declaration '" + name + "'");
    }
    spec_.vocabulary.AddRelation(name, Unsigned(tokens[2], "arity"));
  }

  void ParseSentence(std::string_view line,
                     const std::vector<LineToken>& tokens) {
    if (tokens.size() < 2) {
      Fail(At(tokens[0]), "directive 'sentence' needs an FO sentence");
    }
    RequireFirst(!saw_sentence_, tokens[0], "duplicate 'sentence' directive");
    saw_sentence_ = true;
    // Everything after the directive word is the sentence.
    std::size_t start = tokens[1].column - 1;
    std::string_view body = line.substr(start);
    while (!body.empty() &&
           std::isspace(static_cast<unsigned char>(body.back()))) {
      body.remove_suffix(1);
    }
    try {
      spec_.sentence = logic::Parse(body, &spec_.vocabulary);
    } catch (const logic::SyntaxError& error) {
      // Map the parser's byte offset into this line's columns.
      Fail({line_number(), start + error.offset() + 1}, error.what());
    } catch (const std::invalid_argument& error) {
      Fail(At(tokens[1]), error.what());
    }
    spec_.sentence_text = std::string(body);
  }

  void ParseWeight(const std::vector<LineToken>& tokens) {
    RequireOperands(tokens, 3, "weight NAME W WBAR");
    const std::string& name = tokens[1].text;
    auto id = spec_.vocabulary.Find(name);
    if (!id.has_value()) {
      Fail(At(tokens[1]),
           "unknown predicate '" + name +
               "' (declare it or use it in the sentence first)");
    }
    if (!weighted_.insert(*id).second) {
      Fail(At(tokens[1]), "duplicate weight for predicate '" + name + "'");
    }
    BigRational positive = Rational(tokens[2]);
    BigRational negative = Rational(tokens[3]);
    spec_.vocabulary.SetWeights(*id, std::move(positive), std::move(negative));
  }

  void ParseExpect(const std::vector<LineToken>& tokens) {
    // Two spellings: `expect VALUE` (the largest domain size) and
    // `expect N = VALUE` (one sweep point). Point expects are validated
    // against the domain range after the whole file is parsed — directive
    // order is free, so the range may not be known yet.
    if (tokens.size() == 2) {
      RequireFirst(!spec_.expect.has_value(), tokens[0],
                   "duplicate 'expect' directive");
      spec_.expect = Rational(tokens[1]);
      return;
    }
    if (tokens.size() == 4 && tokens[2].text == "=") {
      PointExpect point;
      point.domain_size = Unsigned(tokens[1], "domain size");
      point.value = Rational(tokens[3]);
      point.location = At(tokens[1]);
      point_expects_.push_back(std::move(point));
      return;
    }
    Fail(At(tokens[0]),
         "directive 'expect' takes either one operand (expect VALUE) or "
         "a sweep point (expect N = VALUE)");
  }

  void ValidatePointExpects() {
    std::set<std::uint64_t> seen;
    for (PointExpect& point : point_expects_) {
      if (point.domain_size < spec_.domain_lo ||
          point.domain_size > spec_.domain_hi) {
        Fail(point.location,
             "expect at domain size " + std::to_string(point.domain_size) +
                 " is outside the domain range " +
                 std::to_string(spec_.domain_lo) + ".." +
                 std::to_string(spec_.domain_hi));
      }
      if (!seen.insert(point.domain_size).second) {
        Fail(point.location,
             "duplicate 'expect' for domain size " +
                 std::to_string(point.domain_size));
      }
      if (spec_.expect.has_value() &&
          point.domain_size == spec_.domain_hi) {
        Fail(point.location,
             "'expect " + std::to_string(point.domain_size) +
                 " = ...' conflicts with the plain 'expect' directive, "
                 "which already covers the largest domain size");
      }
    }
    std::sort(point_expects_.begin(), point_expects_.end(),
              [](const PointExpect& a, const PointExpect& b) {
                return a.domain_size < b.domain_size;
              });
    spec_.point_expects.reserve(point_expects_.size());
    for (PointExpect& point : point_expects_) {
      spec_.point_expects.emplace_back(point.domain_size,
                                       std::move(point.value));
    }
  }

  void ParseDomain(const std::vector<LineToken>& tokens) {
    RequireOperands(tokens, 1, "domain N or domain LO..HI");
    RequireFirst(!saw_domain_, tokens[0], "duplicate 'domain' directive");
    saw_domain_ = true;
    spec_.has_domain = true;
    const std::string& text = tokens[1].text;
    std::size_t dots = text.find("..");
    if (dots == std::string::npos) {
      spec_.domain_lo = spec_.domain_hi = Unsigned(tokens[1], "domain size");
      return;
    }
    spec_.domain_lo =
        Unsigned(tokens[1], text.substr(0, dots), "domain size");
    spec_.domain_hi =
        Unsigned(tokens[1], text.substr(dots + 2), "domain size");
    if (spec_.domain_lo > spec_.domain_hi) {
      Fail(At(tokens[1]), "empty domain range '" + text + "' (LO > HI)");
    }
    // Each sweep point is a full WFOMC evaluation; a range this wide can
    // only be a typo (and an unguarded width would overflow downstream
    // point counting).
    if (spec_.domain_hi - spec_.domain_lo >= (std::uint64_t{1} << 20)) {
      Fail(At(tokens[1]),
           "domain range '" + text + "' is too wide (max 2^20 points)");
    }
  }

  struct PointExpect {
    std::uint64_t domain_size = 0;
    BigRational value;
    Location location;  // for range/duplicate diagnostics after parse
  };

  ModelSpec spec_;
  bool saw_name_ = false;
  bool saw_sentence_ = false;
  bool saw_domain_ = false;
  bool saw_method_ = false;
  std::set<logic::RelationId> weighted_;
  std::vector<PointExpect> point_expects_;
};

}  // namespace

ModelSpec ParseModel(std::string_view text, std::string_view source) {
  return ModelParser(text, source).Parse();
}

ModelSpec LoadModelFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open model file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseModel(buffer.str(), path);
}

std::string PrintModel(const ModelSpec& spec) {
  std::ostringstream out;
  if (!spec.name.empty()) out << "model " << spec.name << "\n";
  for (logic::RelationId id = 0; id < spec.vocabulary.size(); ++id) {
    out << "predicate " << spec.vocabulary.name(id) << " "
        << spec.vocabulary.arity(id) << "\n";
  }
  out << "sentence " << logic::ToString(spec.sentence, spec.vocabulary)
      << "\n";
  for (logic::RelationId id = 0; id < spec.vocabulary.size(); ++id) {
    const BigRational& positive = spec.vocabulary.positive_weight(id);
    const BigRational& negative = spec.vocabulary.negative_weight(id);
    if (positive.IsOne() && negative.IsOne()) continue;
    out << "weight " << spec.vocabulary.name(id) << " " << positive.ToString()
        << " " << negative.ToString() << "\n";
  }
  if (spec.has_domain) {
    out << "domain " << spec.domain_lo;
    if (spec.IsSweep()) out << ".." << spec.domain_hi;
    out << "\n";
  }
  if (spec.method != api::Method::kAuto) {
    out << "method " << api::ToString(spec.method) << "\n";
  }
  if (spec.expect.has_value()) {
    out << "expect " << spec.expect->ToString() << "\n";
  }
  for (const auto& [domain_size, value] : spec.point_expects) {
    out << "expect " << domain_size << " = " << value.ToString() << "\n";
  }
  return out.str();
}

std::optional<api::Method> ParseMethodName(std::string_view text) {
  if (text == "auto") return api::Method::kAuto;
  if (text == "lifted-fo2") return api::Method::kLiftedFO2;
  if (text == "gamma-acyclic") return api::Method::kGammaAcyclic;
  if (text == "grounded") return api::Method::kGrounded;
  return std::nullopt;
}

}  // namespace swfomc::io
