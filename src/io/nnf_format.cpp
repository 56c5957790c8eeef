#include "io/nnf_format.h"

#include <fstream>
#include <limits>
#include <ostream>
#include <span>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "io/diagnostics.h"
#include "io/line_lexer.h"

namespace swfomc::io {

namespace {

using internal::LineToken;
using numeric::BigRational;

// What a circuit dialect's header line says: its tag, its usage for
// diagnostics, and what the third count counts.
struct CircuitHeader {
  const char* tag;
  const char* usage;
  const char* symbol_count;
};

// The line discipline both circuit dialects share: `c` comment lines
// anywhere, a `<tag> V E X` header first, then document lines and node
// lines, with node ids in file order, children preceding their parents
// and the root last. A dialect parses only its own line kinds and
// assembles its own document.
template <typename Circuit>
class CircuitReader : protected internal::LineReader {
 protected:
  using Node = typename Circuit::Node;
  using NodeId = typename Circuit::NodeId;

  CircuitReader(std::string_view text, std::string_view source,
                CircuitHeader header)
      : LineReader(text, source), header_(header) {}

  // Hands the tokens of every line after the header to body(tokens).
  template <typename BodyFn>
  void ReadCircuitLines(BodyFn&& body) {
    ReadLines([&](std::string_view line) {
      std::vector<LineToken> tokens = internal::Tokenize(line);
      if (tokens.empty() || tokens.front().text == "c") return;
      if (!saw_header_) {
        ParseHeader(tokens);
        return;
      }
      if (tokens.front().text == header_.tag) {
        Fail(At(tokens.front()),
             std::string("duplicate '") + header_.tag + "' header");
      }
      body(tokens);
    });
    if (!saw_header_) {
      Fail(AtEnd(), std::string("missing ") + header_.usage + " header");
    }
  }

  // A line kind that may appear once, like `e` and `t`.
  void RequireFirst(bool seen, const LineToken& head) const {
    if (seen) Fail(At(head), "duplicate '" + head.text + "' line");
  }

  // Called before a node line adds its node.
  void RequireNodeRoom(const LineToken& head) const {
    if (nodes_.size() >= declared_nodes_) {
      Fail(At(head),
           "more nodes than the header's " + std::to_string(declared_nodes_));
    }
  }

  // Reads `count c1 .. ccount` from tokens[from] on into node's children.
  void ParseChildren(const std::vector<LineToken>& tokens, std::size_t from,
                     Node* node) {
    std::uint64_t count = Unsigned(tokens[from], "child count");
    if (tokens.size() - from - 1 != count) {
      Fail(At(tokens[from]),
           "child count " + std::to_string(count) + " does not match the " +
               std::to_string(tokens.size() - from - 1) +
               " child id(s) on the line");
    }
    node->children_begin = static_cast<std::uint32_t>(edges_.size());
    for (std::size_t i = from + 1; i < tokens.size(); ++i) {
      std::uint64_t child = Unsigned(tokens[i], "child id");
      if (child >= nodes_.size()) {
        Fail(At(tokens[i]), "child " + std::to_string(child) +
                                " does not precede its parent (node " +
                                std::to_string(nodes_.size()) + ")");
      }
      edges_.push_back(static_cast<NodeId>(child));
    }
    node->children_end = static_cast<std::uint32_t>(edges_.size());
  }

  // The end-of-document checks against the header's V and E.
  void CheckCounts() const {
    if (nodes_.size() != declared_nodes_) {
      Fail(AtEnd(), "node count mismatch: header declares " +
                        std::to_string(declared_nodes_) + ", file has " +
                        std::to_string(nodes_.size()));
    }
    if (edges_.size() != declared_edges_) {
      Fail(AtEnd(), "edge count mismatch: header declares " +
                        std::to_string(declared_edges_) +
                        ", nodes reference " + std::to_string(edges_.size()));
    }
  }

  NodeId root() const { return static_cast<NodeId>(nodes_.size() - 1); }

  std::uint64_t declared_symbols_ = 0;  // the header's X
  std::vector<Node> nodes_;
  std::vector<NodeId> edges_;

 private:
  void ParseHeader(const std::vector<LineToken>& tokens) {
    const LineToken& head = tokens.front();
    if (head.text != header_.tag) {
      Fail(At(head), std::string("expected ") + header_.usage +
                         " header, found '" + head.text + "'");
    }
    RequireTokenCount(tokens, 4, "header");
    declared_nodes_ = Unsigned(tokens[1], "node count");
    declared_edges_ = Unsigned(tokens[2], "edge count");
    declared_symbols_ = Unsigned(tokens[3], header_.symbol_count);
    if (declared_nodes_ == 0) {
      Fail(At(tokens[1]), "a circuit needs at least one node");
    }
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint32_t>::max();
    if (declared_nodes_ > kMax || declared_edges_ > kMax ||
        declared_symbols_ > kMax) {
      Fail(At(head), "header counts exceed 2^32");
    }
    saw_header_ = true;
  }

  CircuitHeader header_;
  bool saw_header_ = false;
  std::uint64_t declared_nodes_ = 0;
  std::uint64_t declared_edges_ = 0;
};

class NnfParser : private CircuitReader<nnf::Circuit> {
 public:
  NnfParser(std::string_view text, std::string_view source)
      : CircuitReader(text, source,
                      {"nnf", "'nnf V E n'", "variable count"}) {}

  NnfDocument Parse() {
    ReadCircuitLines(
        [&](const std::vector<LineToken>& tokens) { ParseLine(tokens); });
    CheckCounts();
    NnfDocument document;
    try {
      document.circuit = nnf::Circuit(variable_count(), std::move(nodes_),
                                      std::move(edges_), root());
    } catch (const nnf::NonDecomposableAnd& error) {
      Fail({node_lines_[error.node], 1},
           "AND node " + std::to_string(error.node) +
               " is not decomposable: children share variable " +
               std::to_string(error.variable + 1));
    }
    document.weights = std::move(weights_);
    document.weights.EnsureSize(variable_count());
    if (complement_tuples_.has_value()) {
      document.circuit.SetComplement(*complement_tuples_);
    }
    document.expect = std::move(expect_);
    return document;
  }

 private:
  std::uint32_t variable_count() const {
    return static_cast<std::uint32_t>(declared_symbols_);
  }

  // A variable index in [1, n], returned 0-based.
  prop::VarId ParseVariable(const LineToken& token, const char* what) {
    std::uint64_t value = Unsigned(token, what);
    if (value == 0 || value > variable_count()) {
      Fail(At(token), std::string(what) + " " + token.text +
                          " out of range [1, " +
                          std::to_string(variable_count()) + "]");
    }
    return static_cast<prop::VarId>(value - 1);
  }

  void ParseLine(const std::vector<LineToken>& tokens) {
    const LineToken& head = tokens.front();
    if (head.text == "w") {
      RequireTokenCount(tokens, 4, "weight line");
      prop::VarId variable = ParseVariable(tokens[1], "weight variable");
      if (weight_set_.size() <= variable) weight_set_.resize(variable + 1);
      if (weight_set_[variable]) {
        Fail(At(tokens[1]),
             "weights of variable " + tokens[1].text + " set twice");
      }
      weight_set_[variable] = true;
      weights_.EnsureSize(variable_count());
      weights_.Set(variable, Rational(tokens[2]), Rational(tokens[3]));
      return;
    }
    if (head.text == "e") {
      RequireTokenCount(tokens, 2, "expect line");
      RequireFirst(expect_.has_value(), head);
      expect_ = Rational(tokens[1]);
      return;
    }
    if (head.text == "t") {
      RequireTokenCount(tokens, 2, "complement line");
      RequireFirst(complement_tuples_.has_value(), head);
      std::uint64_t tuples = Unsigned(tokens[1], "tuple count");
      if (tuples > variable_count()) {
        Fail(At(tokens[1]), "tuple count " + tokens[1].text +
                                " exceeds the " +
                                std::to_string(variable_count()) +
                                " variables");
      }
      complement_tuples_ = static_cast<std::uint32_t>(tuples);
      return;
    }
    RequireNodeRoom(head);
    node_lines_.push_back(line_number());
    if (head.text == "L") {
      RequireTokenCount(tokens, 2, "literal node");
      std::int64_t literal = Signed(tokens[1], "literal");
      std::uint64_t magnitude =
          static_cast<std::uint64_t>(literal < 0 ? -literal : literal);
      if (magnitude == 0 || magnitude > variable_count()) {
        Fail(At(tokens[1]), "literal " + tokens[1].text +
                                " out of range [1, " +
                                std::to_string(variable_count()) + "]");
      }
      nodes_.push_back(nnf::Circuit::Node{
          .kind = nnf::NodeKind::kLiteral,
          .literal = prop::MakeLit(static_cast<prop::VarId>(magnitude - 1),
                                   literal > 0)});
      return;
    }
    if (head.text == "A") {
      if (tokens.size() < 2) Fail(At(head), "AND node: missing child count");
      nnf::Circuit::Node node{.kind = nnf::NodeKind::kAnd};
      ParseChildren(tokens, 1, &node);
      if (node.children_begin == node.children_end) {
        node.kind = nnf::NodeKind::kTrue;  // A 0: the TRUE sentinel
      }
      nodes_.push_back(node);
      return;
    }
    if (head.text == "O") {
      if (tokens.size() < 3) {
        Fail(At(head),
             "OR node: expected 'O decision-var child-count children...'");
      }
      std::uint64_t decision = Unsigned(tokens[1], "decision");
      if (decision > variable_count()) {
        Fail(At(tokens[1]), "decision variable " + tokens[1].text +
                                " out of range [0, " +
                                std::to_string(variable_count()) + "]");
      }
      nnf::Circuit::Node node{.kind = nnf::NodeKind::kOr};
      node.decision = decision == 0
                          ? nnf::kNoDecision
                          : static_cast<prop::VarId>(decision - 1);
      ParseChildren(tokens, 2, &node);
      if (node.children_begin == node.children_end) {
        // O j 0: the FALSE sentinel (c2d writes O 0 0).
        if (decision != 0) {
          Fail(At(tokens[1]), "a childless OR (FALSE) must use decision 0");
        }
        node.kind = nnf::NodeKind::kFalse;
        node.decision = nnf::kNoDecision;
      }
      nodes_.push_back(node);
      return;
    }
    Fail(At(head), "unknown line '" + head.text +
                       "' (expected c, w, t, e, L, A, or O)");
  }

  std::vector<std::size_t> node_lines_;  // the file line of each node
  wmc::WeightMap weights_;
  std::vector<bool> weight_set_;
  std::optional<std::uint32_t> complement_tuples_;
  std::optional<BigRational> expect_;
};

// The lifted dialect: relation lines instead of weight lines, and the
// counting-node extension.
class LiftedNnfParser : private CircuitReader<nnf::LiftedCircuit> {
 public:
  LiftedNnfParser(std::string_view text, std::string_view source)
      : CircuitReader(text, source,
                      {"lnnf", "'lnnf V E R'", "relation count"}) {}

  LiftedNnfDocument Parse() {
    ReadCircuitLines(
        [&](const std::vector<LineToken>& tokens) { ParseLine(tokens); });
    if (relations_.size() != declared_symbols_) {
      Fail(AtEnd(), "relation count mismatch: header declares " +
                        std::to_string(declared_symbols_) + ", file has " +
                        std::to_string(relations_.size()));
    }
    CheckCounts();
    LiftedNnfDocument document;
    document.circuit = nnf::LiftedCircuit(
        std::move(relations_), std::move(constants_), std::move(nodes_),
        std::move(edges_), root());
    if (complement_arities_.has_value()) {
      document.circuit.SetComplement(*std::move(complement_arities_));
    }
    document.expect = std::move(expect_);
    return document;
  }

 private:
  void ParseLine(const std::vector<LineToken>& tokens) {
    const LineToken& head = tokens.front();
    if (head.text == "r") {
      RequireTokenCount(tokens, 4, "relation line");
      if (relations_.size() >= declared_symbols_) {
        Fail(At(head), "more relation lines than the header's " +
                           std::to_string(declared_symbols_));
      }
      relations_.push_back(nnf::LiftedCircuit::Relation{
          tokens[1].text, Rational(tokens[2]), Rational(tokens[3])});
      return;
    }
    if (head.text == "e") {
      RequireTokenCount(tokens, 3, "expect line");
      RequireFirst(expect_.has_value(), head);
      std::uint64_t n = Unsigned(tokens[1], "expect domain size");
      if (n == 0) {
        Fail(At(tokens[1]),
             "expect domain size must be >= 1 (a lifted circuit is not "
             "valid at n = 0)");
      }
      expect_ = {n, Rational(tokens[2])};
      return;
    }
    if (head.text == "t") {
      RequireFirst(complement_arities_.has_value(), head);
      if (tokens.size() - 1 > declared_symbols_) {
        Fail(At(tokens[declared_symbols_ + 1]),
             "more arities than the header's " +
                 std::to_string(declared_symbols_) + " relations");
      }
      std::vector<std::size_t> arities;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        std::uint64_t arity = Unsigned(tokens[i], "arity");
        if (arity > 2) {
          Fail(At(tokens[i]),
               "arity " + tokens[i].text +
                   " out of range [0, 2] (lifted circuits cover arity <= 2)");
        }
        arities.push_back(static_cast<std::size_t>(arity));
      }
      complement_arities_ = std::move(arities);
      return;
    }
    RequireNodeRoom(head);
    if (head.text == "K") {
      RequireTokenCount(tokens, 2, "constant node");
      BigRational value = Rational(tokens[1]);
      std::string text = value.ToString();
      auto [it, inserted] = constant_slots_.emplace(
          text, static_cast<std::uint32_t>(constants_.size()));
      if (inserted) constants_.push_back(std::move(value));
      nodes_.push_back(nnf::LiftedCircuit::Node{
          .kind = nnf::LiftedCircuit::Kind::kConst, .index = it->second});
      return;
    }
    if (head.text == "W") {
      RequireTokenCount(tokens, 2, "weight node");
      std::int64_t reference = Signed(tokens[1], "relation reference");
      std::uint64_t magnitude =
          static_cast<std::uint64_t>(reference < 0 ? -reference : reference);
      if (magnitude == 0 || magnitude > declared_symbols_) {
        Fail(At(tokens[1]), "relation reference " + tokens[1].text +
                                " out of range [1, " +
                                std::to_string(declared_symbols_) + "]");
      }
      nodes_.push_back(nnf::LiftedCircuit::Node{
          .kind = nnf::LiftedCircuit::Kind::kWeight,
          .index = static_cast<std::uint32_t>(magnitude - 1),
          .positive = reference > 0});
      return;
    }
    if (head.text == "A" || head.text == "O") {
      if (tokens.size() < 2) {
        Fail(At(head), std::string(head.text == "A" ? "AND" : "OR") +
                           " node: missing child count");
      }
      nnf::LiftedCircuit::Node node;
      node.kind = head.text == "A" ? nnf::LiftedCircuit::Kind::kAnd
                                   : nnf::LiftedCircuit::Kind::kOr;
      ParseChildren(tokens, 1, &node);
      nodes_.push_back(node);
      return;
    }
    if (head.text == "C") {
      if (tokens.size() < 3) {
        Fail(At(head),
             "counting node: expected 'C cells child-count children...'");
      }
      std::uint64_t cells = Unsigned(tokens[1], "cell count");
      if (cells == 0) {
        Fail(At(tokens[1]), "counting node needs at least one cell");
      }
      if (cells > (std::uint64_t{1} << 20)) {
        Fail(At(tokens[1]), "cell count exceeds 2^20");
      }
      nnf::LiftedCircuit::Node node;
      node.kind = nnf::LiftedCircuit::Kind::kCount;
      node.cells = static_cast<std::uint32_t>(cells);
      ParseChildren(tokens, 2, &node);
      std::uint64_t expected = cells + cells * (cells + 1) / 2;
      std::uint64_t actual = node.children_end - node.children_begin;
      if (actual != expected) {
        Fail(At(tokens[1]),
             "counting node over " + std::to_string(cells) +
                 " cells needs " + std::to_string(expected) +
                 " children (C + C(C+1)/2), got " + std::to_string(actual));
      }
      nodes_.push_back(node);
      return;
    }
    Fail(At(head), "unknown line '" + head.text +
                       "' (expected c, r, t, e, K, W, A, O, or C)");
  }

  std::vector<nnf::LiftedCircuit::Relation> relations_;
  std::vector<BigRational> constants_;
  std::unordered_map<std::string, std::uint32_t> constant_slots_;
  std::optional<std::vector<std::size_t>> complement_arities_;
  std::optional<std::pair<std::uint64_t, BigRational>> expect_;
};

// The first non-comment line's head token decides the dialect. Returned
// by value: the tokens it comes from die with each line's token vector.
std::string HeaderToken(std::string_view text) {
  std::string header;
  internal::ForEachLine(text, [&](std::size_t, std::string_view line) {
    if (!header.empty()) return;
    std::vector<LineToken> tokens = internal::Tokenize(line);
    if (tokens.empty() || tokens.front().text == "c") return;
    header = std::move(tokens.front().text);
  });
  return header;
}

// The tail of an inner node's line, shared by both dialects' printers:
// `k c1 .. ck` and the newline.
void PrintChildren(std::ostream& out, std::span<const std::uint32_t> children) {
  out << children.size();
  for (std::uint32_t child : children) out << " " << child;
  out << "\n";
}

}  // namespace

NnfDocument ParseNnf(std::string_view text, std::string_view source) {
  return NnfParser(text, source).Parse();
}

std::string PrintNnf(const NnfDocument& document) {
  const nnf::Circuit& circuit = document.circuit;
  std::ostringstream out;
  out << "nnf " << circuit.node_count() << " " << circuit.edge_count() << " "
      << circuit.variable_count() << "\n";
  for (prop::VarId v = 0; v < circuit.variable_count(); ++v) {
    const wmc::VariableWeights& weights = document.weights.Get(v);
    if (weights.positive.IsOne() && weights.negative.IsOne()) continue;
    out << "w " << v + 1 << " " << weights.positive.ToString() << " "
        << weights.negative.ToString() << "\n";
  }
  if (circuit.complement().has_value()) {
    out << "t " << *circuit.complement() << "\n";
  }
  if (document.expect.has_value()) {
    out << "e " << document.expect->ToString() << "\n";
  }
  for (nnf::Circuit::NodeId id = 0; id < circuit.node_count(); ++id) {
    const nnf::Circuit::Node& node = circuit.node(id);
    switch (node.kind) {
      case nnf::NodeKind::kTrue:
        out << "A 0\n";
        break;
      case nnf::NodeKind::kFalse:
        out << "O 0 0\n";
        break;
      case nnf::NodeKind::kLiteral: {
        std::int64_t variable =
            static_cast<std::int64_t>(prop::LitVariable(node.literal)) + 1;
        out << "L " << (prop::LitPositive(node.literal) ? variable : -variable)
            << "\n";
        break;
      }
      case nnf::NodeKind::kAnd:
        out << "A ";
        PrintChildren(out, circuit.Children(id));
        break;
      case nnf::NodeKind::kOr:
        out << "O "
            << (node.decision == nnf::kNoDecision
                    ? std::uint64_t{0}
                    : static_cast<std::uint64_t>(node.decision) + 1)
            << " ";
        PrintChildren(out, circuit.Children(id));
        break;
    }
  }
  return out.str();
}

LiftedNnfDocument ParseLiftedNnf(std::string_view text,
                                 std::string_view source) {
  return LiftedNnfParser(text, source).Parse();
}

std::string PrintLiftedNnf(const LiftedNnfDocument& document) {
  const nnf::LiftedCircuit& circuit = document.circuit;
  std::ostringstream out;
  out << "lnnf " << circuit.node_count() << " " << circuit.edge_count() << " "
      << circuit.relations().size() << "\n";
  for (const nnf::LiftedCircuit::Relation& relation : circuit.relations()) {
    out << "r " << relation.name << " " << relation.positive_weight.ToString()
        << " " << relation.negative_weight.ToString() << "\n";
  }
  if (circuit.complement().has_value()) {
    out << "t";
    for (std::size_t arity : *circuit.complement()) out << " " << arity;
    out << "\n";
  }
  if (document.expect.has_value()) {
    out << "e " << document.expect->first << " "
        << document.expect->second.ToString() << "\n";
  }
  for (nnf::LiftedCircuit::NodeId id = 0; id < circuit.node_count(); ++id) {
    const nnf::LiftedCircuit::Node& node = circuit.node(id);
    switch (node.kind) {
      case nnf::LiftedCircuit::Kind::kConst:
        out << "K " << circuit.constants()[node.index].ToString() << "\n";
        break;
      case nnf::LiftedCircuit::Kind::kWeight: {
        std::int64_t reference = static_cast<std::int64_t>(node.index) + 1;
        out << "W " << (node.positive ? reference : -reference) << "\n";
        break;
      }
      case nnf::LiftedCircuit::Kind::kAnd:
      case nnf::LiftedCircuit::Kind::kOr:
        out << (node.kind == nnf::LiftedCircuit::Kind::kAnd ? "A " : "O ");
        PrintChildren(out, circuit.Children(id));
        break;
      case nnf::LiftedCircuit::Kind::kCount:
        out << "C " << node.cells << " ";
        PrintChildren(out, circuit.Children(id));
        break;
    }
  }
  return out.str();
}

AnyNnfDocument ParseAnyNnf(std::string_view text, std::string_view source) {
  if (HeaderToken(text) == "lnnf") {
    return ParseLiftedNnf(text, source);
  }
  // Everything else — including a missing or malformed header — goes to
  // the grounded parser, whose diagnostics name the expected header.
  return ParseNnf(text, source);
}

AnyNnfDocument LoadAnyNnfFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open nnf file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseAnyNnf(buffer.str(), path);
}

std::string NnfHeaderToken(const std::string& path) {
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    std::string header = HeaderToken(line);
    if (!header.empty()) return header;
  }
  return "";
}

}  // namespace swfomc::io
