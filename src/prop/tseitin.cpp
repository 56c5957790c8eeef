#include "prop/tseitin.h"

#include <stdexcept>
#include <unordered_map>

namespace swfomc::prop {

namespace {

class Encoder {
 public:
  Encoder(CnfFormula* cnf, std::uint32_t first_aux)
      : cnf_(cnf), next_var_(first_aux) {}

  // Returns a literal equivalent to the subformula, adding defining
  // clauses for any fresh auxiliary variable.
  Lit Encode(const PropFormula& node) {
    auto it = cache_.find(node.get());
    if (it != cache_.end()) return it->second;
    Lit result = EncodeUncached(node);
    cache_.emplace(node.get(), result);
    return result;
  }

  std::uint32_t next_var() const { return next_var_; }

 private:
  Lit EncodeUncached(const PropFormula& node) {
    switch (node->kind()) {
      case PropKind::kVar:
        return MakeLit(node->variable(), true);
      case PropKind::kNot:
        return NegateLit(Encode(node->child()));
      case PropKind::kAnd:
      case PropKind::kOr: {
        std::vector<Lit> child_literals;
        child_literals.reserve(node->children().size());
        for (const PropFormula& child : node->children()) {
          child_literals.push_back(Encode(child));
        }
        Lit aux = MakeLit(next_var_++, true);
        if (node->kind() == PropKind::kAnd) {
          // aux <=> AND(children): (!aux | c_i) for all i, and
          // (aux | !c_1 | ... | !c_k).
          Clause big{aux};
          for (Lit c : child_literals) {
            cnf_->clauses.push_back({NegateLit(aux), c});
            big.push_back(NegateLit(c));
          }
          cnf_->clauses.push_back(std::move(big));
        } else {
          // aux <=> OR(children): (aux | !c_i) for all i, and
          // (!aux | c_1 | ... | c_k).
          Clause big{NegateLit(aux)};
          for (Lit c : child_literals) {
            cnf_->clauses.push_back({aux, NegateLit(c)});
            big.push_back(c);
          }
          cnf_->clauses.push_back(std::move(big));
        }
        return aux;
      }
      case PropKind::kTrue:
      case PropKind::kFalse:
        // Prop constructors fold constants away below the root; only the
        // root can be constant, and the caller handles that case.
        throw std::logic_error("Tseitin: constant below root");
    }
    throw std::logic_error("Tseitin: unreachable");
  }

  CnfFormula* cnf_;
  std::uint32_t next_var_;
  std::unordered_map<const PropNode*, Lit> cache_;
};

}  // namespace

TseitinResult TseitinTransform(const PropFormula& formula,
                               std::uint32_t original_variable_count) {
  TseitinResult result;
  result.original_variable_count = original_variable_count;
  result.cnf.variable_count = original_variable_count;
  if (formula->kind() == PropKind::kTrue) {
    return result;  // empty CNF: every assignment satisfies
  }
  if (formula->kind() == PropKind::kFalse) {
    result.cnf.clauses.push_back({});  // empty clause: unsatisfiable
    return result;
  }
  Encoder encoder(&result.cnf, original_variable_count);
  Lit root = encoder.Encode(formula);
  result.cnf.clauses.push_back({root});
  result.cnf.variable_count = encoder.next_var();
  return result;
}

}  // namespace swfomc::prop
