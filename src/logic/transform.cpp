#include "logic/transform.h"

#include <stdexcept>

namespace swfomc::logic {

namespace {

// Substitution with an explicit set of names to avoid when renaming bound
// variables (the free variables of substituted terms).
Formula SubstituteImpl(const Formula& formula,
                       std::map<std::string, Term> substitution,
                       std::set<std::string>* avoid, std::size_t* counter) {
  switch (formula->kind()) {
    case FormulaKind::kAtom:
    case FormulaKind::kEquality: {
      std::vector<Term> arguments = formula->arguments();
      bool changed = false;
      for (Term& t : arguments) {
        if (t.IsVariable()) {
          auto it = substitution.find(t.name);
          if (it != substitution.end()) {
            t = it->second;
            changed = true;
          }
        }
      }
      if (!changed) return formula;
      if (formula->kind() == FormulaKind::kAtom) {
        return Atom(formula->relation(), std::move(arguments));
      }
      return Equals(arguments[0], arguments[1]);
    }
    case FormulaKind::kForall:
    case FormulaKind::kExists: {
      std::string bound = formula->variable();
      substitution.erase(bound);
      if (substitution.empty()) return formula;
      Formula body = formula->child();
      if (avoid->contains(bound)) {
        // Rename the bound variable to avoid capture.
        std::string fresh;
        do {
          fresh = "v" + std::to_string((*counter)++);
        } while (avoid->contains(fresh));
        body = RenameFreeVariable(body, bound, fresh);
        bound = fresh;
      }
      Formula new_body =
          SubstituteImpl(body, std::move(substitution), avoid, counter);
      if (new_body.get() == formula->child().get() &&
          bound == formula->variable()) {
        return formula;
      }
      return formula->kind() == FormulaKind::kForall
                 ? Forall(bound, std::move(new_body))
                 : Exists(bound, std::move(new_body));
    }
    default:
      return MapChildren(formula, [&](const Formula& child) {
        return SubstituteImpl(child, substitution, avoid, counter);
      });
  }
}

Formula NNFImpl(const Formula& formula, bool negated) {
  switch (formula->kind()) {
    case FormulaKind::kTrue:
      return negated ? False() : True();
    case FormulaKind::kFalse:
      return negated ? True() : False();
    case FormulaKind::kAtom:
    case FormulaKind::kEquality:
      return negated ? Not(formula) : formula;
    case FormulaKind::kNot:
      return NNFImpl(formula->child(), !negated);
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      bool is_and = (formula->kind() == FormulaKind::kAnd) != negated;
      std::vector<Formula> children;
      children.reserve(formula->children().size());
      for (const Formula& child : formula->children()) {
        children.push_back(NNFImpl(child, negated));
      }
      return is_and ? And(std::move(children)) : Or(std::move(children));
    }
    case FormulaKind::kImplies: {
      // a => b is !a | b.
      Formula a = NNFImpl(formula->child(0), !negated);
      Formula b = NNFImpl(formula->child(1), negated);
      return negated ? And(std::move(a), std::move(b))
                     : Or(std::move(a), std::move(b));
    }
    case FormulaKind::kIff: {
      // a <=> b  is  (a & b) | (!a & !b); negated: (a & !b) | (!a & b).
      Formula a_pos = NNFImpl(formula->child(0), false);
      Formula a_neg = NNFImpl(formula->child(0), true);
      Formula b_pos = NNFImpl(formula->child(1), false);
      Formula b_neg = NNFImpl(formula->child(1), true);
      if (negated) {
        return Or(And(a_pos, b_neg), And(a_neg, b_pos));
      }
      return Or(And(a_pos, b_pos), And(a_neg, b_neg));
    }
    case FormulaKind::kForall:
    case FormulaKind::kExists: {
      bool is_forall = (formula->kind() == FormulaKind::kForall) != negated;
      Formula body = NNFImpl(formula->child(), negated);
      return is_forall ? Forall(formula->variable(), std::move(body))
                       : Exists(formula->variable(), std::move(body));
    }
  }
  throw std::logic_error("NNFImpl: unreachable");
}

}  // namespace

namespace internal {

Formula WithChildren(const Formula& formula, std::vector<Formula> children) {
  switch (formula->kind()) {
    case FormulaKind::kNot:
      return Not(children[0]);
    case FormulaKind::kAnd:
      return And(std::move(children));
    case FormulaKind::kOr:
      return Or(std::move(children));
    case FormulaKind::kImplies:
      return Implies(children[0], children[1]);
    case FormulaKind::kIff:
      return Iff(children[0], children[1]);
    case FormulaKind::kForall:
      return Forall(formula->variable(), children[0]);
    case FormulaKind::kExists:
      return Exists(formula->variable(), children[0]);
    default:
      return formula;  // a leaf has no children to rebuild over
  }
}

}  // namespace internal

Formula ReplaceNode(const Formula& formula, const Formula& target,
                    const Formula& replacement) {
  if (formula.get() == target.get()) return replacement;
  return MapChildren(formula, [&](const Formula& child) {
    return ReplaceNode(child, target, replacement);
  });
}

Formula Substitute(const Formula& formula,
                   const std::map<std::string, Term>& substitution) {
  if (substitution.empty()) return formula;
  std::set<std::string> avoid;
  for (const auto& [name, term] : substitution) {
    avoid.insert(name);
    if (term.IsVariable()) avoid.insert(term.name);
  }
  std::size_t counter = 0;
  return SubstituteImpl(formula, substitution, &avoid, &counter);
}

Formula SubstituteConstant(const Formula& formula, const std::string& variable,
                           std::uint64_t value) {
  return Substitute(formula, {{variable, Term::Const(value)}});
}

Formula RenameFreeVariable(const Formula& formula, const std::string& from,
                           const std::string& to) {
  return Substitute(formula, {{from, Term::Var(to)}});
}

Formula ToNNF(const Formula& formula) { return NNFImpl(formula, false); }

Formula RenameApart(const Formula& formula, std::size_t* counter) {
  switch (formula->kind()) {
    case FormulaKind::kForall:
    case FormulaKind::kExists: {
      std::string fresh = "v" + std::to_string((*counter)++);
      Formula body =
          RenameFreeVariable(formula->child(), formula->variable(), fresh);
      body = RenameApart(body, counter);
      return formula->kind() == FormulaKind::kForall
                 ? Forall(fresh, std::move(body))
                 : Exists(fresh, std::move(body));
    }
    default:
      return MapChildren(formula, [&](const Formula& child) {
        return RenameApart(child, counter);
      });
  }
}

namespace {

// Pulls quantifiers out of an NNF, renamed-apart formula.
Formula PullQuantifiers(const Formula& formula,
                        std::vector<PrenexForm::QuantifiedVar>* prefix) {
  switch (formula->kind()) {
    case FormulaKind::kForall:
    case FormulaKind::kExists:
      prefix->push_back(
          {formula->kind() == FormulaKind::kForall, formula->variable()});
      return PullQuantifiers(formula->child(), prefix);
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
      return MapChildren(formula, [&](const Formula& child) {
        return PullQuantifiers(child, prefix);
      });
    default:
      return formula;
  }
}

}  // namespace

PrenexForm ToPrenex(const Formula& formula, std::size_t* counter) {
  Formula nnf = ToNNF(formula);
  Formula renamed = RenameApart(nnf, counter);
  PrenexForm result;
  result.matrix = PullQuantifiers(renamed, &result.prefix);
  return result;
}

Formula FromPrenex(const PrenexForm& prenex) {
  Formula result = prenex.matrix;
  for (std::size_t i = prenex.prefix.size(); i-- > 0;) {
    const auto& qv = prenex.prefix[i];
    result = qv.is_forall ? Forall(qv.variable, std::move(result))
                          : Exists(qv.variable, std::move(result));
  }
  return result;
}

bool ContainsQuantifier(const Formula& formula) {
  if (formula->kind() == FormulaKind::kForall ||
      formula->kind() == FormulaKind::kExists) {
    return true;
  }
  for (const Formula& child : formula->children()) {
    if (ContainsQuantifier(child)) return true;
  }
  return false;
}

namespace {

bool ContainsExistentialImpl(const Formula& formula, bool negated) {
  switch (formula->kind()) {
    case FormulaKind::kExists:
      if (!negated) return true;
      return ContainsExistentialImpl(formula->child(), negated);
    case FormulaKind::kForall:
      if (negated) return true;
      return ContainsExistentialImpl(formula->child(), negated);
    case FormulaKind::kNot:
      return ContainsExistentialImpl(formula->child(), !negated);
    default:
      for (const Formula& child : formula->children()) {
        if (ContainsExistentialImpl(child, negated)) return true;
      }
      return false;
  }
}

}  // namespace

bool ContainsExistentialInNNFSense(const Formula& formula) {
  return ContainsExistentialImpl(formula, false);
}

}  // namespace swfomc::logic
