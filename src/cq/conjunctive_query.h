#ifndef SWFOMC_CQ_CONJUNCTIVE_QUERY_H_
#define SWFOMC_CQ_CONJUNCTIVE_QUERY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "logic/formula.h"
#include "logic/vocabulary.h"
#include "numeric/rational.h"

namespace swfomc::cq {

/// A Boolean conjunctive query without self-joins (Section 3.2): an
/// existentially quantified conjunction of positive relational atoms,
/// every atom naming a distinct relation. The evaluator implements the
/// paper's generalized semantics where each variable x_i ranges over its
/// own domain [n_i]; the standard semantics sets all n_i = n.
///
/// Probabilities are per-relation tuple probabilities p_R ∈ [0,1] (the
/// symmetric setting); GammaAcyclicWFOMC takes weight pairs (w, w̄)
/// instead, with p = w / (w + w̄) where w + w̄ != 0.
class ConjunctiveQuery {
 public:
  struct QueryAtom {
    std::string relation;                 // distinct per atom (no self-joins)
    std::vector<std::string> variables;   // repeated variables allowed
  };

  ConjunctiveQuery() = default;

  /// Adds an atom; throws std::invalid_argument on a repeated relation
  /// name (self-join).
  void AddAtom(const std::string& relation,
               std::vector<std::string> variables);

  /// Sets the symmetric tuple probability of a relation (default 1/2).
  void SetProbability(const std::string& relation,
                      numeric::BigRational probability);

  const std::vector<QueryAtom>& atoms() const { return atoms_; }
  const numeric::BigRational& probability(const std::string& relation) const;

  /// All distinct variables, in first-appearance order.
  std::vector<std::string> Variables() const;

  /// Parses "R(x,y), S(y,z), T(z)" — a comma-separated atom list.
  static ConjunctiveQuery FromString(const std::string& text);

  /// The query as an FO sentence ∃x⃗ ⋀ atoms over a fresh vocabulary whose
  /// weights encode the probabilities (w = p, w̄ = 1-p), for cross-checking
  /// against the grounded engine.
  struct AsSentence {
    logic::Formula sentence;
    logic::Vocabulary vocabulary;
  };
  AsSentence ToSentence() const;

  /// Human-readable rendering.
  std::string ToString() const;

 private:
  std::vector<QueryAtom> atoms_;
  std::map<std::string, numeric::BigRational> probabilities_;
};

}  // namespace swfomc::cq

#endif  // SWFOMC_CQ_CONJUNCTIVE_QUERY_H_
