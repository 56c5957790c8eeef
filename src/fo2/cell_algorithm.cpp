#include "fo2/cell_algorithm.h"

#include "logic/evaluate.h"
#include "logic/structure.h"

#include <stdexcept>
#include <unordered_map>

#include "fo2/matrix_eval.h"
#include "numeric/combinatorics.h"

namespace swfomc::fo2 {

namespace {

using logic::Formula;
using logic::FormulaKind;
using logic::RelationId;
using numeric::BigRational;

// Core: Shannon-expanded, zero-ary-free matrix. `binomials` is shared
// across the Shannon branches so Pascal rows are built once per solve
// rather than once per composition term.
BigRational SolveMatrix(const Formula& matrix,
                        const logic::Vocabulary& vocabulary,
                        std::uint64_t n, numeric::BinomialTable* binomials,
                        CellStats* stats) {
  std::vector<RelationId> unary_relations, binary_relations;
  for (RelationId id = 0; id < vocabulary.size(); ++id) {
    if (vocabulary.arity(id) == 1) unary_relations.push_back(id);
    if (vocabulary.arity(id) == 2) binary_relations.push_back(id);
  }
  std::size_t m = unary_relations.size();
  std::size_t b = binary_relations.size();
  if (m + b > 20) {
    throw std::invalid_argument("CellAlgorithmWFOMC: too many predicates");
  }
  MatrixEvaluator evaluator(vocabulary, unary_relations, binary_relations);

  // Enumerate 1-types, keeping only those whose diagonal satisfies ψ(x,x).
  std::vector<Cell> cells;
  std::size_t total_cells = std::size_t{1} << (m + b);
  for (std::size_t code = 0; code < total_cells; ++code) {
    Cell cell;
    cell.unary.resize(m);
    cell.diagonal.resize(b);
    cell.weight = BigRational(1);
    for (std::size_t i = 0; i < m; ++i) {
      cell.unary[i] = (code >> i) & 1;
      cell.weight *= cell.unary[i]
                         ? vocabulary.positive_weight(unary_relations[i])
                         : vocabulary.negative_weight(unary_relations[i]);
    }
    for (std::size_t i = 0; i < b; ++i) {
      cell.diagonal[i] = (code >> (m + i)) & 1;
      cell.weight *= cell.diagonal[i]
                         ? vocabulary.positive_weight(binary_relations[i])
                         : vocabulary.negative_weight(binary_relations[i]);
    }
    PairEnv env{&cell, &cell, nullptr, nullptr, /*same_element=*/true};
    if (evaluator.Eval(matrix, env)) {
      cells.push_back(std::move(cell));
    }
  }
  if (stats != nullptr) {
    stats->unary_predicates = m;
    stats->binary_predicates = b;
    // Accumulated across Shannon-expansion branches (one SolveMatrix call
    // per assignment of the zero-ary predicates), like composition_terms.
    stats->cells += total_cells;
    stats->valid_cells += cells.size();
  }
  std::size_t num_cells = cells.size();
  if (num_cells == 0) return BigRational(0);

  // Pairwise tables r_kl: weighted count of off-diagonal assignments with
  // ψ(a,b) ∧ ψ(b,a), a in cell k, b in cell l.
  std::vector<std::vector<BigRational>> r(num_cells,
                                          std::vector<BigRational>(num_cells));
  std::size_t off_diag_bits = 2 * b;
  std::vector<bool> xy(b), yx(b);
  for (std::size_t k = 0; k < num_cells; ++k) {
    for (std::size_t l = k; l < num_cells; ++l) {
      BigRational sum;
      for (std::size_t code = 0; code < (std::size_t{1} << off_diag_bits);
           ++code) {
        BigRational weight(1);
        for (std::size_t i = 0; i < b; ++i) {
          xy[i] = (code >> (2 * i)) & 1;
          yx[i] = (code >> (2 * i + 1)) & 1;
          weight *= xy[i] ? vocabulary.positive_weight(binary_relations[i])
                          : vocabulary.negative_weight(binary_relations[i]);
          weight *= yx[i] ? vocabulary.positive_weight(binary_relations[i])
                          : vocabulary.negative_weight(binary_relations[i]);
        }
        PairEnv forward{&cells[k], &cells[l], &xy, &yx, false};
        if (!evaluator.Eval(matrix, forward)) continue;
        // ψ(b,a): swap the roles of the two elements.
        PairEnv backward{&cells[l], &cells[k], &yx, &xy, false};
        if (!evaluator.Eval(matrix, backward)) continue;
        sum += weight;
      }
      r[k][l] = sum;
      r[l][k] = std::move(sum);
    }
  }

  // Sum over compositions n_1 + ... + n_C = n.
  BigRational total;
  std::uint64_t terms = 0;
  numeric::ForEachComposition(
      n, num_cells, [&](const std::vector<std::uint64_t>& counts) -> bool {
        ++terms;
        BigRational term(binomials->Multinomial(n, counts));
        for (std::size_t l = 0; l < num_cells && !term.IsZero(); ++l) {
          if (counts[l] == 0) continue;
          term *= BigRational::Pow(cells[l].weight,
                                   static_cast<std::int64_t>(counts[l]));
          if (counts[l] >= 2) {
            term *= BigRational::Pow(
                r[l][l],
                static_cast<std::int64_t>(counts[l] * (counts[l] - 1) / 2));
          }
          for (std::size_t k = 0; k < l; ++k) {
            if (counts[k] == 0) continue;
            term *= BigRational::Pow(
                r[k][l], static_cast<std::int64_t>(counts[k] * counts[l]));
          }
        }
        total += term;
        return true;
      });
  if (stats != nullptr) stats->composition_terms += terms;
  return total;
}

BigRational SolveWithShannon(Formula matrix,
                             const logic::Vocabulary& vocabulary,
                             const std::vector<RelationId>& zeroary,
                             std::size_t index, std::uint64_t n,
                             numeric::BinomialTable* binomials,
                             CellStats* stats) {
  if (index == zeroary.size()) {
    return SolveMatrix(matrix, vocabulary, n, binomials, stats);
  }
  RelationId relation = zeroary[index];
  BigRational result;
  for (bool value : {true, false}) {
    const BigRational& weight = value ? vocabulary.positive_weight(relation)
                                      : vocabulary.negative_weight(relation);
    if (weight.IsZero()) continue;
    Formula substituted = SubstituteZeroAry(matrix, relation, value);
    result += weight * SolveWithShannon(std::move(substituted), vocabulary,
                                        zeroary, index + 1, n, binomials,
                                        stats);
  }
  return result;
}

}  // namespace

numeric::BigRational CellAlgorithmWFOMC(const UniversalForm& form,
                                        std::uint64_t domain_size,
                                        CellStats* stats) {
  numeric::BinomialTable binomials;
  return CellAlgorithmWFOMC(form, domain_size, &binomials, stats);
}

numeric::BigRational CellAlgorithmWFOMC(const UniversalForm& form,
                                        std::uint64_t domain_size,
                                        numeric::BinomialTable* binomials,
                                        CellStats* stats) {
  if (domain_size == 0) {
    // Over the empty domain the lineage of ∀x∀y ψ is `true`, so the count
    // is the sum over the 0-ary predicates' assignments = Π_0-ary (w + w̄).
    // NOTE: this is the WFOMC of the universal form itself; the normal-form
    // construction only preserves the original sentence's WFOMC for n >= 1
    // (quantifier pulling assumes a non-empty domain), which is why
    // LiftedWFOMC routes n = 0 elsewhere.
    BigRational result(1);
    for (RelationId id = 0; id < form.vocabulary.size(); ++id) {
      if (form.vocabulary.arity(id) == 0) {
        result *= form.vocabulary.positive_weight(id) +
                  form.vocabulary.negative_weight(id);
      }
    }
    return result;
  }
  std::vector<RelationId> zeroary;
  for (RelationId id = 0; id < form.vocabulary.size(); ++id) {
    if (form.vocabulary.arity(id) == 0) zeroary.push_back(id);
  }
  if (stats != nullptr) stats->zeroary_predicates = zeroary.size();
  return SolveWithShannon(form.matrix, form.vocabulary, zeroary, 0,
                          domain_size, binomials, stats);
}

numeric::BigRational LiftedWFOMC(const logic::Formula& sentence,
                                 const logic::Vocabulary& vocabulary,
                                 std::uint64_t domain_size,
                                 CellStats* stats) {
  if (domain_size == 0) {
    // The normal form preserves WFOMC only for non-empty domains; n = 0
    // has a single world (assignments to 0-ary predicates only) and is
    // evaluated directly.
    logic::Structure empty(vocabulary, 0);
    BigRational result;
    std::uint64_t zeroary = empty.TupleCount();
    for (std::uint64_t mask = 0; mask < (1ULL << zeroary); ++mask) {
      empty.AssignFromMask(mask);
      if (logic::Evaluate(empty, sentence)) result += empty.Weight();
    }
    return result;
  }
  UniversalForm form = ToUniversalForm(sentence, vocabulary);
  return CellAlgorithmWFOMC(form, domain_size, stats);
}

numeric::BigInt LiftedFOMC(const logic::Formula& sentence,
                           const logic::Vocabulary& vocabulary,
                           std::uint64_t domain_size) {
  logic::Vocabulary unweighted = vocabulary;
  for (RelationId id = 0; id < unweighted.size(); ++id) {
    unweighted.SetWeights(id, 1, 1);
  }
  return LiftedWFOMC(sentence, unweighted, domain_size).ToInteger();
}

numeric::BigRational LiftedProbability(const logic::Formula& sentence,
                                       const logic::Vocabulary& vocabulary,
                                       std::uint64_t domain_size) {
  BigRational numerator = LiftedWFOMC(sentence, vocabulary, domain_size);
  BigRational normalizer = vocabulary.TotalWeight(domain_size);
  if (normalizer.IsZero()) {
    throw std::domain_error("LiftedProbability: zero normalizer");
  }
  return numerator / normalizer;
}

}  // namespace swfomc::fo2
