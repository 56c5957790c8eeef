#ifndef SWFOMC_IO_NNF_FORMAT_H_
#define SWFOMC_IO_NNF_FORMAT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "nnf/circuit.h"
#include "nnf/lifted_circuit.h"
#include "numeric/rational.h"
#include "wmc/weights.h"

namespace swfomc::io {

/// A serialized compiled query: the d-DNNF circuit plus the weight vector
/// it was compiled under and (optionally) the value it must evaluate to —
/// everything `swfomc eval` needs to serve or verify a circuit without
/// the original model file.
struct NnfDocument {
  nnf::Circuit circuit;
  /// Sized to circuit.variable_count(); unlisted variables weigh (1, 1).
  wmc::WeightMap weights;
  /// The expected circuit.Evaluate(weights) (the `e` line) — lets
  /// `swfomc eval --check` replay a compile→eval pipeline bit-exactly.
  std::optional<numeric::BigRational> expect;
};

/// Parses the c2d-style `.nnf` dialect:
///
///   c free-text comment
///   nnf V E n            -- header, first: V nodes, E edges, n variables
///   w VAR W WBAR         -- optional; both weights of variable VAR
///                           (1-based) as exact rationals
///   t K                  -- optional, once; the nodes count ¬Φ and the
///                           value is T − WMC, T = Π_{v<=K} (w_v + w̄_v)
///                           (nnf::Circuit::SetComplement)
///   e VALUE              -- optional, once; expected evaluation result
///   L l                  -- literal node, DIMACS literal (±1-based var)
///   A c i1 .. ic         -- AND with c children (A 0 = TRUE)
///   O j c i1 .. ic       -- OR deciding variable j (0 = none) with c
///                           children (O 0 0 = FALSE)
///
/// Node lines assign ids 0, 1, .. V-1 in order; children must reference
/// earlier ids (the file is a topologically ordered DAG) and the root is
/// the last node, as written by c2d/MiniC2D. Weight, `t` and `e` lines
/// are this dialect's extension — a file without them is plain c2d output
/// and evaluates as unweighted model counting. The value is the weighted
/// model count over all n declared variables: ORs need not be smooth, and
/// the root need not mention every variable (nnf::Circuit smooths).
///
/// Malformed input — a missing or wrong-count header, children that do
/// not precede their parent, out-of-range literals or decisions, a bad
/// edge total, duplicate weight lines, an AND whose children share a
/// variable (reported at the AND's line) — throws io::ParseError with
/// `source` and the offending line/column; never crashes.
NnfDocument ParseNnf(std::string_view text, std::string_view source = "");

/// Canonical rendering: header, weight lines for non-(1, 1) variables in
/// ascending order, the `t` and `e` lines when present, then one line per
/// node in id order. PrintNnf is a parser fixpoint: ParseNnf(PrintNnf(d)) prints
/// identically, which the round-trip tests in tests/nnf_test.cpp rely on.
std::string PrintNnf(const NnfDocument& document);

/// A serialized lifted circuit: the domain-parametric circuit with its
/// relation table (names + compile-time weights) and, optionally, one
/// pinned (domain size, value) pair for `swfomc eval --check`.
struct LiftedNnfDocument {
  nnf::LiftedCircuit circuit;
  /// The `e N VALUE` line: circuit.Evaluate(N) must equal VALUE under
  /// the compile-time weights. Also serves as the default domain size when
  /// `swfomc eval` is run without --domain.
  std::optional<std::pair<std::uint64_t, numeric::BigRational>> expect;
};

/// Parses the lifted `.nnf` dialect (counting-node extension):
///
///   c free-text comment
///   lnnf V E R           -- header, first: V nodes, E edges, R relations
///   r NAME W WBAR        -- exactly R of these, assigning relation ids
///                           0, 1, .. R-1 in order; W/WBAR are the
///                           compile-time weights as exact rationals
///   t A_1 .. A_k         -- optional, once; the nodes count ¬Φ and the
///                           value is T(n) minus theirs, T over relations
///                           1..k of arities A_i (each 0, 1 or 2; k <= R)
///                           (nnf::LiftedCircuit::SetComplement)
///   e N VALUE            -- optional, once; expected Evaluate(N)
///   K VALUE              -- constant node
///   W l                  -- weight leaf, DIMACS-style ±1-based relation
///                           reference (W 2 = w of relation 1, W -2 = w̄)
///   A c i1 .. ic         -- product of c children (A 0 = 1)
///   O c i1 .. ic         -- sum of c children (O 0 = 0)
///   C m c i1 .. ic       -- counting node over m cells; c must equal
///                           m + m(m+1)/2 (the m cell weights, then the
///                           pair sums r_kl for k <= l, row-major)
///
/// Node lines assign ids 0, 1, .. V-1 in order; children must reference
/// earlier ids and the root is the last node, exactly like the grounded
/// dialect. Malformed input throws io::ParseError with `source` and the
/// offending line/column; never crashes.
LiftedNnfDocument ParseLiftedNnf(std::string_view text,
                                 std::string_view source = "");

/// Canonical rendering: header, relation lines in id order, the `t` and
/// `e` lines when present, then one line per node in id order. A parser
/// fixpoint, like PrintNnf.
std::string PrintLiftedNnf(const LiftedNnfDocument& document);

/// Either circuit dialect, distinguished by the header token.
using AnyNnfDocument = std::variant<NnfDocument, LiftedNnfDocument>;

/// Parses whichever dialect the header announces: 'nnf V E n' → grounded
/// NnfDocument, 'lnnf V E R' → LiftedNnfDocument.
AnyNnfDocument ParseAnyNnf(std::string_view text, std::string_view source = "");

/// Reads and parses a `.nnf` file of either dialect.
AnyNnfDocument LoadAnyNnfFile(const std::string& path);

/// The file's header token ('nnf' or 'lnnf' in a well-formed file), read
/// without parsing the rest; empty when the file cannot be read or has no
/// header line.
std::string NnfHeaderToken(const std::string& path);

}  // namespace swfomc::io

#endif  // SWFOMC_IO_NNF_FORMAT_H_
