#ifndef SWFOMC_NUMERIC_BIGINT_H_
#define SWFOMC_NUMERIC_BIGINT_H_

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace swfomc::numeric {

/// Arbitrary-precision signed integer.
///
/// Model counts in symmetric WFOMC grow as 2^Θ(n²) (there are 2^|Tup(n)|
/// labeled structures over a domain of size n), so every counting path in
/// this library uses exact arbitrary-precision arithmetic. GMP is not a
/// dependency; this is a from-scratch implementation with schoolbook
/// multiplication, a Karatsuba fast path, Knuth long division, and
/// Lehmer's gcd.
///
/// Representation: a value that fits in int64 is stored *inline* in a
/// single machine word (`small_`, with `limbs_` empty) — no heap
/// allocation, and every arithmetic operation on two inline operands is a
/// handful of instructions with an overflow check. Values outside int64
/// escape to sign-magnitude heap limbs (32-bit, little-endian). The form
/// is canonical: a result that fits int64 is always demoted back to the
/// inline word, so equality is field-wise and hashing via ToString stays
/// stable. This mirrors the small-value fast paths of Cachet/sharpSAT —
/// counter intermediates are overwhelmingly single-word.
///
/// The class is a regular value type: copyable, movable, totally ordered,
/// hashable via ToString. All operations are exact; division truncates
/// toward zero (C++ semantics), and DivMod returns both quotient and
/// remainder with |r| < |b| and sign(r) == sign(a) (or r == 0).
class BigInt {
 public:
  /// Zero.
  BigInt() = default;
  /// From native signed integer (always inline).
  BigInt(std::int64_t value) : small_(value) {}  // NOLINT(google-explicit-constructor)
  /// From native unsigned integer.
  static BigInt FromUnsigned(std::uint64_t value);
  /// Parses a decimal string with optional leading '-'. Throws
  /// std::invalid_argument on malformed input.
  static BigInt FromString(std::string_view text);

  /// True iff the value is zero.
  bool IsZero() const { return limbs_.empty() && small_ == 0; }
  /// True iff the value is strictly negative.
  bool IsNegative() const {
    return limbs_.empty() ? small_ < 0 : negative_;
  }
  /// True iff the value is one.
  bool IsOne() const { return limbs_.empty() && small_ == 1; }
  /// Sign as -1, 0, or +1.
  int Sign() const;

  /// Number of bits in the magnitude (0 for zero).
  std::size_t BitLength() const;

  /// Decimal string rendering.
  std::string ToString() const;

  /// Returns the value as int64 if it fits; throws std::overflow_error
  /// otherwise.
  std::int64_t ToInt64() const;
  /// True iff the value fits in int64 — equivalently (by the canonical
  /// representation) iff the value is stored inline.
  bool FitsInt64() const { return limbs_.empty(); }
  /// Heap bytes owned by this value (the limb buffer's capacity; 0 for
  /// inline values). Used by byte-accounted caches.
  std::size_t HeapBytes() const {
    return limbs_.capacity() * sizeof(std::uint32_t);
  }
  /// Lossy conversion to double (for reporting only; never used in
  /// counting paths).
  double ToDouble() const;

  BigInt operator-() const;

  BigInt& operator+=(const BigInt& other);
  BigInt& operator-=(const BigInt& other);
  BigInt& operator*=(const BigInt& other);
  BigInt& operator/=(const BigInt& other);

  friend BigInt operator+(BigInt a, const BigInt& b) { return a += b; }
  friend BigInt operator-(BigInt a, const BigInt& b) { return a -= b; }
  friend BigInt operator*(BigInt a, const BigInt& b) { return a *= b; }
  friend BigInt operator/(BigInt a, const BigInt& b) { return a /= b; }

  /// Simultaneous quotient and remainder; truncated division.
  /// Throws std::domain_error when divisor is zero.
  static void DivMod(const BigInt& a, const BigInt& b, BigInt* quotient,
                     BigInt* remainder);

  /// a^exponent with exponent >= 0 (throws std::domain_error otherwise).
  static BigInt Pow(const BigInt& base, std::uint64_t exponent);
  /// Greatest common divisor of |a| and |b| (non-negative result).
  ///
  /// Lehmer's algorithm (Knuth, TAOCP 4.5.2, Algorithm L): while the
  /// larger operand needs more than one word, a run of Euclid quotient
  /// steps is found from the top 32 bits of both operands alone and
  /// applied as two linear combinations over the limbs, retiring about
  /// 30 bits per O(limbs) pass; a run that cannot settle even its first
  /// quotient takes one long-division step instead. Single-word Euclid
  /// finishes. Cost O(n²) limb operations for n-limb operands, with
  /// O(n) quotient steps done in one word each rather than one long
  /// division each.
  static BigInt Gcd(BigInt a, BigInt b);

  /// Arithmetic right shift of the magnitude by `bits` (division of the
  /// magnitude by 2^bits, sign preserved; returns 0 if all bits shifted out).
  BigInt ShiftRight(std::size_t bits) const;

  friend bool operator==(const BigInt& a, const BigInt& b) {
    // Canonical form (inline iff the value fits int64, sign normalized,
    // no trailing zero limbs) makes equality field-wise: mixed inline /
    // heap representations of the same value cannot exist.
    return a.small_ == b.small_ && a.negative_ == b.negative_ &&
           a.limbs_ == b.limbs_;
  }
  friend bool operator!=(const BigInt& a, const BigInt& b) { return !(a == b); }
  friend bool operator<(const BigInt& a, const BigInt& b);
  friend bool operator>(const BigInt& a, const BigInt& b) { return b < a; }
  friend bool operator<=(const BigInt& a, const BigInt& b) { return !(b < a); }
  friend bool operator>=(const BigInt& a, const BigInt& b) { return !(a < b); }

  friend std::ostream& operator<<(std::ostream& os, const BigInt& value);

 private:
  using MagnitudeSpan = std::span<const std::uint32_t>;

  /// True when the value is stored in `small_` (iff it fits int64).
  bool IsInline() const { return limbs_.empty(); }
  /// |small_| without UB on INT64_MIN. Inline form only.
  std::uint64_t InlineMagnitude() const;
  /// The magnitude as a limb span; inline values are decomposed into the
  /// caller-provided 2-limb scratch buffer (no allocation).
  MagnitudeSpan MagnitudeView(std::uint32_t scratch[2]) const;

  /// Canonicalizing assignment from an (untrimmed) magnitude vector:
  /// demotes to the inline word whenever the value fits int64.
  void SetFromMagnitude(std::vector<std::uint32_t> magnitude, bool negative);
  /// Same, from a 64-bit magnitude (negative with magnitude 2^63 is
  /// INT64_MIN and stays inline).
  void SetFromUnsignedMagnitude(std::uint64_t magnitude, bool negative);
  /// Demotes a trimmed heap value back inline when it fits int64.
  void MaybeDemote();
  void NegateInPlace();

  /// Sign-magnitude addition of `other` (negated when `negate_other`)
  /// into *this through the limb kernels; handles every non-inline or
  /// overflowing case.
  void AddGeneric(const BigInt& other, bool negate_other);

  // Magnitude kernels over limb spans (operands may be inline-decomposed
  // scratch buffers or heap limb arrays).
  static int CompareMagnitude(MagnitudeSpan a, MagnitudeSpan b);
  static std::vector<std::uint32_t> AddMagnitude(MagnitudeSpan a,
                                                 MagnitudeSpan b);
  // Requires |a| >= |b|.
  static std::vector<std::uint32_t> SubMagnitude(MagnitudeSpan a,
                                                 MagnitudeSpan b);
  static std::vector<std::uint32_t> MulMagnitude(MagnitudeSpan a,
                                                 MagnitudeSpan b);
  static std::vector<std::uint32_t> MulSchoolbook(MagnitudeSpan a,
                                                  MagnitudeSpan b);
  static std::vector<std::uint32_t> MulKaratsuba(MagnitudeSpan a,
                                                 MagnitudeSpan b);
  // Long division of magnitudes; quotient and remainder out-params.
  static void DivModMagnitude(MagnitudeSpan a, MagnitudeSpan b,
                              std::vector<std::uint32_t>* quotient,
                              std::vector<std::uint32_t>* remainder);

  // Inline value when limbs_ is empty; otherwise 0.
  std::int64_t small_ = 0;
  // Heap form: little-endian 32-bit limbs of the magnitude; empty means
  // the value is inline. Invariants: no trailing zero limb; non-empty
  // only when the value does not fit int64; negative_ is false in the
  // inline form (the sign lives in small_).
  std::vector<std::uint32_t> limbs_;
  bool negative_ = false;
};

}  // namespace swfomc::numeric

#endif  // SWFOMC_NUMERIC_BIGINT_H_
