#include "numeric/bigint.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "numeric/decimal.h"

namespace swfomc::numeric {

namespace {

constexpr std::uint64_t kBase = 1ULL << 32;
constexpr std::uint64_t kTwo63 = 1ULL << 63;
constexpr std::size_t kKaratsubaThreshold = 32;

void TrimZeros(std::vector<std::uint32_t>* limbs) {
  while (!limbs->empty() && limbs->back() == 0) limbs->pop_back();
}

std::uint64_t WordGcd(std::uint64_t x, std::uint64_t y) {
  while (y != 0) {
    std::uint64_t t = x % y;
    x = y;
    y = t;
  }
  return x;
}

// The value of a magnitude of at most two limbs.
std::uint64_t Low64(std::span<const std::uint32_t> magnitude) {
  std::uint64_t value = magnitude.empty() ? 0 : magnitude[0];
  if (magnitude.size() > 1) {
    value |= static_cast<std::uint64_t>(magnitude[1]) << 32;
  }
  return value;
}

// Bits [shift, shift + 32) of a magnitude.
std::int64_t TopWord(std::span<const std::uint32_t> magnitude,
                     std::size_t shift) {
  std::size_t limb = shift / 32;
  std::uint64_t low = limb < magnitude.size() ? magnitude[limb] : 0;
  std::uint64_t high = limb + 1 < magnitude.size() ? magnitude[limb + 1] : 0;
  return static_cast<std::int64_t>(((high << 32 | low) >> (shift % 32)) &
                                   0xFFFFFFFFu);
}

// *out = a·u + b·v for |u| >= |v|, where the caller knows the result lies
// in [0, u]. |a| and |b| are at most 2^32, so each column fits __int128.
void LinearCombination(std::span<const std::uint32_t> u,
                       std::span<const std::uint32_t> v, std::int64_t a,
                       std::int64_t b, std::vector<std::uint32_t>* out) {
  out->resize(u.size());
  __int128 carry = 0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    carry += static_cast<__int128>(a) * u[i];
    if (i < v.size()) carry += static_cast<__int128>(b) * v[i];
    (*out)[i] = static_cast<std::uint32_t>(carry);
    carry >>= 32;  // arithmetic: a negative column borrows from the next
  }
  TrimZeros(out);
}

}  // namespace

std::uint64_t BigInt::InlineMagnitude() const {
  // Negate in unsigned space: well-defined for INT64_MIN.
  return small_ < 0 ? ~static_cast<std::uint64_t>(small_) + 1
                    : static_cast<std::uint64_t>(small_);
}

BigInt::MagnitudeSpan BigInt::MagnitudeView(std::uint32_t scratch[2]) const {
  if (!IsInline()) return {limbs_.data(), limbs_.size()};
  std::uint64_t magnitude = InlineMagnitude();
  std::size_t count = 0;
  while (magnitude != 0) {
    scratch[count++] = static_cast<std::uint32_t>(magnitude);
    magnitude >>= 32;
  }
  return {scratch, count};
}

void BigInt::SetFromUnsignedMagnitude(std::uint64_t magnitude, bool negative) {
  if (negative ? magnitude <= kTwo63 : magnitude < kTwo63) {
    small_ = negative ? static_cast<std::int64_t>(~magnitude + 1)
                      : static_cast<std::int64_t>(magnitude);
    limbs_.clear();
    negative_ = false;
    return;
  }
  limbs_.clear();
  limbs_.push_back(static_cast<std::uint32_t>(magnitude));
  limbs_.push_back(static_cast<std::uint32_t>(magnitude >> 32));
  negative_ = negative;
  small_ = 0;
}

void BigInt::SetFromMagnitude(std::vector<std::uint32_t> magnitude,
                              bool negative) {
  TrimZeros(&magnitude);
  if (magnitude.size() <= 2) {
    SetFromUnsignedMagnitude(Low64(magnitude), negative);
    return;
  }
  limbs_ = std::move(magnitude);
  negative_ = negative;
  small_ = 0;
}

void BigInt::MaybeDemote() {
  if (limbs_.empty()) {
    negative_ = false;
    small_ = 0;
    return;
  }
  if (limbs_.size() > 2) return;
  std::uint64_t magnitude = Low64(limbs_);
  if (negative_ ? magnitude > kTwo63 : magnitude >= kTwo63) return;
  bool negative = negative_;
  limbs_.clear();
  negative_ = false;
  small_ = negative ? static_cast<std::int64_t>(~magnitude + 1)
                    : static_cast<std::int64_t>(magnitude);
}

void BigInt::NegateInPlace() {
  if (IsInline()) {
    if (small_ == std::numeric_limits<std::int64_t>::min()) {
      SetFromUnsignedMagnitude(kTwo63, false);
    } else {
      small_ = -small_;
    }
    return;
  }
  negative_ = !negative_;
  // Negating heap +2^63 yields INT64_MIN, which must go back inline.
  MaybeDemote();
}

BigInt BigInt::FromUnsigned(std::uint64_t value) {
  BigInt result;
  result.SetFromUnsignedMagnitude(value, false);
  return result;
}

BigInt BigInt::FromString(std::string_view text) {
  if (text.empty()) throw std::invalid_argument("BigInt: empty string");
  bool negative = false;
  std::size_t start = 0;
  if (text[0] == '-' || text[0] == '+') {
    negative = text[0] == '-';
    start = 1;
  }
  if (start == text.size()) throw std::invalid_argument("BigInt: no digits");
  // A decimal chunk of `text` (never empty), or "invalid digit".
  auto digits = [&](std::size_t begin, std::size_t length) {
    std::uint64_t value = 0;
    if (ParseDecimal(text.substr(begin, length), &value) !=
        DecimalError::kNone) {
      throw std::invalid_argument("BigInt: invalid digit");
    }
    return value;
  };
  if (text.size() - start <= 18) {
    // Up to 18 digits always fit: 10^18 < 2^63.
    BigInt result;
    result.SetFromUnsignedMagnitude(digits(start, text.size() - start),
                                    negative);
    return result;
  }
  std::vector<std::uint32_t> magnitude;
  // Process 9 decimal digits at a time: magnitude = magnitude * 10^9 + chunk.
  std::size_t i = start;
  while (i < text.size()) {
    std::size_t chunk_len = std::min<std::size_t>(9, text.size() - i);
    std::uint64_t chunk = digits(i, chunk_len);
    i += chunk_len;
    std::uint32_t chunk_base = 1;
    for (std::size_t j = 0; j < chunk_len; ++j) chunk_base *= 10;
    std::uint64_t carry = chunk;
    for (std::uint32_t& limb : magnitude) {
      std::uint64_t cur = static_cast<std::uint64_t>(limb) * chunk_base + carry;
      limb = static_cast<std::uint32_t>(cur & 0xFFFFFFFFu);
      carry = cur >> 32;
    }
    while (carry != 0) {
      magnitude.push_back(static_cast<std::uint32_t>(carry & 0xFFFFFFFFu));
      carry >>= 32;
    }
  }
  BigInt result;
  result.SetFromMagnitude(std::move(magnitude), negative);
  return result;
}

int BigInt::Sign() const {
  if (IsInline()) return (small_ > 0) - (small_ < 0);
  return negative_ ? -1 : 1;
}

std::size_t BigInt::BitLength() const {
  if (IsInline()) {
    return static_cast<std::size_t>(std::bit_width(InlineMagnitude()));
  }
  std::uint32_t top = limbs_.back();
  return (limbs_.size() - 1) * 32 +
         static_cast<std::size_t>(std::bit_width(top));
}

std::string BigInt::ToString() const {
  if (IsInline()) return std::to_string(small_);
  // Repeatedly divide the magnitude by 10^9.
  std::vector<std::uint32_t> magnitude = limbs_;
  std::vector<std::uint32_t> chunks;  // base-10^9 digits, little-endian
  while (!magnitude.empty()) {
    std::uint64_t remainder = 0;
    for (std::size_t i = magnitude.size(); i-- > 0;) {
      std::uint64_t cur = (remainder << 32) | magnitude[i];
      magnitude[i] = static_cast<std::uint32_t>(cur / 1000000000u);
      remainder = cur % 1000000000u;
    }
    TrimZeros(&magnitude);
    chunks.push_back(static_cast<std::uint32_t>(remainder));
  }
  std::string out;
  if (negative_) out.push_back('-');
  out += std::to_string(chunks.back());
  for (std::size_t i = chunks.size() - 1; i-- > 0;) {
    std::string part = std::to_string(chunks[i]);
    out.append(9 - part.size(), '0');
    out += part;
  }
  return out;
}

std::int64_t BigInt::ToInt64() const {
  if (!IsInline()) throw std::overflow_error("BigInt: does not fit in int64");
  return small_;
}

double BigInt::ToDouble() const {
  if (IsInline()) return static_cast<double>(small_);
  double result = 0.0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    result = result * 4294967296.0 + static_cast<double>(limbs_[i]);
  }
  return negative_ ? -result : result;
}

BigInt BigInt::operator-() const {
  BigInt result = *this;
  result.NegateInPlace();
  return result;
}

int BigInt::CompareMagnitude(MagnitudeSpan a, MagnitudeSpan b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

std::vector<std::uint32_t> BigInt::AddMagnitude(MagnitudeSpan a,
                                                MagnitudeSpan b) {
  MagnitudeSpan longer = a.size() >= b.size() ? a : b;
  MagnitudeSpan shorter = a.size() >= b.size() ? b : a;
  std::vector<std::uint32_t> result;
  result.reserve(longer.size() + 1);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < longer.size(); ++i) {
    std::uint64_t sum = carry + longer[i];
    if (i < shorter.size()) sum += shorter[i];
    result.push_back(static_cast<std::uint32_t>(sum & 0xFFFFFFFFu));
    carry = sum >> 32;
  }
  if (carry != 0) result.push_back(static_cast<std::uint32_t>(carry));
  return result;
}

std::vector<std::uint32_t> BigInt::SubMagnitude(MagnitudeSpan a,
                                                MagnitudeSpan b) {
  std::vector<std::uint32_t> result;
  result.reserve(a.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a[i]) - borrow;
    if (i < b.size()) diff -= b[i];
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    result.push_back(static_cast<std::uint32_t>(diff));
  }
  TrimZeros(&result);
  return result;
}

std::vector<std::uint32_t> BigInt::MulSchoolbook(MagnitudeSpan a,
                                                 MagnitudeSpan b) {
  if (a.empty() || b.empty()) return {};
  std::vector<std::uint32_t> result(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      std::uint64_t cur = static_cast<std::uint64_t>(a[i]) * b[j] +
                          result[i + j] + carry;
      result[i + j] = static_cast<std::uint32_t>(cur & 0xFFFFFFFFu);
      carry = cur >> 32;
    }
    std::size_t k = i + b.size();
    while (carry != 0) {
      std::uint64_t cur = result[k] + carry;
      result[k] = static_cast<std::uint32_t>(cur & 0xFFFFFFFFu);
      carry = cur >> 32;
      ++k;
    }
  }
  TrimZeros(&result);
  return result;
}

std::vector<std::uint32_t> BigInt::MulKaratsuba(MagnitudeSpan a,
                                                MagnitudeSpan b) {
  if (a.size() < kKaratsubaThreshold || b.size() < kKaratsubaThreshold) {
    return MulSchoolbook(a, b);
  }
  std::size_t half = std::max(a.size(), b.size()) / 2;
  auto low = [half](MagnitudeSpan v) {
    MagnitudeSpan part = v.subspan(0, std::min(half, v.size()));
    while (!part.empty() && part.back() == 0) part = part.first(part.size() - 1);
    return part;
  };
  auto high = [half](MagnitudeSpan v) {
    return v.size() > half ? v.subspan(half) : MagnitudeSpan{};
  };
  MagnitudeSpan a_low = low(a);
  MagnitudeSpan a_high = high(a);
  MagnitudeSpan b_low = low(b);
  MagnitudeSpan b_high = high(b);

  std::vector<std::uint32_t> z0 = MulKaratsuba(a_low, b_low);
  std::vector<std::uint32_t> z2 = MulKaratsuba(a_high, b_high);
  std::vector<std::uint32_t> sum_a = AddMagnitude(a_low, a_high);
  std::vector<std::uint32_t> sum_b = AddMagnitude(b_low, b_high);
  std::vector<std::uint32_t> z1 = MulKaratsuba(sum_a, sum_b);
  z1 = SubMagnitude(z1, z0);
  z1 = SubMagnitude(z1, z2);

  // result = z0 + z1 << (32*half) + z2 << (64*half)
  std::vector<std::uint32_t> result(std::max(
      {z0.size(), z1.size() + half, z2.size() + 2 * half}) + 1, 0);
  auto add_at = [&result](const std::vector<std::uint32_t>& v,
                          std::size_t offset) {
    std::uint64_t carry = 0;
    std::size_t i = 0;
    for (; i < v.size(); ++i) {
      std::uint64_t cur = static_cast<std::uint64_t>(result[offset + i]) +
                          v[i] + carry;
      result[offset + i] = static_cast<std::uint32_t>(cur & 0xFFFFFFFFu);
      carry = cur >> 32;
    }
    while (carry != 0) {
      std::uint64_t cur = result[offset + i] + carry;
      result[offset + i] = static_cast<std::uint32_t>(cur & 0xFFFFFFFFu);
      carry = cur >> 32;
      ++i;
    }
  };
  add_at(z0, 0);
  add_at(z1, half);
  add_at(z2, 2 * half);
  TrimZeros(&result);
  return result;
}

std::vector<std::uint32_t> BigInt::MulMagnitude(MagnitudeSpan a,
                                                MagnitudeSpan b) {
  return MulKaratsuba(a, b);
}

void BigInt::DivModMagnitude(MagnitudeSpan a, MagnitudeSpan b,
                             std::vector<std::uint32_t>* quotient,
                             std::vector<std::uint32_t>* remainder) {
  quotient->clear();
  remainder->clear();
  if (b.empty()) throw std::domain_error("BigInt: division by zero");
  if (CompareMagnitude(a, b) < 0) {
    remainder->assign(a.begin(), a.end());
    return;
  }
  if (b.size() == 1) {
    // Fast path: single-limb divisor.
    std::uint64_t divisor = b[0];
    quotient->assign(a.size(), 0);
    std::uint64_t rem = 0;
    for (std::size_t i = a.size(); i-- > 0;) {
      std::uint64_t cur = (rem << 32) | a[i];
      (*quotient)[i] = static_cast<std::uint32_t>(cur / divisor);
      rem = cur % divisor;
    }
    TrimZeros(quotient);
    if (rem != 0) {
      remainder->push_back(static_cast<std::uint32_t>(rem & 0xFFFFFFFFu));
      if (rem >> 32) remainder->push_back(static_cast<std::uint32_t>(rem >> 32));
    }
    return;
  }
  // Knuth algorithm D with normalization so the top divisor limb has its
  // high bit set.
  int shift = 0;
  std::uint32_t top = b.back();
  while ((top & 0x80000000u) == 0) {
    top <<= 1;
    ++shift;
  }
  auto shift_left = [](MagnitudeSpan v, int s) {
    std::vector<std::uint32_t> out(v.size() + 1, 0);
    for (std::size_t i = 0; i < v.size(); ++i) {
      out[i] |= v[i] << s;
      if (s != 0) out[i + 1] |= static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(v[i]) >> (32 - s));
    }
    TrimZeros(&out);
    return out;
  };
  std::vector<std::uint32_t> u = shift_left(a, shift);
  std::vector<std::uint32_t> v = shift_left(b, shift);
  std::size_t n = v.size();
  std::size_t m = u.size() - n;
  u.push_back(0);  // u has m+n+1 limbs
  quotient->assign(m + 1, 0);

  for (std::size_t j = m + 1; j-- > 0;) {
    std::uint64_t numerator =
        (static_cast<std::uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    std::uint64_t q_hat = numerator / v[n - 1];
    std::uint64_t r_hat = numerator % v[n - 1];
    while (q_hat >= kBase ||
           q_hat * v[n - 2] > ((r_hat << 32) | u[j + n - 2])) {
      --q_hat;
      r_hat += v[n - 1];
      if (r_hat >= kBase) break;
    }
    // Multiply-subtract u[j..j+n] -= q_hat * v.
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t product = q_hat * v[i] + carry;
      carry = product >> 32;
      std::int64_t diff = static_cast<std::int64_t>(u[j + i]) -
                          static_cast<std::int64_t>(product & 0xFFFFFFFFu) -
                          borrow;
      if (diff < 0) {
        diff += static_cast<std::int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[j + i] = static_cast<std::uint32_t>(diff);
    }
    std::int64_t diff = static_cast<std::int64_t>(u[j + n]) -
                        static_cast<std::int64_t>(carry) - borrow;
    if (diff < 0) {
      // q_hat was one too large: add back.
      diff += static_cast<std::int64_t>(kBase);
      --q_hat;
      std::uint64_t add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t sum =
            static_cast<std::uint64_t>(u[j + i]) + v[i] + add_carry;
        u[j + i] = static_cast<std::uint32_t>(sum & 0xFFFFFFFFu);
        add_carry = sum >> 32;
      }
      diff += static_cast<std::int64_t>(add_carry);
      diff &= 0xFFFFFFFF;
    }
    u[j + n] = static_cast<std::uint32_t>(diff);
    (*quotient)[j] = static_cast<std::uint32_t>(q_hat);
  }
  TrimZeros(quotient);
  // Remainder = u[0..n) >> shift.
  u.resize(n);
  if (shift != 0) {
    for (std::size_t i = 0; i < n; ++i) {
      u[i] >>= shift;
      if (i + 1 < n) {
        u[i] |= u[i + 1] << (32 - shift);
      }
    }
  }
  TrimZeros(&u);
  *remainder = std::move(u);
}

void BigInt::AddGeneric(const BigInt& other, bool negate_other) {
  std::uint32_t sa[2], sb[2];
  MagnitudeSpan a = MagnitudeView(sa);
  MagnitudeSpan b = other.MagnitudeView(sb);
  bool a_negative = IsNegative();
  bool b_negative = negate_other ? !other.IsNegative() : other.IsNegative();
  if (a_negative == b_negative) {
    SetFromMagnitude(AddMagnitude(a, b), a_negative);
    return;
  }
  int cmp = CompareMagnitude(a, b);
  if (cmp == 0) {
    SetFromUnsignedMagnitude(0, false);
  } else if (cmp > 0) {
    SetFromMagnitude(SubMagnitude(a, b), a_negative);
  } else {
    SetFromMagnitude(SubMagnitude(b, a), b_negative);
  }
}

BigInt& BigInt::operator+=(const BigInt& other) {
  if (IsInline() && other.IsInline()) {
    std::int64_t result;
    if (!__builtin_add_overflow(small_, other.small_, &result)) {
      small_ = result;
      return *this;
    }
  }
  AddGeneric(other, /*negate_other=*/false);
  return *this;
}

BigInt& BigInt::operator-=(const BigInt& other) {
  if (IsInline() && other.IsInline()) {
    std::int64_t result;
    if (!__builtin_sub_overflow(small_, other.small_, &result)) {
      small_ = result;
      return *this;
    }
  }
  AddGeneric(other, /*negate_other=*/true);
  return *this;
}

BigInt& BigInt::operator*=(const BigInt& other) {
  if (IsInline() && other.IsInline()) {
    std::int64_t result;
    if (!__builtin_mul_overflow(small_, other.small_, &result)) {
      small_ = result;
      return *this;
    }
  }
  std::uint32_t sa[2], sb[2];
  MagnitudeSpan a = MagnitudeView(sa);
  MagnitudeSpan b = other.MagnitudeView(sb);
  bool result_negative = IsNegative() != other.IsNegative();
  SetFromMagnitude(MulMagnitude(a, b), result_negative);
  return *this;
}

BigInt& BigInt::operator/=(const BigInt& other) {
  BigInt quotient, remainder;
  DivMod(*this, other, &quotient, &remainder);
  *this = std::move(quotient);
  return *this;
}

void BigInt::DivMod(const BigInt& a, const BigInt& b, BigInt* quotient,
                    BigInt* remainder) {
  if (b.IsZero()) throw std::domain_error("BigInt: division by zero");
  if (a.IsInline() && b.IsInline()) {
    // Magnitude division avoids the INT64_MIN / -1 overflow; the 2^63
    // quotient escapes to heap form via SetFromUnsignedMagnitude.
    std::uint64_t a_mag = a.InlineMagnitude();
    std::uint64_t b_mag = b.InlineMagnitude();
    bool a_negative = a.small_ < 0;
    bool q_negative = a_negative != (b.small_ < 0);
    quotient->SetFromUnsignedMagnitude(a_mag / b_mag, q_negative);
    remainder->SetFromUnsignedMagnitude(a_mag % b_mag, a_negative);
    return;
  }
  // Signs are read before either out-param is written so quotient or
  // remainder may alias a or b.
  bool a_negative = a.IsNegative();
  bool q_negative = a_negative != b.IsNegative();
  std::uint32_t sa[2], sb[2];
  std::vector<std::uint32_t> q_mag, r_mag;
  DivModMagnitude(a.MagnitudeView(sa), b.MagnitudeView(sb), &q_mag, &r_mag);
  quotient->SetFromMagnitude(std::move(q_mag), q_negative);
  remainder->SetFromMagnitude(std::move(r_mag), a_negative);
}

BigInt BigInt::Pow(const BigInt& base, std::uint64_t exponent) {
  BigInt result(1);
  BigInt factor = base;
  while (exponent != 0) {
    if (exponent & 1) result *= factor;
    exponent >>= 1;
    if (exponent != 0) factor *= factor;
  }
  return result;
}

BigInt BigInt::Gcd(BigInt a, BigInt b) {
  if (a.IsInline() && b.IsInline()) {
    // The overwhelmingly common case for rational reduction in the
    // counters.
    return FromUnsigned(WordGcd(a.InlineMagnitude(), b.InlineMagnitude()));
  }
  std::uint32_t sa[2], sb[2];
  MagnitudeSpan a_magnitude = a.MagnitudeView(sa);
  MagnitudeSpan b_magnitude = b.MagnitudeView(sb);
  if (CompareMagnitude(a_magnitude, b_magnitude) < 0) {
    std::swap(a_magnitude, b_magnitude);
  }
  // u >= v throughout. All four buffers hold u's size, so a Lehmer step
  // below never allocates (a division step does).
  std::size_t size = a_magnitude.size();
  std::vector<std::uint32_t> u, v, next_u, next_v, quotient;
  for (std::vector<std::uint32_t>* buffer : {&u, &v, &next_u, &next_v}) {
    buffer->reserve(size);
  }
  u.assign(a_magnitude.begin(), a_magnitude.end());
  v.assign(b_magnitude.begin(), b_magnitude.end());
  // Lehmer's algorithm while u needs more than one word: each outer step
  // replays a run of Euclid quotient steps, found from the top 32 bits
  // of u and v alone, as one pair of linear combinations of u and v.
  while (u.size() > 2) {
    if (v.empty()) {
      BigInt result;
      result.SetFromMagnitude(std::move(u), false);
      return result;
    }
    std::size_t shift = (u.size() - 1) * 32 +
                        static_cast<std::size_t>(std::bit_width(u.back())) -
                        32;
    std::int64_t u_top = TopWord(u, shift);
    std::int64_t v_top = TopWord(v, shift);
    // Cofactors: u_top = A·û + B·v̂ and v_top = C·û + D·v̂ for the
    // original tops û and v̂. A quotient step is taken only while the
    // quotients of the extreme ratios (û+A)/(v̂+C) and (û+B)/(v̂+D) agree,
    // which makes it the quotient of the full numbers too. Every value
    // stays within 2^32 in magnitude (Knuth, TAOCP 4.5.2, Algorithm L).
    std::int64_t A = 1, B = 0, C = 0, D = 1;
    while (v_top + C != 0 && v_top + D != 0) {
      std::int64_t q = (u_top + A) / (v_top + C);
      if (q != (u_top + B) / (v_top + D)) break;
      std::int64_t t = A - q * C;
      A = C;
      C = t;
      t = B - q * D;
      B = D;
      D = t;
      t = u_top - q * v_top;
      u_top = v_top;
      v_top = t;
    }
    if (B == 0) {
      // The top words cannot settle even the first quotient (it needs
      // more than a word, or the tops tie): one long-division step.
      DivModMagnitude(u, v, &quotient, &next_v);
      u.swap(v);
      v.swap(next_v);
      continue;
    }
    LinearCombination(u, v, A, B, &next_u);
    LinearCombination(u, v, C, D, &next_v);
    u.swap(next_u);
    v.swap(next_v);
  }
  return FromUnsigned(WordGcd(Low64(u), Low64(v)));
}

BigInt BigInt::ShiftRight(std::size_t bits) const {
  BigInt result;
  if (IsInline()) {
    std::uint64_t shifted = bits >= 64 ? 0 : InlineMagnitude() >> bits;
    result.SetFromUnsignedMagnitude(shifted, small_ < 0);
    return result;
  }
  std::size_t limb_shift = bits / 32;
  int bit_shift = static_cast<int>(bits % 32);
  if (limb_shift >= limbs_.size()) return result;
  std::vector<std::uint32_t> out(limbs_.begin() + limb_shift, limbs_.end());
  if (bit_shift != 0) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] >>= bit_shift;
      if (i + 1 < out.size()) {
        out[i] |= out[i + 1] << (32 - bit_shift);
      }
    }
  }
  result.SetFromMagnitude(std::move(out), negative_);
  return result;
}

bool operator<(const BigInt& a, const BigInt& b) {
  if (a.IsInline() && b.IsInline()) return a.small_ < b.small_;
  int a_sign = a.Sign();
  int b_sign = b.Sign();
  if (a_sign != b_sign) return a_sign < b_sign;
  if (a.IsInline() != b.IsInline()) {
    // Same sign, mixed forms: the heap magnitude is strictly larger
    // (canonical representation keeps int64-sized values inline).
    return a.IsInline() ? a_sign > 0 : a_sign < 0;
  }
  int cmp = BigInt::CompareMagnitude(a.limbs_, b.limbs_);
  return a_sign < 0 ? cmp > 0 : cmp < 0;
}

std::ostream& operator<<(std::ostream& os, const BigInt& value) {
  return os << value.ToString();
}

}  // namespace swfomc::numeric
