#include "base/smallrat.h"

#include <ostream>
#include <utility>

#include "trace/trace.h"

namespace xmlverify {

namespace {

using int128 = __int128;
using uint128 = unsigned __int128;

constexpr int128 kMax = INT64_MAX;

// Unsigned negation keeps this defined for every int128 value.
uint128 Abs128(int128 value) {
  return value < 0 ? -static_cast<uint128>(value) : static_cast<uint128>(value);
}

// Stein's binary gcd: shifts and subtractions, no division.
uint64_t Gcd64(uint64_t a, uint64_t b) {
  if (a == 0) return b;
  if (b == 0) return a;
  const int shift = __builtin_ctzll(a | b);
  a >>= __builtin_ctzll(a);
  while (b != 0) {
    b >>= __builtin_ctzll(b);
    if (a > b) std::swap(a, b);
    b -= a;
  }
  return a << shift;
}

// Euclid steps until both operands fit in 64 bits, then Gcd64.
uint128 Gcd128(uint128 a, uint128 b) {
  while (((a | b) >> 64) != 0) {
    if (b == 0) return a;
    uint128 t = a % b;
    a = b;
    b = t;
  }
  return Gcd64(static_cast<uint64_t>(a), static_cast<uint64_t>(b));
}

// Divides a numerator (nonzero) and a denominator by their gcd.
void CancelCommonFactor(int64_t* num, int64_t* den) {
  if (*den == 1) return;
  const uint64_t magnitude = *num < 0 ? -static_cast<uint64_t>(*num)
                                      : static_cast<uint64_t>(*num);
  const int64_t gcd = static_cast<int64_t>(
      Gcd64(magnitude, static_cast<uint64_t>(*den)));
  if (gcd == 1) return;
  *num /= gcd;
  *den /= gcd;
}

}  // namespace

bool SmallRational::Reduce128(int128 num, int128 den, SmallRational* out) {
  if (num == 0) return Store(0, 1, out);
  uint128 magnitude = Abs128(num);
  uint128 udden = static_cast<uint128>(den);
  if (((magnitude | udden) >> 64) == 0) {
    const uint64_t gcd = Gcd64(static_cast<uint64_t>(magnitude),
                               static_cast<uint64_t>(udden));
    if (gcd != 1) {
      magnitude = static_cast<uint64_t>(magnitude) / gcd;
      udden = static_cast<uint64_t>(udden) / gcd;
    }
  } else {
    const uint128 gcd = Gcd128(magnitude, udden);
    magnitude /= gcd;
    udden /= gcd;
  }
  constexpr uint128 kMaxMagnitude = INT64_MAX;
  if (magnitude > kMaxMagnitude || udden > kMaxMagnitude) return false;
  const int64_t reduced = static_cast<int64_t>(magnitude);
  out->num_ = num < 0 ? -reduced : reduced;
  out->den_ = static_cast<int64_t>(udden);
  return true;
}

bool SmallRational::Make(int64_t num, int64_t den, SmallRational* out) {
  if (den == 0 || num == INT64_MIN || den == INT64_MIN) return false;
  if (den < 0) {
    num = -num;
    den = -den;
  }
  return Reduce128(num, den, out);
}

// Integer operands take one exact __int128 expression and no gcd; the
// result fails only when it does not fit. SubMul's integer case is
// inline in the header.

bool SmallRational::Add(const SmallRational& a, const SmallRational& b,
                        SmallRational* out) {
  if (a.den_ == 1 && b.den_ == 1) {
    return Store(static_cast<int128>(a.num_) + b.num_, 1, out);
  }
  // Products are below 2^126, so the sum stays within __int128.
  int128 num = static_cast<int128>(a.num_) * b.den_ +
               static_cast<int128>(b.num_) * a.den_;
  int128 den = static_cast<int128>(a.den_) * b.den_;
  return Reduce128(num, den, out);
}

bool SmallRational::Sub(const SmallRational& a, const SmallRational& b,
                        SmallRational* out) {
  if (a.den_ == 1 && b.den_ == 1) {
    return Store(static_cast<int128>(a.num_) - b.num_, 1, out);
  }
  int128 num = static_cast<int128>(a.num_) * b.den_ -
               static_cast<int128>(b.num_) * a.den_;
  int128 den = static_cast<int128>(a.den_) * b.den_;
  return Reduce128(num, den, out);
}

// Products of reduced fractions are reduced by cross-cancelling: after
// dividing each numerator and the other factor's denominator by their
// gcd, the product is already in lowest terms.

bool SmallRational::Mul(const SmallRational& a, const SmallRational& b,
                        SmallRational* out) {
  if ((a.den_ | b.den_) == 1) {
    return Store(static_cast<int128>(a.num_) * b.num_, 1, out);
  }
  if (a.num_ == 0 || b.num_ == 0) return Store(0, 1, out);
  int64_t a_num = a.num_, a_den = a.den_, b_num = b.num_, b_den = b.den_;
  CancelCommonFactor(&a_num, &b_den);
  CancelCommonFactor(&b_num, &a_den);
  return Store(static_cast<int128>(a_num) * b_num,
               static_cast<int128>(a_den) * b_den, out);
}

bool SmallRational::Div(const SmallRational& a, const SmallRational& b,
                        SmallRational* out) {
  if (b.num_ == 0) return false;
  if (a.num_ == 0) return Store(0, 1, out);
  // a/b = a * (b.den/b.num), with the sign moved to the numerator.
  int64_t a_num = a.num_, a_den = a.den_;
  int64_t b_num = b.num_ < 0 ? -b.num_ : b.num_;
  int64_t b_den = b.num_ < 0 ? -b.den_ : b.den_;
  CancelCommonFactor(&a_num, &b_num);
  CancelCommonFactor(&b_den, &a_den);
  return Store(static_cast<int128>(a_num) * b_den,
               static_cast<int128>(a_den) * b_num, out);
}

bool SmallRational::SubMulFractions(const SmallRational& a,
                                    const SmallRational& b,
                                    const SmallRational& c,
                                    SmallRational* out) {
  if (b.num_ == 0 || c.num_ == 0) return Store(a.num_, a.den_, out);
  // b*c = p/q in lowest terms, exact: |p| and q are below 2^126.
  int64_t b_num = b.num_, b_den = b.den_, c_num = c.num_, c_den = c.den_;
  CancelCommonFactor(&b_num, &c_den);
  CancelCommonFactor(&c_num, &b_den);
  const int128 p = static_cast<int128>(b_num) * c_num;
  const int128 q = static_cast<int128>(b_den) * c_den;
  // a - p/q = (a.num*(q/g) - p*(a.den/g)) / (a.den*(q/g)) with
  // g = gcd(a.den, q) (Knuth, TAOCP 4.5.1). Both fractions are in
  // lowest terms, so that numerator shares with the denominator only
  // factors of g: the result's denominator is at least (a.den/g)*(q/g)
  // and its numerator at least |numerator|/g. So when q/g exceeds
  // INT64_MAX, or the numerator leaves __int128 (it is then at least
  // 2^126, and g < 2^63), the result does not fit.
  const int64_t g =
      (a.den_ == 1 || q == 1)
          ? 1
          : static_cast<int64_t>(Gcd128(static_cast<uint64_t>(a.den_), q));
  const int128 q_g =
      g == 1 ? q
      : (q >> 64) == 0
          ? static_cast<int128>(static_cast<uint64_t>(q) /
                                static_cast<uint64_t>(g))  // native divide
          : q / g;
  if (q_g > kMax) return false;
  int128 scaled;
  int128 num;
  if (__builtin_mul_overflow(p, static_cast<int128>(a.den_ / g), &scaled) ||
      __builtin_sub_overflow(a.num_ * q_g, scaled, &num)) {
    return false;
  }
  const int128 den = a.den_ * q_g;
  // With g == 1 the pair is already in lowest terms.
  return g == 1 ? Store(num, den, out) : Reduce128(num, den, out);
}

int SmallRational::Compare(const SmallRational& other) const {
  // Denominators are positive: cross products preserve order and fit
  // in __int128 exactly.
  int128 lhs = static_cast<int128>(num_) * other.den_;
  int128 rhs = static_cast<int128>(other.num_) * den_;
  if (lhs == rhs) return 0;
  return lhs < rhs ? -1 : 1;
}

bool SmallRational::FromRational(const Rational& value, SmallRational* out) {
  Result<int64_t> num = value.numerator().TryToInt64();
  if (!num.ok() || *num == INT64_MIN) return false;
  Result<int64_t> den = value.denominator().TryToInt64();
  if (!den.ok()) return false;
  // Rational is canonical (reduced, positive denominator) already.
  out->num_ = *num;
  out->den_ = *den;
  return true;
}

std::string SmallRational::ToString() const {
  if (den_ == 1) return std::to_string(num_);
  return std::to_string(num_) + "/" + std::to_string(den_);
}

TwoTierRational::TwoTierRational(const BigInt& value) {
  Result<int64_t> as_int = value.TryToInt64();
  if (as_int.ok() && *as_int != INT64_MIN) {
    small_ = SmallRational(*as_int);
  } else {
    big_ = new Rational(value);
  }
}

TwoTierRational::TwoTierRational(const Rational& value) {
  if (!SmallRational::FromRational(value, &small_)) {
    big_ = new Rational(value);
  }
}

void TwoTierRational::Promote(Rational value) {
  big_ = new Rational(std::move(value));
  trace::Count("solver/smallrat_promotions");
}

void TwoTierRational::SetBig(Rational value) {
  if (big_ == nullptr) {
    big_ = new Rational(std::move(value));
  } else {
    *big_ = std::move(value);
  }
}

void TwoTierRational::TryDemote() {
  if (big_ == nullptr) return;
  SmallRational demoted;
  if (!SmallRational::FromRational(*big_, &demoted)) return;
  delete big_;
  big_ = nullptr;
  small_ = demoted;
  trace::Count("solver/smallrat_demotions");
}

TwoTierRational& TwoTierRational::operator+=(const TwoTierRational& other) {
  if (small() && other.small()) {
    SmallRational r;
    if (SmallRational::Add(small_, other.small_, &r)) {
      small_ = r;
      return *this;
    }
    Promote(small_.ToRational() + other.small_.ToRational());
    return *this;
  }
  // Big-tier path: mutate *big_ in place (Rational's compound ops are
  // aliasing-safe) instead of rebuilding a fresh Rational per call.
  if (small()) SetBig(small_.ToRational());
  if (other.small()) {
    *big_ += other.small_.ToRational();
  } else {
    *big_ += *other.big_;
  }
  TryDemote();
  return *this;
}

TwoTierRational& TwoTierRational::operator-=(const TwoTierRational& other) {
  if (small() && other.small()) {
    SmallRational r;
    if (SmallRational::Sub(small_, other.small_, &r)) {
      small_ = r;
      return *this;
    }
    Promote(small_.ToRational() - other.small_.ToRational());
    return *this;
  }
  if (small()) SetBig(small_.ToRational());
  if (other.small()) {
    *big_ -= other.small_.ToRational();
  } else {
    *big_ -= *other.big_;
  }
  TryDemote();
  return *this;
}

TwoTierRational& TwoTierRational::operator*=(const TwoTierRational& other) {
  if (small() && other.small()) {
    SmallRational r;
    if (SmallRational::Mul(small_, other.small_, &r)) {
      small_ = r;
      return *this;
    }
    Promote(small_.ToRational() * other.small_.ToRational());
    return *this;
  }
  if (small()) SetBig(small_.ToRational());
  if (other.small()) {
    *big_ *= other.small_.ToRational();
  } else {
    *big_ *= *other.big_;
  }
  TryDemote();
  return *this;
}

TwoTierRational& TwoTierRational::operator/=(const TwoTierRational& other) {
  if (small() && other.small()) {
    SmallRational r;
    if (SmallRational::Div(small_, other.small_, &r)) {
      small_ = r;
      return *this;
    }
    Promote(small_.ToRational() / other.small_.ToRational());
    return *this;
  }
  if (small()) SetBig(small_.ToRational());
  if (other.small()) {
    *big_ /= other.small_.ToRational();
  } else {
    *big_ /= *other.big_;
  }
  TryDemote();
  return *this;
}

TwoTierRational& TwoTierRational::SubMulSlow(const TwoTierRational& b,
                                             const TwoTierRational& c) {
  if (small() && b.small() && c.small()) {
    // The small-tier result overflowed (SubMul tried it first).
    Promote(small_.ToRational() - b.small_.ToRational() * c.small_.ToRational());
    return *this;
  }
  // Big-tier fused path: one Rational::SubMul over *big_. Scratch
  // copies only materialize for small-tier operands; big-tier b/c are
  // passed by reference (SubMul reads both before mutating, so b or c
  // aliasing *big_ is fine).
  if (small()) SetBig(small_.ToRational());
  Rational b_scratch;
  Rational c_scratch;
  const Rational& rb = b.small() ? (b_scratch = b.small_.ToRational()) : *b.big_;
  const Rational& rc = c.small() ? (c_scratch = c.small_.ToRational()) : *c.big_;
  big_->SubMul(rb, rc);
  TryDemote();
  return *this;
}

void TwoTierRational::Negate() {
  if (small()) {
    small_ = -small_;
  } else {
    SetBig(-*big_);
  }
}

int TwoTierRational::Compare(const TwoTierRational& other) const {
  if (small() && other.small()) return small_.Compare(other.small_);
  return ToRational().Compare(other.ToRational());
}

std::string TwoTierRational::ToString() const {
  return small() ? small_.ToString() : big_->ToString();
}

std::ostream& operator<<(std::ostream& os, const TwoTierRational& value) {
  return os << value.ToString();
}

}  // namespace xmlverify
