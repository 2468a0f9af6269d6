// Two-tier exact rational arithmetic for the solver hot path.
//
// The exact simplex spends nearly all of its time adding, multiplying
// and comparing rationals whose numerators and denominators fit
// comfortably in a machine word. `SmallRational` is that common case:
// an int64 numerator/denominator pair kept in canonical form
// (denominator positive, reduced by gcd, numerator magnitude at most
// INT64_MAX so negation never overflows), with every operation
// computed through __int128 intermediates and reporting overflow
// instead of wrapping. Operations on integers are one exact __int128
// expression with no gcd; reductions whose operands fit in 64 bits use
// a binary gcd.
//
// `TwoTierRational` is the tagged tableau cell built on top: a
// SmallRational while the value fits, promoted lazily to the existing
// BigInt-backed `Rational` the moment an operation overflows — and
// demoted back when a result shrinks into range again. Promotion is
// observable through the `solver/smallrat_promotions` counter (see
// docs/performance.md).
#ifndef XMLVERIFY_BASE_SMALLRAT_H_
#define XMLVERIFY_BASE_SMALLRAT_H_

#include <cstdint>
#include <string>

#include "base/rational.h"

namespace xmlverify {

/// int64 rational in canonical form. Mutating arithmetic is exposed as
/// static three-address ops that compute the exact result and return
/// false exactly when its canonical form does not fit (the output is
/// unspecified then); callers fall back to the BigInt tier.
class SmallRational {
 public:
  constexpr SmallRational() = default;
  explicit constexpr SmallRational(int64_t value) : num_(value), den_(1) {}

  /// Canonicalizes num/den. Returns false when `den` is zero or the
  /// reduced pair does not fit (|num| or den > INT64_MAX).
  static bool Make(int64_t num, int64_t den, SmallRational* out);

  int64_t num() const { return num_; }
  int64_t den() const { return den_; }

  bool is_zero() const { return num_ == 0; }
  bool is_negative() const { return num_ < 0; }
  bool is_integer() const { return den_ == 1; }
  int sign() const { return num_ == 0 ? 0 : (num_ < 0 ? -1 : 1); }

  /// All four return false on overflow; inputs may alias the output.
  static bool Add(const SmallRational& a, const SmallRational& b,
                  SmallRational* out);
  static bool Sub(const SmallRational& a, const SmallRational& b,
                  SmallRational* out);
  static bool Mul(const SmallRational& a, const SmallRational& b,
                  SmallRational* out);
  /// Requires b nonzero (the simplex guards divisors).
  static bool Div(const SmallRational& a, const SmallRational& b,
                  SmallRational* out);
  /// out = a - b * c in one step (the simplex row-combination kernel).
  /// Succeeds whenever the result fits, even where b * c alone does not.
  static bool SubMul(const SmallRational& a, const SmallRational& b,
                     const SmallRational& c, SmallRational* out) {
    if ((a.den_ | b.den_ | c.den_) == 1) {
      // All three are integers: |b*c| < 2^126, so the difference is
      // exact in __int128 and needs no gcd.
      return Store(a.num_ - static_cast<__int128>(b.num_) * c.num_, 1, out);
    }
    return SubMulFractions(a, b, c, out);
  }

  SmallRational operator-() const {
    SmallRational r = *this;
    r.num_ = -r.num_;  // |num_| <= INT64_MAX by invariant
    return r;
  }

  /// Exact three-way comparison (cross products fit in __int128).
  int Compare(const SmallRational& other) const;

  Rational ToRational() const { return Rational(BigInt(num_), BigInt(den_)); }
  /// Returns false when `value` has a component beyond int64.
  static bool FromRational(const Rational& value, SmallRational* out);

  std::string ToString() const;

 private:
  /// Stores num/den (den > 0, already in lowest terms) when it fits.
  static bool Store(__int128 num, __int128 den, SmallRational* out) {
    constexpr __int128 kMax = INT64_MAX;
    if (num > kMax || num < -kMax || den > kMax) return false;
    out->num_ = static_cast<int64_t>(num);
    out->den_ = static_cast<int64_t>(den);
    return true;
  }
  /// Stores num/den (den > 0) in lowest terms when that pair fits.
  static bool Reduce128(__int128 num, __int128 den, SmallRational* out);
  /// SubMul when an operand is not an integer.
  static bool SubMulFractions(const SmallRational& a, const SmallRational& b,
                              const SmallRational& c, SmallRational* out);

  int64_t num_ = 0;
  int64_t den_ = 1;
};

/// Tagged two-tier tableau cell: SmallRational inline, or a
/// heap-allocated BigInt Rational after overflow. Arithmetic stays in
/// the small tier whenever it can, promotes on overflow (counted via
/// trace as solver/smallrat_promotions), and demotes big results that
/// shrink back into int64 range, so long pivot chains whose entries
/// cancel return to the cheap representation.
class TwoTierRational {
 public:
  TwoTierRational() = default;
  explicit TwoTierRational(int64_t value) : small_(value) {}
  explicit TwoTierRational(const SmallRational& value) : small_(value) {}
  explicit TwoTierRational(const BigInt& value);
  explicit TwoTierRational(const Rational& value);

  TwoTierRational(const TwoTierRational& other) { CopyFrom(other); }
  TwoTierRational(TwoTierRational&& other) noexcept
      : small_(other.small_), big_(other.big_) {
    other.big_ = nullptr;
  }
  TwoTierRational& operator=(const TwoTierRational& other) {
    if (this != &other) {
      delete big_;
      big_ = nullptr;
      CopyFrom(other);
    }
    return *this;
  }
  TwoTierRational& operator=(TwoTierRational&& other) noexcept {
    if (this != &other) {
      delete big_;
      small_ = other.small_;
      big_ = other.big_;
      other.big_ = nullptr;
    }
    return *this;
  }
  ~TwoTierRational() { delete big_; }

  /// True while the value lives in the int64 tier.
  bool small() const { return big_ == nullptr; }

  bool is_zero() const { return small() ? small_.is_zero() : big_->is_zero(); }
  bool is_negative() const {
    return small() ? small_.is_negative() : big_->is_negative();
  }
  bool is_integer() const {
    return small() ? small_.is_integer() : big_->is_integer();
  }
  int sign() const { return small() ? small_.sign() : big_->sign(); }

  TwoTierRational& operator+=(const TwoTierRational& other);
  TwoTierRational& operator-=(const TwoTierRational& other);
  TwoTierRational& operator*=(const TwoTierRational& other);
  /// Requires `other` nonzero.
  TwoTierRational& operator/=(const TwoTierRational& other);
  /// *this -= b * c — the fused simplex row-update kernel: stays in the
  /// small tier whenever the result fits (see SmallRational::SubMul).
  TwoTierRational& SubMul(const TwoTierRational& b, const TwoTierRational& c) {
    SmallRational result;
    if (small() && b.small() && c.small() &&
        SmallRational::SubMul(small_, b.small_, c.small_, &result)) {
      small_ = result;
      return *this;
    }
    return SubMulSlow(b, c);
  }
  void Negate();

  int Compare(const TwoTierRational& other) const;
  bool operator==(const TwoTierRational& o) const { return Compare(o) == 0; }
  bool operator<(const TwoTierRational& o) const { return Compare(o) < 0; }

  /// Materializes the value in the BigInt tier's representation.
  Rational ToRational() const {
    return small() ? small_.ToRational() : *big_;
  }

  std::string ToString() const;

 private:
  void CopyFrom(const TwoTierRational& other) {
    small_ = other.small_;
    if (other.big_ != nullptr) big_ = new Rational(*other.big_);
  }
  /// Switches to the big tier holding `value` (counts a promotion).
  void Promote(Rational value);
  /// Moves a big-tier result back to the small tier when it fits.
  void TryDemote();
  /// Replaces the value with a big-tier result (no promotion counted;
  /// used when an operand was already big).
  void SetBig(Rational value);
  /// SubMul when an operand is big or the small-tier result overflows.
  TwoTierRational& SubMulSlow(const TwoTierRational& b,
                              const TwoTierRational& c);

  SmallRational small_;   // active when big_ == nullptr
  Rational* big_ = nullptr;
};

std::ostream& operator<<(std::ostream& os, const TwoTierRational& value);

}  // namespace xmlverify

#endif  // XMLVERIFY_BASE_SMALLRAT_H_
