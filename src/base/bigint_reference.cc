#include "base/bigint_reference.h"

#include <cstdint>
#include <utility>

namespace xmlverify {

namespace {

using Limbs = internal_bigint::LimbVector;

// Shifts a magnitude left by `bits` (< 32) bit positions, in place.
// The division only shifts by one, but keeps this general form so
// bench_bigint times the same baseline it always has.
void ShiftLeftSmall(Limbs* limbs, unsigned bits) {
  if (bits == 0 || limbs->empty()) return;
  uint32_t carry = 0;
  for (uint32_t& limb : *limbs) {
    uint64_t shifted = (uint64_t{limb} << bits) | carry;
    limb = static_cast<uint32_t>(shifted);
    carry = static_cast<uint32_t>(shifted >> 32);
  }
  if (carry != 0) limbs->push_back(carry);
}

}  // namespace

BigInt BigIntReference::Multiply(const BigInt& a, const BigInt& b) {
  BigInt product;
  Limbs& result = product.limbs_;
  result.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      uint64_t cur = result[i + j] + carry +
                     uint64_t{a.limbs_[i]} * uint64_t{b.limbs_[j]};
      result[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    size_t k = i + b.limbs_.size();
    while (carry != 0) {
      uint64_t cur = result[k] + carry;
      result[k] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  product.negative_ = a.negative_ != b.negative_;
  product.Normalize();
  return product;
}

Status BigIntReference::DivMod(const BigInt& dividend, const BigInt& divisor,
                               BigInt* quotient, BigInt* remainder) {
  if (divisor.is_zero()) {
    return Status::InvalidArgument("BigIntReference::DivMod: division by zero");
  }
  // Scan dividend bits from the most significant downward, maintaining
  // the running remainder.
  BigInt rem;
  BigInt quot;
  const size_t bits = dividend.BitLength();
  quot.limbs_.assign(bits / 32 + 1, 0);
  for (size_t i = bits; i-- > 0;) {
    ShiftLeftSmall(&rem.limbs_, 1);
    uint32_t bit = (dividend.limbs_[i / 32] >> (i % 32)) & 1;
    if (bit != 0) {
      if (rem.limbs_.empty()) {
        rem.limbs_.push_back(1);
      } else {
        rem.limbs_[0] |= 1;
      }
    }
    if (BigInt::CompareMagnitude(rem.limbs_, divisor.limbs_) >= 0) {
      rem.limbs_ = BigInt::SubMagnitude(rem.limbs_, divisor.limbs_);
      quot.limbs_[i / 32] |= uint32_t{1} << (i % 32);
    }
  }
  quot.Normalize();
  rem.Normalize();
  if (quotient != nullptr) *quotient = std::move(quot);
  if (remainder != nullptr) *remainder = std::move(rem);
  return Status::OK();
}

BigInt BigIntReference::Gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a.Abs();
  BigInt y = b.Abs();
  while (!y.is_zero()) {
    BigInt remainder;
    // y is nonzero by the loop condition.
    (void)DivMod(x, y, nullptr, &remainder);
    x = std::move(y);
    y = std::move(remainder);
  }
  return x;
}

}  // namespace xmlverify
