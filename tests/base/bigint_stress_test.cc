// Differential arithmetic stress harness for the BigInt kernels.
//
// Seeded randomized cross-check of the sub-quadratic kernels
// (Karatsuba multiply, Knuth Algorithm-D divmod, Stein GCD, the
// in-place compound ops) against the schoolbook reference functions
// of base/bigint_reference.h — the same spirit as the difftest
// oracle, but at the arithmetic layer. Operand shapes concentrate on
// the places kernels break: limb-boundary-adjacent sizes (1..64
// limbs), signs, zero, powers of two and off-by-one neighbors, plus
// algebraic identities that hold whatever the kernel ((a*b)/b == a,
// a == q*b + r with 0 <= r < |b|, Gcd divides both operands).
//
// The seed is fixed for reproducibility; set XMLVERIFY_STRESS_SEED to
// explore further (failures print the seed and trial).
#include "base/bigint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/bigint_reference.h"
#include "tests/test_util.h"

namespace xmlverify {
namespace {

class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, bound).
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

uint64_t StressSeed() {
  const char* env = std::getenv("XMLVERIFY_STRESS_SEED");
  if (env != nullptr && env[0] != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 0x9d2c5680f00d5eedULL;
}

// Random magnitude of exactly `limbs` 32-bit limbs (top limb nonzero),
// with occasional all-ones / single-bit limbs so carry chains and
// cancellation paths get hit. Built through ShlBits/+= — those kernels
// are themselves cross-checked by the compound-op trials below.
BigInt RandomMagnitude(SplitMix64* rng, size_t limbs) {
  BigInt value;
  for (size_t i = 0; i < limbs; ++i) {
    uint32_t chunk;
    switch (rng->Below(8)) {
      case 0:
        chunk = 0xffffffffu;
        break;
      case 1:
        chunk = i + 1 == limbs ? 1u : 0u;  // keep the top limb nonzero
        break;
      case 2:
        chunk = uint32_t{1} << rng->Below(32);
        break;
      default:
        chunk = static_cast<uint32_t>(rng->Next());
        break;
    }
    if (i + 1 == limbs && chunk == 0) chunk = 1;
    value.ShlBits(32);
    value += BigInt(static_cast<int64_t>(chunk));
  }
  return value;
}

// Random operand: limb-boundary-adjacent random magnitudes, powers of
// two and their neighbors, zero — with a random sign.
BigInt RandomOperand(SplitMix64* rng, size_t max_limbs) {
  BigInt value;
  switch (rng->Below(10)) {
    case 0:
      value = BigInt(0);
      break;
    case 1: {
      uint64_t bit = rng->Below(32 * max_limbs + 1);
      value = BigInt::Pow2(bit);
      break;
    }
    case 2: {
      uint64_t bit = 1 + rng->Below(32 * max_limbs);
      value = BigInt::Pow2(bit) - BigInt(1);
      break;
    }
    case 3: {
      uint64_t bit = rng->Below(32 * max_limbs + 1);
      value = BigInt::Pow2(bit) + BigInt(1);
      break;
    }
    default: {
      size_t limbs = 1 + rng->Below(max_limbs);
      value = RandomMagnitude(rng, limbs);
      break;
    }
  }
  if (!value.is_zero() && rng->Below(2) == 0) value = -value;
  return value;
}

TEST(BigIntStressTest, FastKernelsMatchReferenceKernels) {
  const uint64_t seed = StressSeed();
  SplitMix64 rng(seed);
  constexpr int kTrials = 300;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " trial=" + std::to_string(trial));
    BigInt a = RandomOperand(&rng, 64);
    BigInt b = RandomOperand(&rng, 64);
    EXPECT_EQ(a * b, BigIntReference::Multiply(a, b));
    EXPECT_EQ(BigInt::Gcd(a, b), BigIntReference::Gcd(a, b));
    if (!b.is_zero()) {
      BigInt quotient;
      BigInt remainder;
      ASSERT_OK(a.DivMod(b, &quotient, &remainder));
      BigInt ref_quotient;
      BigInt ref_remainder;
      ASSERT_OK(BigIntReference::DivMod(a, b, &ref_quotient, &ref_remainder));
      EXPECT_EQ(quotient, ref_quotient);
      EXPECT_EQ(remainder, ref_remainder);
    }
  }
}

TEST(BigIntStressTest, AlgebraicIdentities) {
  const uint64_t seed = StressSeed() ^ 0xa5a5a5a5a5a5a5a5ULL;
  SplitMix64 rng(seed);
  constexpr int kTrials = 400;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " trial=" + std::to_string(trial));
    BigInt a = RandomOperand(&rng, 64);
    BigInt b = RandomOperand(&rng, 64);
    // Ring identities.
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a * (b + b), a * b + a * b);
    if (!b.is_zero()) {
      // Exact-division round trip through the multiply and divide
      // kernels together.
      EXPECT_EQ((a * b) / b, a);
      // Division identity on magnitudes: |a| = q*|b| + r, 0 <= r < |b|.
      BigInt q;
      BigInt r;
      ASSERT_OK(a.DivMod(b, &q, &r));
      EXPECT_EQ(q * b.Abs() + r, a.Abs());
      EXPECT_FALSE(r.is_negative());
      EXPECT_LT(r, b.Abs());
    }
    // Gcd divides both operands and is nonnegative.
    BigInt g = BigInt::Gcd(a, b);
    EXPECT_FALSE(g.is_negative());
    if (!g.is_zero()) {
      EXPECT_TRUE((a % g).is_zero());
      EXPECT_TRUE((b % g).is_zero());
    } else {
      // Gcd is zero only when both inputs are.
      EXPECT_TRUE(a.is_zero());
      EXPECT_TRUE(b.is_zero());
    }
  }
}

TEST(BigIntStressTest, InPlaceOpsMatchValueForms) {
  const uint64_t seed = StressSeed() ^ 0x5ee15ee15ee15ee1ULL;
  SplitMix64 rng(seed);
  constexpr int kTrials = 400;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " trial=" + std::to_string(trial));
    BigInt a = RandomOperand(&rng, 48);
    BigInt b = RandomOperand(&rng, 48);
    BigInt c = RandomOperand(&rng, 8);
    BigInt t = a;
    t += b;
    EXPECT_EQ(t, a + b);
    t = a;
    t -= b;
    EXPECT_EQ(t, a - b);
    t = a;
    t *= b;
    EXPECT_EQ(t, a * b);
    t = a;
    t.SubMul(b, c);
    EXPECT_EQ(t, a - b * c);
    // Aliased forms.
    t = a;
    t += t;
    EXPECT_EQ(t, a + a);
    t = a;
    t -= t;
    EXPECT_TRUE(t.is_zero());
    t = a;
    t *= t;
    EXPECT_EQ(t, a * a);
    // Shift round trip against multiply/divide by 2^s.
    uint64_t s = rng.Below(200);
    t = a;
    t.ShlBits(s);
    EXPECT_EQ(t, a * BigInt::Pow2(s));
    t.ShrBits(s);
    EXPECT_EQ(t, a);
    // MulAddSmall against the operator form.
    int64_t m = static_cast<int64_t>(rng.Next() >> 1);  // nonnegative
    int64_t add = static_cast<int64_t>(rng.Next() >> 1);
    t = a;
    t.MulAddSmall(m, add);
    EXPECT_EQ(t, a * BigInt(m) + BigInt(add));
  }
}

}  // namespace
}  // namespace xmlverify
