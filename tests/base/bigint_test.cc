#include "base/bigint.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "base/bigint_reference.h"
#include "tests/test_util.h"

namespace xmlverify {
namespace {

TEST(BigIntTest, ConstructionAndToString) {
  EXPECT_EQ(BigInt(0).ToString(), "0");
  EXPECT_EQ(BigInt(42).ToString(), "42");
  EXPECT_EQ(BigInt(-7).ToString(), "-7");
  EXPECT_EQ(BigInt(INT64_MAX).ToString(), "9223372036854775807");
  EXPECT_EQ(BigInt(INT64_MIN).ToString(), "-9223372036854775808");
}

TEST(BigIntTest, FromStringRoundTrip) {
  for (const char* text :
       {"0", "1", "-1", "123456789012345678901234567890",
        "-999999999999999999999999"}) {
    ASSERT_OK_AND_ASSIGN(BigInt value, BigInt::FromString(text));
    EXPECT_EQ(value.ToString(), text);
  }
}

TEST(BigIntTest, FromStringRejectsGarbage) {
  EXPECT_FALSE(BigInt::FromString("").ok());
  EXPECT_FALSE(BigInt::FromString("12a").ok());
  EXPECT_FALSE(BigInt::FromString("-").ok());
  EXPECT_FALSE(BigInt::FromString("1.5").ok());
}

TEST(BigIntTest, NegativeZeroNormalizes) {
  ASSERT_OK_AND_ASSIGN(BigInt value, BigInt::FromString("-0"));
  EXPECT_EQ(value, BigInt(0));
  EXPECT_FALSE(value.is_negative());
}

TEST(BigIntTest, AdditionCarriesAcrossLimbs) {
  BigInt a = BigInt::Pow2(64) - BigInt(1);
  EXPECT_EQ((a + BigInt(1)).ToString(), "18446744073709551616");
}

TEST(BigIntTest, SignedArithmetic) {
  EXPECT_EQ(BigInt(5) + BigInt(-8), BigInt(-3));
  EXPECT_EQ(BigInt(-5) + BigInt(-8), BigInt(-13));
  EXPECT_EQ(BigInt(5) - BigInt(8), BigInt(-3));
  EXPECT_EQ(BigInt(-5) * BigInt(8), BigInt(-40));
  EXPECT_EQ(BigInt(-5) * BigInt(-8), BigInt(40));
  EXPECT_EQ(BigInt(0) * BigInt(-8), BigInt(0));
}

TEST(BigIntTest, MultiplicationLarge) {
  ASSERT_OK_AND_ASSIGN(BigInt a,
                       BigInt::FromString("123456789123456789123456789"));
  ASSERT_OK_AND_ASSIGN(BigInt b, BigInt::FromString("987654321987654321"));
  EXPECT_EQ((a * b).ToString(),
            "121932631356500531469135800347203169112635269");
}

TEST(BigIntTest, DivisionTruncatesTowardZero) {
  EXPECT_EQ(BigInt(7) / BigInt(2), BigInt(3));
  EXPECT_EQ(BigInt(-7) / BigInt(2), BigInt(-3));
  EXPECT_EQ(BigInt(7) / BigInt(-2), BigInt(-3));
  EXPECT_EQ(BigInt(-7) / BigInt(-2), BigInt(3));
  EXPECT_EQ(BigInt(7) % BigInt(2), BigInt(1));
  EXPECT_EQ(BigInt(-7) % BigInt(2), BigInt(-1));
}

TEST(BigIntTest, FloorAndCeilDivision) {
  EXPECT_EQ(BigInt(7).FloorDiv(BigInt(2)), BigInt(3));
  EXPECT_EQ(BigInt(-7).FloorDiv(BigInt(2)), BigInt(-4));
  EXPECT_EQ(BigInt(7).CeilDiv(BigInt(2)), BigInt(4));
  EXPECT_EQ(BigInt(-7).CeilDiv(BigInt(2)), BigInt(-3));
  EXPECT_EQ(BigInt(6).FloorDiv(BigInt(2)), BigInt(3));
  EXPECT_EQ(BigInt(6).CeilDiv(BigInt(2)), BigInt(3));
}

TEST(BigIntTest, DivModLargeRoundTrip) {
  ASSERT_OK_AND_ASSIGN(BigInt a,
                       BigInt::FromString("340282366920938463463374607431768211455"));
  ASSERT_OK_AND_ASSIGN(BigInt b, BigInt::FromString("18446744073709551629"));
  BigInt quotient;
  BigInt remainder;
  ASSERT_OK(a.DivMod(b, &quotient, &remainder));
  EXPECT_EQ(quotient * b + remainder, a);
  EXPECT_TRUE(remainder < b);
}

TEST(BigIntTest, DivModByZeroIsAnErrorNotACrash) {
  BigInt quotient;
  BigInt remainder;
  Status status = BigInt(42).DivMod(BigInt(0), &quotient, &remainder);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The operator forms degrade to zero instead of aborting.
  EXPECT_EQ(BigInt(42) / BigInt(0), BigInt(0));
  EXPECT_EQ(BigInt(42) % BigInt(0), BigInt(0));
  EXPECT_EQ(BigInt(42).FloorDiv(BigInt(0)), BigInt(0));
  EXPECT_EQ(BigInt(42).CeilDiv(BigInt(0)), BigInt(0));
}

TEST(BigIntTest, GcdMatchesEuclid) {
  EXPECT_EQ(BigInt::Gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::Gcd(BigInt(-12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)), BigInt(5));
  EXPECT_EQ(BigInt::Gcd(BigInt(7), BigInt(13)), BigInt(1));
}

TEST(BigIntTest, CompareTotalOrder) {
  EXPECT_LT(BigInt(-2), BigInt(-1));
  EXPECT_LT(BigInt(-1), BigInt(0));
  EXPECT_LT(BigInt(0), BigInt(1));
  EXPECT_LT(BigInt(1), BigInt::Pow2(100));
  EXPECT_LT(-BigInt::Pow2(100), BigInt(-1));
}

TEST(BigIntTest, FitsInt64Boundaries) {
  EXPECT_TRUE(BigInt(INT64_MAX).FitsInt64());
  EXPECT_TRUE(BigInt(INT64_MIN).FitsInt64());
  EXPECT_FALSE((BigInt(INT64_MAX) + BigInt(1)).FitsInt64());
  EXPECT_TRUE((BigInt(INT64_MIN) + BigInt(1)).FitsInt64());
  ASSERT_OK_AND_ASSIGN(int64_t min64, BigInt(INT64_MIN).TryToInt64());
  EXPECT_EQ(min64, INT64_MIN);
  ASSERT_OK_AND_ASSIGN(int64_t max64, BigInt(INT64_MAX).TryToInt64());
  EXPECT_EQ(max64, INT64_MAX);
  Result<int64_t> overflow = (BigInt(INT64_MAX) + BigInt(1)).TryToInt64();
  EXPECT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
}

TEST(BigIntTest, PowAndPow2) {
  EXPECT_EQ(BigInt::Pow2(0), BigInt(1));
  EXPECT_EQ(BigInt::Pow2(10), BigInt(1024));
  EXPECT_EQ(BigInt::Pow(BigInt(3), 5), BigInt(243));
  EXPECT_EQ(BigInt::Pow(BigInt(10), 20).ToString(),
            "100000000000000000000");
  EXPECT_EQ(BigInt::Pow(BigInt(7), 0), BigInt(1));
}

TEST(BigIntTest, BitLength) {
  EXPECT_EQ(BigInt(0).BitLength(), 0u);
  EXPECT_EQ(BigInt(1).BitLength(), 1u);
  EXPECT_EQ(BigInt(255).BitLength(), 8u);
  EXPECT_EQ(BigInt(256).BitLength(), 9u);
  EXPECT_EQ(BigInt::Pow2(100).BitLength(), 101u);
}

// Property sweep: (a*b)/b == a and (a+b)-b == a over a grid of values
// crossing limb boundaries.
class BigIntPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BigIntPropertyTest, RingAxiomsAcrossLimbBoundaries) {
  const int shift = GetParam();
  BigInt base = BigInt::Pow2(shift);
  for (int64_t da = -2; da <= 2; ++da) {
    for (int64_t db = -2; db <= 2; ++db) {
      BigInt a = base + BigInt(da);
      BigInt b = base + BigInt(db);
      EXPECT_EQ((a + b) - b, a);
      EXPECT_EQ((a - b) + b, a);
      if (!b.is_zero()) {
        EXPECT_EQ((a * b) / b, a);
        BigInt quotient;
        BigInt remainder;
        ASSERT_OK(a.DivMod(b, &quotient, &remainder));
        EXPECT_EQ(quotient * b + remainder, a.Abs());
      }
      EXPECT_EQ(a * b, b * a);
      EXPECT_EQ(a * (b + b), a * b + a * b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LimbBoundaries, BigIntPropertyTest,
                         ::testing::Values(1, 16, 31, 32, 33, 63, 64, 65, 96,
                                           128));

// The single-limb multiply shortcut must agree with the schoolbook
// path at every limb boundary, including carries out of the top limb.
TEST(BigIntTest, SingleLimbMultiplyBoundaries) {
  const uint64_t small_values[] = {1, 2, 0x7fffffff, 0x80000000, 0xffffffff};
  const int shifts[] = {0, 31, 32, 33, 63, 64, 65, 127, 128};
  for (uint64_t s : small_values) {
    BigInt single(static_cast<int64_t>(s));
    for (int shift : shifts) {
      for (int64_t delta = -1; delta <= 1; ++delta) {
        BigInt multi = BigInt::Pow2(shift) + BigInt(delta);
        BigInt product = multi * single;
        EXPECT_EQ(product, single * multi);  // either operand may be short
        if (!single.is_zero()) {
          EXPECT_EQ(product / single, multi)
              << "s=" << s << " shift=" << shift << " delta=" << delta;
          EXPECT_TRUE((product % single).is_zero());
        }
      }
    }
  }
  // Max carry propagation: (2^96 - 1) * (2^32 - 1).
  BigInt all_ones = BigInt::Pow2(96) - BigInt(1);
  BigInt top_limb = BigInt::Pow2(32) - BigInt(1);
  EXPECT_EQ(all_ones * top_limb,
            BigInt::Pow2(128) - BigInt::Pow2(96) - BigInt::Pow2(32) + BigInt(1));
}

// The widened (<= 2 limb) divisor shortcut must match the long-division
// path around the 2^32 and 2^64 divisor boundaries.
TEST(BigIntTest, ShortDivisorBoundaries) {
  BigInt dividend = BigInt::Pow2(200) + BigInt::Pow2(100) + BigInt(12345);
  const int divisor_shifts[] = {1, 31, 32, 33, 63};
  for (int shift : divisor_shifts) {
    for (int64_t delta = -1; delta <= 1; ++delta) {
      BigInt divisor = BigInt::Pow2(shift) + BigInt(delta);
      if (divisor.is_zero()) continue;
      BigInt quotient;
      BigInt remainder;
      ASSERT_OK(dividend.DivMod(divisor, &quotient, &remainder));
      EXPECT_EQ(quotient * divisor + remainder, dividend)
          << "shift=" << shift << " delta=" << delta;
      EXPECT_LT(remainder, divisor);
      EXPECT_FALSE(remainder.is_negative());
    }
  }
  // Divisor exactly at the top of the two-limb range: 2^64 - 1.
  BigInt two_limb_max = BigInt::Pow2(64) - BigInt(1);
  BigInt quotient;
  BigInt remainder;
  ASSERT_OK(dividend.DivMod(two_limb_max, &quotient, &remainder));
  EXPECT_EQ(quotient * two_limb_max + remainder, dividend);
  EXPECT_LT(remainder, two_limb_max);
  // And just past it (2^64 + 1 takes the general path).
  BigInt three_limb = BigInt::Pow2(64) + BigInt(1);
  ASSERT_OK(dividend.DivMod(three_limb, &quotient, &remainder));
  EXPECT_EQ(quotient * three_limb + remainder, dividend);
}

// ---------------------------------------------------------------------
// In-place kernels: shifts, compound assignment, and fused updates.

TEST(BigIntTest, ShlShrBitsBoundaries) {
  // Shift amounts straddling every limb-boundary special case: 0 bits,
  // 31/32/33 (around one limb), 63/64/65 (around two limbs).
  const uint64_t shifts[] = {0, 1, 31, 32, 33, 63, 64, 65, 95, 96, 127};
  for (uint64_t s : shifts) {
    for (int64_t seed : {1, 3, 0x7fffffff, -5}) {
      BigInt value = BigInt(seed) * BigInt::Pow2(17) + BigInt(seed < 0 ? -1 : 1);
      BigInt shifted = value;
      shifted.ShlBits(s);
      EXPECT_EQ(shifted, value * BigInt::Pow2(s)) << "s=" << s;
      // Round trip: (v << s) >> s == v (no bits shifted out).
      shifted.ShrBits(s);
      EXPECT_EQ(shifted, value) << "s=" << s;
    }
  }
}

TEST(BigIntTest, ShrBitsTruncatesTowardZero) {
  BigInt value = BigInt::Pow2(100) + BigInt(7);
  BigInt v = value;
  v.ShrBits(3);  // drops the low 7's bits
  EXPECT_EQ(v, (BigInt::Pow2(100) + BigInt(7)).FloorDiv(BigInt(8)));
  // Shifting out every significant bit yields exactly zero.
  v = BigInt(12345);
  v.ShrBits(14);
  EXPECT_TRUE(v.is_zero());
  v = -BigInt::Pow2(64);
  v.ShrBits(65);
  EXPECT_TRUE(v.is_zero());
  EXPECT_FALSE(v.is_negative());
  // Negative magnitudes shift as magnitudes (sign preserved while
  // nonzero).
  v = BigInt(-40);
  v.ShrBits(2);
  EXPECT_EQ(v, BigInt(-10));
}

TEST(BigIntTest, ShlBitsTopLimbOverflow) {
  // A full top limb shifted by 31 bits must carry into a fresh limb
  // (this is the path a missed top-limb overflow would corrupt).
  BigInt value = BigInt::Pow2(96) - BigInt(1);  // three full limbs
  BigInt v = value;
  v.ShlBits(31);
  EXPECT_EQ(v, value * BigInt::Pow2(31));
  EXPECT_EQ(v.BitLength(), 96u + 31u);
  v = value;
  v.ShlBits(32);  // pure limb shift, no bit spill
  EXPECT_EQ(v, value * BigInt::Pow2(32));
}

TEST(BigIntTest, TrailingZeroBits) {
  EXPECT_EQ(BigInt(0).TrailingZeroBits(), 0u);
  EXPECT_EQ(BigInt(1).TrailingZeroBits(), 0u);
  EXPECT_EQ(BigInt(8).TrailingZeroBits(), 3u);
  EXPECT_EQ(BigInt(-8).TrailingZeroBits(), 3u);
  EXPECT_EQ(BigInt::Pow2(32).TrailingZeroBits(), 32u);
  EXPECT_EQ(BigInt::Pow2(100).TrailingZeroBits(), 100u);
  EXPECT_EQ((BigInt::Pow2(100) + BigInt::Pow2(33)).TrailingZeroBits(), 33u);
}

TEST(BigIntTest, CompoundAssignmentMatchesValueForms) {
  const int shifts[] = {1, 32, 64, 100, 200};
  for (int sa : shifts) {
    for (int sb : shifts) {
      for (int64_t da : {-1, 0, 1}) {
        for (int64_t db : {-1, 0, 1}) {
          BigInt a = BigInt::Pow2(sa) + BigInt(da);
          BigInt b = BigInt::Pow2(sb) + BigInt(db);
          for (const BigInt& x : {a, -a}) {
            for (const BigInt& y : {b, -b}) {
              BigInt t = x;
              t += y;
              EXPECT_EQ(t, x + y);
              t = x;
              t -= y;
              EXPECT_EQ(t, x - y);
              t = x;
              t *= y;
              EXPECT_EQ(t, x * y);
            }
          }
        }
      }
    }
  }
}

TEST(BigIntTest, CompoundAssignmentAliasing) {
  // x += x, x -= x, x *= x must read consistent values even though the
  // in-place kernels mutate this->limbs_ mid-pass.
  for (int shift : {1, 32, 64, 150}) {
    for (int64_t delta : {-1, 0, 1}) {
      BigInt value = BigInt::Pow2(shift) + BigInt(delta);
      for (const BigInt& seed : {value, -value}) {
        BigInt x = seed;
        x += x;
        EXPECT_EQ(x, seed + seed);
        x = seed;
        x -= x;
        EXPECT_TRUE(x.is_zero());
        EXPECT_FALSE(x.is_negative());
        x = seed;
        x *= x;
        EXPECT_EQ(x, seed * seed);
      }
    }
  }
}

TEST(BigIntTest, MulAddSmallMatchesOperators) {
  const int64_t multipliers[] = {0, 1, 2, 1000000000, INT64_MAX, -3};
  const int64_t addends[] = {0, 1, 999999999, INT64_MAX, -7};
  for (int shift : {0, 1, 33, 90}) {
    for (int64_t m : multipliers) {
      for (int64_t add : addends) {
        for (int64_t sign : {1, -1}) {
          BigInt seed = (BigInt::Pow2(shift) + BigInt(5)) * BigInt(sign);
          BigInt expect = seed * BigInt(m) + BigInt(add);
          BigInt got = seed;
          got.MulAddSmall(m, add);
          EXPECT_EQ(got, expect)
              << "shift=" << shift << " m=" << m << " add=" << add
              << " sign=" << sign;
        }
      }
    }
  }
}

TEST(BigIntTest, SubMulFusedAndAliased) {
  BigInt a = BigInt::Pow2(100) + BigInt(17);
  BigInt b = BigInt::Pow2(70) - BigInt(3);
  BigInt c = BigInt(-12345);
  BigInt t = a;
  t.SubMul(b, c);
  EXPECT_EQ(t, a - b * c);
  // b aliases *this.
  t = a;
  t.SubMul(t, c);
  EXPECT_EQ(t, a - a * c);
  // c aliases *this.
  t = a;
  t.SubMul(b, t);
  EXPECT_EQ(t, a - b * a);
  // Both alias: t -= t * t.
  t = a;
  t.SubMul(t, t);
  EXPECT_EQ(t, a - a * a);
}

// Hand-derived Knuth-D add-back vector: with B = 2^64,
//   u = (B/2 - 1)·B^3 + (B/2)·B^2  =  2^255 - 2^192 + 2^191
//   v = (B/2)·B^2 + 1              =  2^191 + 1
// the two-word test accepts qhat = B - 1 which overestimates the true
// quotient digit, forcing the add-back branch (reachable only for
// divisors of >= 3 words; the 2-word estimate is exact below that).
TEST(BigIntTest, KnuthDivModAddBackPath) {
  BigInt u = BigInt::Pow2(255) - BigInt::Pow2(192) + BigInt::Pow2(191);
  BigInt v = BigInt::Pow2(191) + BigInt(1);
  BigInt q;
  BigInt r;
  ASSERT_OK(u.DivMod(v, &q, &r));
  EXPECT_EQ(q * v + r, u);
  EXPECT_LT(r, v);
  EXPECT_FALSE(r.is_negative());
  // The same vector must agree with the reference long division.
  BigInt q_ref;
  BigInt r_ref;
  ASSERT_OK(BigIntReference::DivMod(u, v, &q_ref, &r_ref));
  EXPECT_EQ(q, q_ref);
  EXPECT_EQ(r, r_ref);
}

TEST(BigIntTest, ReferenceFunctionsMatchWordKernels) {
  BigInt a = BigInt::Pow2(200) - BigInt(9);
  BigInt b = BigInt::Pow2(130) + BigInt(5);
  EXPECT_EQ(BigIntReference::Multiply(a, b), a * b);
  EXPECT_EQ(BigIntReference::Multiply(-a, b), -(a * b));
  EXPECT_EQ(BigIntReference::Multiply(a, BigInt(0)), BigInt(0));
  EXPECT_FALSE(BigIntReference::Multiply(-a, BigInt(0)).is_negative());
  EXPECT_EQ(BigIntReference::Gcd(a * b, b * BigInt(21)),
            BigInt::Gcd(a * b, b * BigInt(21)));
  EXPECT_EQ(BigIntReference::Gcd(BigInt(0), -b), b);
  BigInt q;
  BigInt r;
  ASSERT_OK(BigIntReference::DivMod(-(a * b + BigInt(7)), b, &q, &r));
  EXPECT_EQ(q, a);
  EXPECT_EQ(r, BigInt(7));
  EXPECT_FALSE(BigIntReference::DivMod(a, BigInt(0), &q, &r).ok());
}

TEST(BigIntTest, GcdLargeOperands) {
  // gcd(g*x, g*y) == g for coprime x, y — exercised at sizes that take
  // the Stein loop rather than the native fallback.
  BigInt g = BigInt::Pow2(90) + BigInt(123);
  BigInt x = BigInt::Pow2(80) + BigInt(1);   // odd
  BigInt y = BigInt::Pow2(80) - BigInt(1);   // odd, coprime with x
  BigInt gcd = BigInt::Gcd(g * x, g * y);
  EXPECT_TRUE((g % gcd).is_zero());
  EXPECT_TRUE(((g * x) % gcd).is_zero());
  EXPECT_TRUE(((g * y) % gcd).is_zero());
  // Power-of-two common factors flow through the common_twos path.
  EXPECT_EQ(BigInt::Gcd(BigInt::Pow2(100), BigInt::Pow2(70)),
            BigInt::Pow2(70));
  // Wildly mismatched sizes take the initial balancing division.
  EXPECT_EQ(BigInt::Gcd(BigInt::Pow2(300) + BigInt(2), BigInt(2)), BigInt(2));
}

}  // namespace
}  // namespace xmlverify
