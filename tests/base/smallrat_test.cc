#include "base/smallrat.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/rational.h"
#include "base/string_util.h"

namespace xmlverify {
namespace {

TEST(SmallRationalTest, MakeCanonicalizes) {
  SmallRational r;
  ASSERT_TRUE(SmallRational::Make(6, 4, &r));
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 2);

  ASSERT_TRUE(SmallRational::Make(1, -2, &r));
  EXPECT_EQ(r.num(), -1);
  EXPECT_EQ(r.den(), 2);

  ASSERT_TRUE(SmallRational::Make(-9, -3, &r));
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 1);

  ASSERT_TRUE(SmallRational::Make(0, -7, &r));
  EXPECT_EQ(r.num(), 0);
  EXPECT_EQ(r.den(), 1);

  EXPECT_FALSE(SmallRational::Make(1, 0, &r));
}

TEST(SmallRationalTest, MakeRejectsUnreducibleInt64Min) {
  // INT64_MIN cannot be negated, so a canonical pair holding it in
  // either slot (after reduction) must be rejected rather than left
  // with a numerator whose magnitude overflows on operator-.
  SmallRational r;
  EXPECT_FALSE(SmallRational::Make(INT64_MIN, 1, &r));
  EXPECT_FALSE(SmallRational::Make(1, INT64_MIN, &r));
  // The rejection is deliberately conservative: even INT64_MIN/2,
  // which would reduce into range, is refused up front. The only cost
  // is an unnecessary promotion to the BigInt tier.
  EXPECT_FALSE(SmallRational::Make(INT64_MIN, 2, &r));
  // One step inside the boundary works.
  ASSERT_TRUE(SmallRational::Make(INT64_MIN + 1, 1, &r));
  EXPECT_EQ(r.num(), INT64_MIN + 1);
}

// Reference check: every small-tier op must agree with the BigInt tier.
void ExpectAgreesWithRational(const SmallRational& a, const SmallRational& b) {
  Rational ra = a.ToRational();
  Rational rb = b.ToRational();
  SmallRational out;
  if (SmallRational::Add(a, b, &out)) {
    EXPECT_EQ(out.ToRational(), ra + rb) << a.ToString() << "+" << b.ToString();
  }
  if (SmallRational::Sub(a, b, &out)) {
    EXPECT_EQ(out.ToRational(), ra - rb) << a.ToString() << "-" << b.ToString();
  }
  if (SmallRational::Mul(a, b, &out)) {
    EXPECT_EQ(out.ToRational(), ra * rb) << a.ToString() << "*" << b.ToString();
  }
  if (!b.is_zero() && SmallRational::Div(a, b, &out)) {
    EXPECT_EQ(out.ToRational(), ra / rb) << a.ToString() << "/" << b.ToString();
  }
  EXPECT_EQ(a.Compare(b), ra.Compare(rb));
}

TEST(SmallRationalTest, ArithmeticMatchesBigIntTier) {
  std::vector<SmallRational> values;
  const int64_t nums[] = {0,  1,  -1, 2,  3,  -5, 7,  100, -999,
                          INT64_MAX, INT64_MAX - 1, -(INT64_MAX - 7)};
  const int64_t dens[] = {1, 2, 3, 7, 1000, INT64_MAX};
  for (int64_t n : nums) {
    for (int64_t d : dens) {
      SmallRational r;
      if (SmallRational::Make(n, d, &r)) values.push_back(r);
    }
  }
  for (const SmallRational& a : values) {
    for (const SmallRational& b : values) {
      ExpectAgreesWithRational(a, b);
    }
  }
}

TEST(SmallRationalTest, SubMulMatchesTwoStepResult) {
  SmallRational a, b, c;
  ASSERT_TRUE(SmallRational::Make(7, 3, &a));
  ASSERT_TRUE(SmallRational::Make(-5, 2, &b));
  ASSERT_TRUE(SmallRational::Make(11, 6, &c));
  SmallRational fused;
  ASSERT_TRUE(SmallRational::SubMul(a, b, c, &fused));
  EXPECT_EQ(fused.ToRational(),
            a.ToRational() - b.ToRational() * c.ToRational());
}

TEST(SmallRationalTest, OverflowIsReportedNotWrapped) {
  SmallRational big;
  ASSERT_TRUE(SmallRational::Make(INT64_MAX, 1, &big));
  SmallRational out;
  // MAX + MAX and MAX * MAX leave int64 range even after reduction.
  EXPECT_FALSE(SmallRational::Add(big, big, &out));
  EXPECT_FALSE(SmallRational::Mul(big, big, &out));
  // MAX - MAX collapses to zero: fine in the small tier.
  ASSERT_TRUE(SmallRational::Sub(big, big, &out));
  EXPECT_TRUE(out.is_zero());
  // Huge denominators: 1/MAX + 1/(MAX-1) needs a denominator product
  // far beyond int64.
  SmallRational tiny_a, tiny_b;
  ASSERT_TRUE(SmallRational::Make(1, INT64_MAX, &tiny_a));
  ASSERT_TRUE(SmallRational::Make(1, INT64_MAX - 1, &tiny_b));
  EXPECT_FALSE(SmallRational::Add(tiny_a, tiny_b, &out));
}

TEST(SmallRationalTest, AliasedOutputIsSafe) {
  SmallRational a, b;
  ASSERT_TRUE(SmallRational::Make(3, 4, &a));
  ASSERT_TRUE(SmallRational::Make(5, 6, &b));
  SmallRational expected;
  ASSERT_TRUE(SmallRational::Add(a, b, &expected));
  ASSERT_TRUE(SmallRational::Add(a, b, &a));  // out aliases lhs
  EXPECT_EQ(a.Compare(expected), 0);
  ASSERT_TRUE(SmallRational::Make(3, 4, &a));
  ASSERT_TRUE(SmallRational::Mul(a, a, &a));  // all three alias
  SmallRational nine_sixteenths;
  ASSERT_TRUE(SmallRational::Make(9, 16, &nine_sixteenths));
  EXPECT_EQ(a.Compare(nine_sixteenths), 0);
}

TEST(SmallRationalTest, FromRationalRoundTrips) {
  SmallRational r;
  ASSERT_TRUE(SmallRational::FromRational(Rational(BigInt(-7), BigInt(3)), &r));
  EXPECT_EQ(r.num(), -7);
  EXPECT_EQ(r.den(), 3);
  // A numerator beyond int64 must be rejected.
  Rational huge(BigInt::Pow2(80), BigInt(3));
  EXPECT_FALSE(SmallRational::FromRational(huge, &r));
  // INT64_MIN is representable as a BigInt numerator but not as a
  // canonical SmallRational (negation would overflow).
  Rational min_num{BigInt(INT64_MIN), BigInt(1)};
  EXPECT_FALSE(SmallRational::FromRational(min_num, &r));
}

// ---------------------------------------------------------------------
// Seeded differential sweep of both tiers against the BigInt Rational.
// The draws reach every small-tier path: integers (one __int128
// expression, no gcd), integers mixed with fractions, numerators and
// denominators near INT64_MAX, operands that share a factor above 2^32
// (so a reduction divides out a gcd beyond 32 bits), and results of
// exactly +-INT64_MAX, INT64_MIN and 2^63. Not named a stress test, so
// the sanitizer job runs it.

// One operation in both tiers, its BigInt reference, and the first
// operand that makes it land on a given result.
using S = const SmallRational&;
using T = const TwoTierRational&;
using R = const Rational&;
struct OpCase {
  const char* name;
  bool (*small)(S a, S b, S c, SmallRational* out);
  void (*two_tier)(TwoTierRational* a, T b, T c);
  Rational (*reference)(R a, R b, R c);
  Rational (*solve_for_a)(R target, R b, R c);
  bool divides;  // b must be nonzero
};

const OpCase kOps[] = {
    {"Add", [](S a, S b, S, SmallRational* out) {
       return SmallRational::Add(a, b, out);
     },
     [](TwoTierRational* a, T b, T) { *a += b; },
     [](R a, R b, R) { return a + b; }, [](R t, R b, R) { return t - b; },
     false},
    {"Sub", [](S a, S b, S, SmallRational* out) {
       return SmallRational::Sub(a, b, out);
     },
     [](TwoTierRational* a, T b, T) { *a -= b; },
     [](R a, R b, R) { return a - b; }, [](R t, R b, R) { return t + b; },
     false},
    {"Mul", [](S a, S b, S, SmallRational* out) {
       return SmallRational::Mul(a, b, out);
     },
     [](TwoTierRational* a, T b, T) { *a *= b; },
     [](R a, R b, R) { return a * b; }, [](R t, R b, R) { return t / b; },
     true},
    {"Div", [](S a, S b, S, SmallRational* out) {
       return SmallRational::Div(a, b, out);
     },
     [](TwoTierRational* a, T b, T) { *a /= b; },
     [](R a, R b, R) { return a / b; }, [](R t, R b, R) { return t * b; },
     true},
    {"SubMul", [](S a, S b, S c, SmallRational* out) {
       return SmallRational::SubMul(a, b, c, out);
     },
     [](TwoTierRational* a, T b, T c) { a->SubMul(b, c); },
     [](R a, R b, R c) { return a - b * c; },
     [](R t, R b, R c) { return t + b * c; }, false},
};

// splitmix64 operand draws; see the block comment above.
class OperandDraws {
 public:
  explicit OperandDraws(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  // A factor in [2^32, 2^33) that several operands of one trial share.
  int64_t SharedFactor() {
    return (int64_t{1} << 32) + static_cast<int64_t>(Next() % (1ull << 32));
  }

  SmallRational Draw(int64_t shared) {
    int64_t num = 0;
    int64_t den = 1;
    switch (Next() % 7) {
      case 0:  // small integer
        num = Small();
        break;
      case 1:  // small fraction
        num = Small();
        den = 1 + static_cast<int64_t>(Next() % 60);
        break;
      case 2:  // integer near the edge
        num = Signed(NearMax());
        break;
      case 3:  // numerator near the edge
        num = Signed(NearMax());
        den = 2 + static_cast<int64_t>(Next() % 60);
        break;
      case 4:  // denominator near the edge
        num = Small();
        den = NearMax();
        break;
      case 5:  // numerator carries the shared factor
        num = Signed(shared * (1 + static_cast<int64_t>(Next() % 3)));
        den = 1 + static_cast<int64_t>(Next() % 60);
        break;
      default:  // denominator carries the shared factor
        num = Small();
        den = shared * (1 + static_cast<int64_t>(Next() % 3));
        break;
    }
    SmallRational value;
    EXPECT_TRUE(SmallRational::Make(num, den, &value)) << num << "/" << den;
    return value;
  }

  // A big-tier operand: a component beyond int64.
  Rational DrawBig() {
    BigInt num =
        BigInt(NearMax()) * BigInt(2 + static_cast<int64_t>(Next() % 5));
    if (Next() & 1) num = -num;
    BigInt den(1 + static_cast<int64_t>(Next() % 7));
    if (Next() % 3 == 0) std::swap(num, den);
    if (den.is_negative()) {
      num = -num;
      den = -den;
    }
    return Rational(num, den);
  }

  size_t Pick(size_t bound) { return static_cast<size_t>(Next() % bound); }

 private:
  int64_t Small() { return static_cast<int64_t>(Next() % 201) - 100; }
  int64_t NearMax() { return INT64_MAX - static_cast<int64_t>(Next() % 1000); }
  int64_t Signed(int64_t magnitude) {
    return (Next() & 1) != 0 ? magnitude : -magnitude;
  }

  uint64_t state_;
};

// Results the edge trials aim at: two that fit and two that do not
// (INT64_MIN has no canonical negation).
std::vector<Rational> EdgeTargets() {
  return {Rational(INT64_MAX), Rational(-INT64_MAX), Rational(INT64_MIN),
          Rational(BigInt(INT64_MAX) + BigInt(1))};
}

bool FitsSmallTier(const Rational& value) {
  SmallRational ignored;
  return SmallRational::FromRational(value, &ignored);
}

TEST(SmallRationalTest, DifferentialSweepAgainstBigIntTier) {
  OperandDraws draws(0x5eed5a11ull);
  const std::vector<Rational> targets = EdgeTargets();
  int integer_successes = 0;
  int mixed_successes = 0;
  int edge_fits = 0;
  int edge_overflows = 0;
  int large_gcds = 0;
  int submul_past_product = 0;
  const BigInt two_pow_32 = BigInt::Pow2(32);
  for (int trial = 0; trial < 40000; ++trial) {
    const int64_t shared = draws.SharedFactor();
    const OpCase& op = kOps[trial % 5];
    SmallRational a = draws.Draw(shared);
    const SmallRational b = draws.Draw(shared);
    const SmallRational c = draws.Draw(shared);
    if (op.divides && b.is_zero()) continue;
    // One trial in four picks `a` so the exact result is a target.
    if (trial % 4 == 3 &&
        !SmallRational::FromRational(
            op.solve_for_a(targets[draws.Pick(targets.size())],
                           b.ToRational(), c.ToRational()),
            &a)) {
      continue;
    }
    const Rational want =
        op.reference(a.ToRational(), b.ToRational(), c.ToRational());
    SmallRational expected;
    const bool fits = SmallRational::FromRational(want, &expected);
    SmallRational got;
    const bool ok = op.small(a, b, c, &got);
    const std::string context = StrCat(op.name, "(", a.ToString(), ", ",
                                       b.ToString(), ", ", c.ToString(), ")");
    // false means exactly that the canonical result does not fit.
    ASSERT_EQ(ok, fits) << context << " = " << want;
    for (const Rational& target : targets) {
      if (want == target) ++(fits ? edge_fits : edge_overflows);
    }
    if (!ok) continue;
    ASSERT_EQ(got.num(), expected.num()) << context;
    ASSERT_EQ(got.den(), expected.den()) << context;

    const bool is_submul = std::string_view(op.name) == "SubMul";
    const bool integers =
        a.is_integer() && b.is_integer() && (!is_submul || c.is_integer());
    if (integers) {
      ++integer_successes;
    } else if (a.is_integer() || b.is_integer() ||
               (is_submul && c.is_integer())) {
      ++mixed_successes;
    }
    // The factor the reduction divided out of the unreduced denominator.
    BigInt naive_den = BigInt(a.den()) * BigInt(b.den());
    if (std::string_view(op.name) == "Div") {
      naive_den = BigInt(a.den()) * BigInt(b.num()).Abs();
    }
    if (is_submul) naive_den = naive_den * BigInt(c.den());
    if (!want.is_zero() && naive_den / want.denominator() > two_pow_32) {
      ++large_gcds;
    }
    // SubMul succeeds wherever a - b*c fits, also where b*c alone
    // overflows: it is computed exactly, not as a minus a small-tier
    // b*c.
    SmallRational product;
    if (is_submul && !SmallRational::Mul(b, c, &product)) {
      ++submul_past_product;
    }
  }
  // Every path ran: the counts are fixed by the seed.
  EXPECT_GT(integer_successes, 1000);
  EXPECT_GT(mixed_successes, 1000);
  EXPECT_GT(edge_fits, 300);
  EXPECT_GT(edge_overflows, 250);
  EXPECT_GT(large_gcds, 300);
  EXPECT_GT(submul_past_product, 5);
}

TEST(SmallRationalTest, SubMulSucceedsWherePartialProductOverflows) {
  // b*c = 2*(INT64_MAX - 5) leaves int64, but INT64_MAX - b*c =
  // 10 - INT64_MAX fits.
  SmallRational a(INT64_MAX);
  SmallRational b(INT64_MAX - 5);
  SmallRational c(2);
  SmallRational product;
  EXPECT_FALSE(SmallRational::Mul(b, c, &product));
  SmallRational out;
  ASSERT_TRUE(SmallRational::SubMul(a, b, c, &out));
  EXPECT_EQ(out.num(), 10 - INT64_MAX);
  EXPECT_EQ(out.den(), 1);
  // The same with fractions: b*c = (2^63 + 1)/(2^62 + 1) has a numerator
  // beyond int64, and 3 - 3*c = (2^62 + 2)/(2^62 + 1) fits.
  const int64_t q = (int64_t{1} << 62) + 1;
  const int64_t third = static_cast<int64_t>(((uint64_t{1} << 63) + 1) / 3);
  ASSERT_TRUE(SmallRational::Make(third, q, &c));
  b = SmallRational(3);
  EXPECT_FALSE(SmallRational::Mul(b, c, &product));
  ASSERT_TRUE(SmallRational::SubMul(SmallRational(3), b, c, &out));
  EXPECT_EQ(out.ToRational(),
            Rational(BigInt((int64_t{1} << 62) + 2), BigInt(q)));
}

TEST(TwoTierRationalTest, DifferentialSweepAgainstBigIntTier) {
  OperandDraws draws(0x7a11e5ull);
  const std::vector<Rational> targets = EdgeTargets();
  int big_operands = 0;
  int promotions = 0;
  for (int trial = 0; trial < 10000; ++trial) {
    const int64_t shared = draws.SharedFactor();
    const OpCase& op = kOps[trial % 5];
    // Each operand is big one time in four.
    auto draw = [&]() {
      return draws.Pick(4) == 0 ? draws.DrawBig()
                                : draws.Draw(shared).ToRational();
    };
    Rational ra = draw();
    const Rational rb = draw();
    const Rational rc = draw();
    if (op.divides && rb.is_zero()) continue;
    if (trial % 4 == 3) {
      ra = op.solve_for_a(targets[draws.Pick(targets.size())], rb, rc);
    }
    TwoTierRational a(ra);
    const TwoTierRational b(rb);
    const TwoTierRational c(rc);
    const bool was_small = a.small() && b.small() && c.small();
    if (!was_small) ++big_operands;
    op.two_tier(&a, b, c);
    const Rational want = op.reference(ra, rb, rc);
    const std::string context = StrCat(op.name, "(", ra.ToString(), ", ",
                                       rb.ToString(), ", ", rc.ToString(), ")");
    ASSERT_EQ(a.ToRational(), want) << context;
    // A value sits in the small tier exactly when it fits there.
    ASSERT_EQ(a.small(), FitsSmallTier(want)) << context;
    if (was_small && !a.small()) ++promotions;
  }
  EXPECT_GT(big_operands, 2000);
  EXPECT_GT(promotions, 1000);
}

TEST(TwoTierRationalTest, StaysSmallOnSmallArithmetic) {
  TwoTierRational a(int64_t{7});
  TwoTierRational b(int64_t{3});
  a /= b;  // 7/3
  a += TwoTierRational(int64_t{1});
  EXPECT_TRUE(a.small());
  EXPECT_EQ(a.ToRational(), Rational(BigInt(10), BigInt(3)));
}

TEST(TwoTierRationalTest, PromotesOnOverflowAndStaysExact) {
  TwoTierRational big(BigInt(INT64_MAX));
  EXPECT_TRUE(big.small());
  TwoTierRational product = big;
  product *= big;  // MAX^2: must promote
  EXPECT_FALSE(product.small());
  EXPECT_EQ(product.ToRational(),
            Rational(BigInt(INT64_MAX) * BigInt(INT64_MAX)));
}

TEST(TwoTierRationalTest, DemotesWhenResultShrinks) {
  TwoTierRational value(BigInt(INT64_MAX));
  TwoTierRational copy = value;
  value *= copy;  // promoted
  ASSERT_FALSE(value.small());
  // Divide back down: MAX^2 / MAX = MAX fits the small tier again.
  value /= copy;
  EXPECT_TRUE(value.small());
  EXPECT_EQ(value.ToRational(), Rational(BigInt(INT64_MAX)));
}

TEST(TwoTierRationalTest, ConstructionFromBigValueStartsBig) {
  TwoTierRational value(BigInt::Pow2(100));
  EXPECT_FALSE(value.small());
  TwoTierRational small_again(BigInt(42));
  EXPECT_TRUE(small_again.small());
}

TEST(TwoTierRationalTest, MixedTierArithmeticIsExact) {
  TwoTierRational big(BigInt::Pow2(100));
  TwoTierRational small(int64_t{5});
  TwoTierRational sum = big;
  sum += small;
  EXPECT_EQ(sum.ToRational(), Rational(BigInt::Pow2(100) + BigInt(5)));
  TwoTierRational diff = small;
  diff -= big;
  EXPECT_EQ(diff.ToRational(), Rational(BigInt(5) - BigInt::Pow2(100)));
}

TEST(TwoTierRationalTest, SubMulKernelMatchesReference) {
  // Small path.
  TwoTierRational a(int64_t{7});
  TwoTierRational b(int64_t{2});
  TwoTierRational c(int64_t{3});
  a.SubMul(b, c);
  EXPECT_TRUE(a.small());
  EXPECT_EQ(a.ToRational(), Rational(1));
  // Overflowing path: a - b*c where b*c leaves int64.
  TwoTierRational base(int64_t{1});
  TwoTierRational big(BigInt(INT64_MAX));
  base.SubMul(big, big);
  EXPECT_EQ(base.ToRational(),
            Rational(BigInt(1) - BigInt(INT64_MAX) * BigInt(INT64_MAX)));
  // Cancellation demotes: MAX^2 - MAX*MAX = 0.
  TwoTierRational squared = big;
  squared *= big;
  squared.SubMul(big, big);
  EXPECT_TRUE(squared.small());
  EXPECT_TRUE(squared.is_zero());
}

TEST(TwoTierRationalTest, CompareCrossesTiers) {
  TwoTierRational small(int64_t{3});
  TwoTierRational big(BigInt::Pow2(100));
  EXPECT_LT(small.Compare(big), 0);
  EXPECT_GT(big.Compare(small), 0);
  TwoTierRational promoted_three(BigInt::Pow2(100));
  promoted_three -= big;
  promoted_three += small;  // equals 3, possibly after demotion
  EXPECT_EQ(promoted_three.Compare(small), 0);
}

TEST(TwoTierRationalTest, CopyAndMoveSemantics) {
  TwoTierRational big(BigInt::Pow2(90));
  TwoTierRational copy = big;
  EXPECT_EQ(copy.Compare(big), 0);
  copy += TwoTierRational(int64_t{1});
  EXPECT_NE(copy.Compare(big), 0);  // deep copy, not shared state
  TwoTierRational moved = std::move(copy);
  EXPECT_EQ(moved.ToRational(), Rational(BigInt::Pow2(90) + BigInt(1)));
  // Self-assignment keeps the value.
  TwoTierRational& alias = big;
  big = alias;
  EXPECT_EQ(big.ToRational(), Rational(BigInt::Pow2(90)));
  // Aliased compound ops.
  TwoTierRational x(int64_t{4});
  x += x;
  EXPECT_EQ(x.ToRational(), Rational(8));
  x.SubMul(x, TwoTierRational(int64_t{1}));  // x - x*1 = 0
  EXPECT_TRUE(x.is_zero());
}

TEST(TwoTierRationalTest, NegateBothTiers) {
  TwoTierRational small(int64_t{5});
  small.Negate();
  EXPECT_EQ(small.ToRational(), Rational(-5));
  TwoTierRational big(BigInt::Pow2(100));
  big.Negate();
  EXPECT_EQ(big.ToRational(), Rational(BigInt(0) - BigInt::Pow2(100)));
}

}  // namespace
}  // namespace xmlverify
