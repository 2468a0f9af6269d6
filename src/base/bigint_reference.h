// Reference BigInt kernels: the 32-bit schoolbook multiply, binary
// long division and Euclid's GCD that base/bigint.cc used before its
// word kernels (schoolbook and Karatsuba multiply over 64-bit words,
// Knuth Algorithm D, Stein's GCD). They work on the 32-bit limbs
// directly and share none of those kernels or their small-operand
// fast paths, so a test can check the production kernels against them
// (tests/base/bigint_stress_test.cc) and a benchmark can time them as
// the baseline (bench/bench_bigint.cc). The library never calls them.
#ifndef XMLVERIFY_BASE_BIGINT_REFERENCE_H_
#define XMLVERIFY_BASE_BIGINT_REFERENCE_H_

#include "base/bigint.h"
#include "base/status.h"

namespace xmlverify {

class BigIntReference {
 public:
  /// a * b by the 32-bit schoolbook double loop.
  static BigInt Multiply(const BigInt& a, const BigInt& b);

  /// Quotient and remainder of |dividend| / |divisor| by binary long
  /// division, one dividend bit per step. Same contract as
  /// BigInt::DivMod: nonnegative results, kInvalidArgument on a zero
  /// divisor.
  static Status DivMod(const BigInt& dividend, const BigInt& divisor,
                       BigInt* quotient, BigInt* remainder);

  /// Greatest common divisor of magnitudes by Euclid's algorithm over
  /// DivMod above.
  static BigInt Gcd(const BigInt& a, const BigInt& b);
};

}  // namespace xmlverify

#endif  // XMLVERIFY_BASE_BIGINT_REFERENCE_H_
