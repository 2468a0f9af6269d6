#include "base/bigint.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <vector>

#include "trace/trace.h"

namespace xmlverify {

namespace {

constexpr uint64_t kLimbBase = uint64_t{1} << 32;

using Limbs = internal_bigint::LimbVector;

// ---------------------------------------------------------------------
// Kernels.
//
// Magnitudes above two limbs are processed as little-endian vectors of
// 64-bit words (two limbs per word): half the inner-loop iterations of
// the 32-bit schoolbook loops, with __int128 intermediates. Word
// counts at or above kKaratsubaWords additionally take the Karatsuba
// balanced-split recursion. The 32-bit schoolbook multiply, binary
// long division and Euclid GCD that these replaced live on in
// base/bigint_reference.cc, as the reference the tests and
// bench_bigint compare against.

// Tuned with bench_bigint on the container this repo builds in: below
// ~20 words the recursion's extra adds and scratch traffic cost more
// than the saved multiplies.
constexpr size_t kKaratsubaWords = 20;

uint64_t NativeGcd(uint64_t a, uint64_t b) {
  while (b != 0) {
    uint64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

// ---------------------------------------------------------------------
// 64-bit word views. Words are little endian, two limbs per word, with
// high zero words trimmed; conversion is one linear pass each way.
//
// On little-endian targets an even-length little-endian uint32 limb
// vector already IS a little-endian uint64 word vector, so the hot
// multiply path reads operands and writes the product directly through
// reinterpret_cast word views instead of converting (see MulMagnitude).
// Word carries may_alias so those uint64 accesses to uint32 storage
// stay defined behavior for the compiler; every such buffer is 8-byte
// aligned (LimbVector's inline array sits at offset 0 of an 8-aligned
// object, heap blocks come from operator new[]).
using Word = uint64_t __attribute__((may_alias));

std::vector<uint64_t> LimbsToWords(const Limbs& limbs) {
  std::vector<uint64_t> words((limbs.size() + 1) / 2);
  for (size_t i = 0; i < words.size(); ++i) {
    uint64_t word = limbs[2 * i];
    if (2 * i + 1 < limbs.size()) word |= uint64_t{limbs[2 * i + 1]} << 32;
    words[i] = word;
  }
  while (!words.empty() && words.back() == 0) words.pop_back();
  return words;
}

// Conversion into a caller-owned buffer whose capacity persists across
// calls (the multiply dispatch reuses thread-local scratch: at tableau
// sizes the three per-call heap allocations otherwise cost more than
// the word-loop saves).
void LimbsToWordsInto(const Limbs& limbs, std::vector<uint64_t>* words) {
  const size_t pairs = limbs.size() / 2;
  words->resize((limbs.size() + 1) / 2);
  const uint32_t* src = limbs.data();
  uint64_t* dst = words->data();
  for (size_t i = 0; i < pairs; ++i) {
    dst[i] = uint64_t{src[2 * i]} | (uint64_t{src[2 * i + 1]} << 32);
  }
  if (limbs.size() & 1) dst[pairs] = src[limbs.size() - 1];
  while (!words->empty() && words->back() == 0) words->pop_back();
}

size_t TrimWords(const Word* words, size_t count) {
  while (count > 0 && words[count - 1] == 0) --count;
  return count;
}

void WordsToLimbs(const uint64_t* words, size_t count, Limbs* out) {
  count = TrimWords(words, count);
  if (count == 0) {
    out->clear();
    return;
  }
  const uint64_t top = words[count - 1];
  const size_t limbs = 2 * count - ((top >> 32) == 0 ? 1 : 0);
  out->clear();
  out->resize(limbs);
  uint32_t* d = out->data();
  for (size_t i = 0; i + 1 < count; ++i) {
    d[2 * i] = static_cast<uint32_t>(words[i]);
    d[2 * i + 1] = static_cast<uint32_t>(words[i] >> 32);
  }
  d[2 * (count - 1)] = static_cast<uint32_t>(top);
  if ((top >> 32) != 0) d[2 * count - 1] = static_cast<uint32_t>(top >> 32);
}

// r[0..rn) += s[0..sn). Requires sn <= rn and the true sum to fit in
// rn words (guaranteed at every call site by the value being a partial
// product of a result that fits).
void AddIntoWords(Word* r, size_t rn, const Word* s, size_t sn) {
  unsigned __int128 carry = 0;
  for (size_t i = 0; i < sn; ++i) {
    unsigned __int128 sum = carry + r[i] + s[i];
    r[i] = static_cast<uint64_t>(sum);
    carry = sum >> 64;
  }
  for (size_t i = sn; carry != 0 && i < rn; ++i) {
    unsigned __int128 sum = carry + r[i];
    r[i] = static_cast<uint64_t>(sum);
    carry = sum >> 64;
  }
}

// r[0..rn) -= s[0..sn). Requires the value in r to be >= the value in
// s (the borrow chain terminates inside rn).
void SubFromWords(Word* r, size_t rn, const Word* s, size_t sn) {
  uint64_t borrow = 0;
  for (size_t i = 0; i < sn; ++i) {
    uint64_t si = s[i];
    uint64_t before = r[i];
    uint64_t after = before - si - borrow;
    borrow = (before < si || (borrow != 0 && before == si)) ? 1 : 0;
    r[i] = after;
  }
  for (size_t i = sn; borrow != 0 && i < rn; ++i) {
    uint64_t before = r[i];
    r[i] = before - 1;
    borrow = before == 0 ? 1 : 0;
  }
}

// r[0..an+bn) = a * b over 64-bit words (an, bn >= 1). Row-wise with
// two b-words per pass (the GMP "mul_2"/"addmul_2" shape): the first
// pass writes r outright (no pre-zeroing) while already consuming two
// b-words, later passes fold two partial rows into one traversal under
// a 128-bit running carry — p1 below cannot overflow, since
// (2^64-1)^2 + 2*(2^64-1) < 2^128. Halving the number of carry-chain
// traversals is what puts this kernel ~3.5x ahead of the 32-bit
// reference loop instead of ~2x; straight __int128 row loops only
// reach ~1.8x. Overwrites r completely.
void MulWordsSchoolbook(const Word* a, size_t an, const Word* b,
                        size_t bn, Word* r) {
  if (bn == 1) {
    const uint64_t b0 = b[0];
    uint64_t carry = 0;
    for (size_t i = 0; i < an; ++i) {
      unsigned __int128 p = static_cast<unsigned __int128>(a[i]) * b0 + carry;
      r[i] = static_cast<uint64_t>(p);
      carry = static_cast<uint64_t>(p >> 64);
    }
    r[an] = carry;
    return;
  }
  {
    const uint64_t b0 = b[0];
    const uint64_t b1 = b[1];
    unsigned __int128 carry = 0;
    for (size_t i = 0; i < an; ++i) {
      unsigned __int128 p0 = static_cast<unsigned __int128>(a[i]) * b0 +
                             static_cast<uint64_t>(carry);
      unsigned __int128 p1 = static_cast<unsigned __int128>(a[i]) * b1 +
                             static_cast<uint64_t>(p0 >> 64) +
                             static_cast<uint64_t>(carry >> 64);
      r[i] = static_cast<uint64_t>(p0);
      carry = p1;
    }
    r[an] = static_cast<uint64_t>(carry);
    r[an + 1] = static_cast<uint64_t>(carry >> 64);
  }
  size_t j = 2;
  for (; j + 1 < bn; j += 2) {
    const uint64_t b0 = b[j];
    const uint64_t b1 = b[j + 1];
    unsigned __int128 carry = 0;
    for (size_t i = 0; i < an; ++i) {
      unsigned __int128 p0 = static_cast<unsigned __int128>(a[i]) * b0 +
                             r[i + j] + static_cast<uint64_t>(carry);
      unsigned __int128 p1 = static_cast<unsigned __int128>(a[i]) * b1 +
                             static_cast<uint64_t>(p0 >> 64) +
                             static_cast<uint64_t>(carry >> 64);
      r[i + j] = static_cast<uint64_t>(p0);
      carry = p1;
    }
    r[j + an] = static_cast<uint64_t>(carry);
    r[j + an + 1] = static_cast<uint64_t>(carry >> 64);
  }
  if (j < bn) {
    const uint64_t b0 = b[j];
    uint64_t carry = 0;
    for (size_t i = 0; i < an; ++i) {
      unsigned __int128 p = static_cast<unsigned __int128>(a[i]) * b0 +
                            r[i + j] + carry;
      r[i + j] = static_cast<uint64_t>(p);
      carry = static_cast<uint64_t>(p >> 64);
    }
    r[j + an] = carry;
  }
}

// sum[0..n+1) = a[0..n_a) + b[0..n_b) with n = max(n_a, n_b); returns
// the trimmed length. `sum` must have capacity n + 1.
size_t AddWords(const Word* a, size_t an, const Word* b, size_t bn,
                Word* sum) {
  if (an < bn) {
    std::swap(a, b);
    std::swap(an, bn);
  }
  unsigned __int128 carry = 0;
  for (size_t i = 0; i < an; ++i) {
    unsigned __int128 cur = carry + a[i] + (i < bn ? b[i] : 0);
    sum[i] = static_cast<uint64_t>(cur);
    carry = cur >> 64;
  }
  size_t n = an;
  if (carry != 0) sum[n++] = static_cast<uint64_t>(carry);
  return TrimWords(sum, n);
}

// r[0..an+bn) = a * b, overwriting the whole range (callers need not
// pre-zero). Dispatches between the word base case and the Karatsuba
// balanced-split recursion:
//   a = a1*W^m + a0, b = b1*W^m + b0
//   a*b = z2*W^2m + ((a0+a1)(b0+b1) - z0 - z2)*W^m + z0
// z0 and z2 are computed straight into their disjoint slots of r; the
// middle term is built in scratch and folded in with one add and two
// subtracts, so each level does three half-size multiplies instead of
// four. Unbalanced operands split the longer one into chunks first so
// every Karatsuba step works on a near-square shape.
void MulWordsRec(const Word* a, size_t an, const Word* b, size_t bn,
                 Word* r) {
  const size_t full = an + bn;  // extent this call must overwrite
  an = TrimWords(a, an);
  bn = TrimWords(b, bn);
  if (an < bn) {
    std::swap(a, b);
    std::swap(an, bn);
  }
  if (bn == 0) {
    for (size_t i = 0; i < full; ++i) r[i] = 0;
    return;
  }
  if (bn < kKaratsubaWords) {
    MulWordsSchoolbook(a, an, b, bn, r);
    for (size_t i = an + bn; i < full; ++i) r[i] = 0;
    return;
  }
  const size_t m = (an + 1) / 2;
  if (bn <= m) {
    // Unbalanced: a = a1*W^m + a0 with b no longer than a0.
    MulWordsRec(a, m, b, bn, r);  // overwrites r[0..m+bn)
    std::vector<uint64_t> high(an - m + bn);
    MulWordsRec(a + m, an - m, b, bn, high.data());
    for (size_t i = m + bn; i < full; ++i) r[i] = 0;
    size_t hn = TrimWords(high.data(), high.size());
    AddIntoWords(r + m, full - m, high.data(), hn);
    return;
  }
  // Balanced split at m (bn > m, so both high halves are nonempty).
  MulWordsRec(a, m, b, m, r);                              // z0: r[0..2m)
  MulWordsRec(a + m, an - m, b + m, bn - m, r + 2 * m);    // z2: the rest
  for (size_t i = an + bn; i < full; ++i) r[i] = 0;
  std::vector<uint64_t> sa(m + 1);
  std::vector<uint64_t> sb(m + 1);
  size_t san = AddWords(a, m, a + m, an - m, sa.data());
  size_t sbn = AddWords(b, m, b + m, bn - m, sb.data());
  std::vector<uint64_t> mid(san + sbn);
  MulWordsRec(sa.data(), san, sb.data(), sbn, mid.data());
  // mid = (a0+a1)(b0+b1); subtract z0 and z2 (still untouched in r) to
  // leave z1, then fold into r at offset m.
  size_t z0n = TrimWords(r, 2 * m);
  size_t z2n = TrimWords(r + 2 * m, an + bn - 2 * m);
  SubFromWords(mid.data(), mid.size(), r, z0n);
  SubFromWords(mid.data(), mid.size(), r + 2 * m, z2n);
  size_t mn = TrimWords(mid.data(), mid.size());
  AddIntoWords(r + m, full - m, mid.data(), mn);
}

// ---------------------------------------------------------------------
// Knuth Algorithm D (TAOCP 4.3.1) over 64-bit words. Requires the
// divisor to span >= 2 words with a nonzero top word and the dividend
// to be >= the divisor. The divisor is normalized (shifted left until
// its top bit is set) so the two-word quotient estimate qhat is off by
// at most 2 and the rare overestimate is repaired by one add-back.
void KnuthDivModImpl(const Limbs& u_limbs, const Limbs& v_limbs, Limbs* q_out,
                     Limbs* r_out) {
  std::vector<uint64_t> u = LimbsToWords(u_limbs);
  std::vector<uint64_t> v = LimbsToWords(v_limbs);
  const size_t n = v.size();       // >= 2: divisor spans 3+ limbs
  const size_t m = u.size() - n;   // u >= v, so u.size() >= n
  const unsigned s =
      static_cast<unsigned>(__builtin_clzll(v[n - 1]));
  // Normalize: v <<= s, u <<= s with one extra word for the overflow.
  if (s != 0) {
    for (size_t i = n; i-- > 1;) {
      v[i] = (v[i] << s) | (v[i - 1] >> (64 - s));
    }
    v[0] <<= s;
  }
  u.push_back(0);
  if (s != 0) {
    for (size_t i = u.size(); i-- > 1;) {
      u[i] = (u[i] << s) | (u[i - 1] >> (64 - s));
    }
    u[0] <<= s;
  }
  trace::Count("bigint/divmod_normalizations");

  std::vector<uint64_t> q(m + 1, 0);
  constexpr unsigned __int128 kWordBase = static_cast<unsigned __int128>(1)
                                          << 64;
  for (size_t j = m + 1; j-- > 0;) {
    // Two-word quotient estimate against the normalized top divisor
    // word, then the classic correction loop against the second word.
    unsigned __int128 numerator =
        (static_cast<unsigned __int128>(u[j + n]) << 64) | u[j + n - 1];
    unsigned __int128 qhat = numerator / v[n - 1];
    unsigned __int128 rhat = numerator % v[n - 1];
    while (qhat >= kWordBase ||
           qhat * v[n - 2] >
               ((rhat << 64) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= kWordBase) break;
    }
    uint64_t qh = static_cast<uint64_t>(qhat);
    // Multiply-subtract u[j..j+n] -= qh * v, tracking the signed
    // borrow in __int128 (Hacker's Delight divmnu, widened to 64-bit
    // words).
    signed __int128 t;
    signed __int128 k = 0;
    for (size_t i = 0; i < n; ++i) {
      unsigned __int128 p = static_cast<unsigned __int128>(qh) * v[i];
      t = static_cast<signed __int128>(u[i + j]) - k -
          static_cast<signed __int128>(static_cast<uint64_t>(p));
      u[i + j] = static_cast<uint64_t>(t);
      k = static_cast<signed __int128>(static_cast<uint64_t>(p >> 64)) -
          (t >> 64);
    }
    t = static_cast<signed __int128>(u[j + n]) - k;
    u[j + n] = static_cast<uint64_t>(t);
    q[j] = qh;
    if (t < 0) {
      // qhat overestimated by one (probability ~2/2^64 per step, but
      // reachable — see the targeted add-back test): add v back.
      --q[j];
      unsigned __int128 carry = 0;
      for (size_t i = 0; i < n; ++i) {
        unsigned __int128 sum =
            static_cast<unsigned __int128>(u[i + j]) + v[i] + carry;
        u[i + j] = static_cast<uint64_t>(sum);
        carry = sum >> 64;
      }
      u[j + n] += static_cast<uint64_t>(carry);
    }
  }
  if (r_out != nullptr) {
    // Remainder = u[0..n) denormalized.
    if (s != 0) {
      for (size_t i = 0; i + 1 < n; ++i) {
        u[i] = (u[i] >> s) | (u[i + 1] << (64 - s));
      }
      u[n - 1] >>= s;
    }
    WordsToLimbs(u.data(), n, r_out);
  }
  if (q_out != nullptr) WordsToLimbs(q.data(), q.size(), q_out);
}

}  // namespace

BigInt::BigInt(int64_t value) {
  negative_ = value < 0;
  // Careful with INT64_MIN: negate in unsigned space.
  uint64_t magnitude =
      negative_ ? ~static_cast<uint64_t>(value) + 1 : static_cast<uint64_t>(value);
  SetMagnitude64(magnitude);
}

Result<BigInt> BigInt::FromString(const std::string& text) {
  size_t pos = 0;
  bool negative = false;
  if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) {
    negative = text[pos] == '-';
    ++pos;
  }
  if (pos >= text.size()) {
    return Status::InvalidArgument("empty integer literal: '" + text + "'");
  }
  // Accumulate nine digits at a time: one fused MulAddSmall carry pass
  // per chunk instead of one multiply + add per digit.
  static constexpr int64_t kPow10[10] = {
      1,      10,      100,      1000,      10000,
      100000, 1000000, 10000000, 100000000, 1000000000};
  BigInt result;
  int64_t chunk = 0;
  int chunk_len = 0;
  for (; pos < text.size(); ++pos) {
    char c = text[pos];
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("bad digit in integer literal: '" + text +
                                     "'");
    }
    chunk = chunk * 10 + (c - '0');
    if (++chunk_len == 9) {
      result.MulAddSmall(kPow10[9], chunk);
      chunk = 0;
      chunk_len = 0;
    }
  }
  if (chunk_len > 0) result.MulAddSmall(kPow10[chunk_len], chunk);
  result.negative_ = negative && !result.is_zero();
  return result;
}

BigInt BigInt::Pow2(uint64_t exponent) {
  BigInt result;
  result.limbs_.assign(exponent / 32 + 1, 0);
  result.limbs_.back() = uint32_t{1} << (exponent % 32);
  return result;
}

BigInt BigInt::Pow(const BigInt& base, uint64_t exponent) {
  BigInt result(1);
  BigInt acc = base;
  while (exponent > 0) {
    if (exponent & 1) result *= acc;
    exponent >>= 1;
    if (exponent > 0) acc *= acc;
  }
  return result;
}

bool BigInt::FitsInt64() const {
  if (limbs_.size() > 2) return false;
  uint64_t magnitude = Magnitude64();
  if (negative_) return magnitude <= (uint64_t{1} << 63);
  return magnitude < (uint64_t{1} << 63);
}

Result<int64_t> BigInt::TryToInt64() const {
  if (!FitsInt64()) {
    return Status::ResourceExhausted("BigInt value " + ToString() +
                                     " does not fit in int64");
  }
  uint64_t magnitude = Magnitude64();
  // Negate in the unsigned domain: -INT64_MIN overflows int64, but
  // 2^64 - magnitude converts to exactly the right two's-complement
  // value (including magnitude == 2^63).
  return negative_ ? static_cast<int64_t>(0 - magnitude)
                   : static_cast<int64_t>(magnitude);
}

double BigInt::ToDouble() const {
  double value = 0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    value = value * static_cast<double>(kLimbBase) + limbs_[i];
  }
  return negative_ ? -value : value;
}

std::string BigInt::ToString() const {
  if (is_zero()) return "0";
  // Repeatedly divide by 10^9 (single-limb divisor).
  constexpr uint32_t kChunk = 1000000000;
  Limbs work = limbs_;
  std::string digits;
  while (!work.empty()) {
    uint64_t remainder = 0;
    for (size_t i = work.size(); i-- > 0;) {
      uint64_t cur = (remainder << 32) | work[i];
      work[i] = static_cast<uint32_t>(cur / kChunk);
      remainder = cur % kChunk;
    }
    while (!work.empty() && work.back() == 0) work.pop_back();
    char buf[16];
    if (work.empty()) {
      std::snprintf(buf, sizeof(buf), "%u", static_cast<uint32_t>(remainder));
    } else {
      std::snprintf(buf, sizeof(buf), "%09u", static_cast<uint32_t>(remainder));
    }
    std::string chunk(buf);
    std::reverse(chunk.begin(), chunk.end());
    digits += chunk;
  }
  if (negative_) digits += '-';
  std::reverse(digits.begin(), digits.end());
  return digits;
}

size_t BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  uint32_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 32;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

size_t BigInt::TrailingZeroBits() const {
  if (limbs_.empty()) return 0;
  size_t i = 0;
  while (limbs_[i] == 0) ++i;  // some limb is nonzero (value != 0)
  return i * 32 +
         static_cast<size_t>(__builtin_ctz(limbs_[i]));
}

BigInt BigInt::operator-() const {
  BigInt result = *this;
  if (!result.is_zero()) result.negative_ = !result.negative_;
  return result;
}

BigInt BigInt::Abs() const {
  BigInt result = *this;
  result.negative_ = false;
  return result;
}

int BigInt::CompareMagnitude(const Limbs& a, const Limbs& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

Limbs BigInt::AddMagnitude(const Limbs& a, const Limbs& b) {
  const Limbs& longer = a.size() >= b.size() ? a : b;
  const Limbs& shorter = a.size() >= b.size() ? b : a;
  Limbs result;
  result.assign(longer.size(), 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < longer.size(); ++i) {
    uint64_t sum = carry + longer[i] + (i < shorter.size() ? shorter[i] : 0);
    result[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  if (carry != 0) result.push_back(static_cast<uint32_t>(carry));
  return result;
}

Limbs BigInt::SubMagnitude(const Limbs& a, const Limbs& b) {
  Limbs result;
  result.assign(a.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a[i]) - borrow -
                   (i < b.size() ? static_cast<int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += static_cast<int64_t>(kLimbBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    result[i] = static_cast<uint32_t>(diff);
  }
  while (!result.empty() && result.back() == 0) result.pop_back();
  return result;
}

namespace {

// a += b over raw limbs, growing a as needed. b must not alias a.
void AddMagnitudeInPlace(Limbs* a, const Limbs& b) {
  if (b.empty()) return;
  if (a->size() < b.size()) a->resize(b.size(), 0);
  uint64_t carry = 0;
  uint32_t* d = a->data();
  for (size_t i = 0; i < b.size(); ++i) {
    uint64_t sum = carry + d[i] + b[i];
    d[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  for (size_t i = b.size(); carry != 0 && i < a->size(); ++i) {
    uint64_t sum = carry + d[i];
    d[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  if (carry != 0) a->push_back(static_cast<uint32_t>(carry));
}

// a -= b over raw limbs; requires |a| >= |b| and no aliasing.
void SubMagnitudeInPlace(Limbs* a, const Limbs& b) {
  int64_t borrow = 0;
  uint32_t* d = a->data();
  for (size_t i = 0; i < b.size(); ++i) {
    int64_t diff = static_cast<int64_t>(d[i]) - borrow -
                   static_cast<int64_t>(b[i]);
    if (diff < 0) {
      diff += static_cast<int64_t>(kLimbBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    d[i] = static_cast<uint32_t>(diff);
  }
  for (size_t i = b.size(); borrow != 0; ++i) {
    // Terminates inside a by the |a| >= |b| precondition.
    if (d[i] == 0) {
      d[i] = static_cast<uint32_t>(kLimbBase - 1);
    } else {
      --d[i];
      borrow = 0;
    }
  }
  while (!a->empty() && a->back() == 0) a->pop_back();
}

// a = b - a over raw limbs; requires |b| >= |a| and no aliasing.
void RevSubMagnitudeInPlace(Limbs* a, const Limbs& b) {
  if (a->size() < b.size()) a->resize(b.size(), 0);
  int64_t borrow = 0;
  uint32_t* d = a->data();
  for (size_t i = 0; i < b.size(); ++i) {
    int64_t diff = static_cast<int64_t>(b[i]) - borrow -
                   static_cast<int64_t>(d[i]);
    if (diff < 0) {
      diff += static_cast<int64_t>(kLimbBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    d[i] = static_cast<uint32_t>(diff);
  }
  while (!a->empty() && a->back() == 0) a->pop_back();
}

// a = a * multiplier (64-bit) in place: one low-to-high carry pass.
void MulSmallInPlace(Limbs* a, uint64_t multiplier) {
  if (a->empty()) return;
  if (multiplier == 0) {
    a->clear();
    return;
  }
  uint64_t carry = 0;
  uint32_t* d = a->data();
  for (size_t i = 0; i < a->size(); ++i) {
    unsigned __int128 cur =
        static_cast<unsigned __int128>(d[i]) * multiplier + carry;
    d[i] = static_cast<uint32_t>(cur);
    carry = static_cast<uint64_t>(cur >> 32);
  }
  while (carry != 0) {
    a->push_back(static_cast<uint32_t>(carry));
    carry >>= 32;
  }
}

}  // namespace

Limbs BigInt::MulMagnitude(const Limbs& a, const Limbs& b) {
  Limbs result;
  if (a.empty() || b.empty()) return result;
  // Single-limb fast path: one carry-propagating pass instead of the
  // schoolbook double loop. (2^32-1)^2 + carry stays below 2^64.
  if (a.size() == 1 || b.size() == 1) {
    const Limbs& multi = a.size() == 1 ? b : a;
    const uint64_t single = (a.size() == 1 ? a : b)[0];
    result.reserve(multi.size() + 1);
    uint64_t carry = 0;
    for (size_t i = 0; i < multi.size(); ++i) {
      uint64_t cur = single * multi[i] + carry;
      result.push_back(static_cast<uint32_t>(cur));
      carry = cur >> 32;
    }
    if (carry != 0) result.push_back(static_cast<uint32_t>(carry));
    while (!result.empty() && result.back() == 0) result.pop_back();
    return result;
  }
  // Even-length operands on a little-endian target: the limb buffers
  // already are word vectors (see the Word comment above), so read them
  // and write the product in place — no conversion round trip, no
  // scratch product buffer.
  if constexpr (std::endian::native == std::endian::little) {
    if ((a.size() & 1) == 0 && (b.size() & 1) == 0) {
      const size_t an = a.size() / 2;
      const size_t bn = b.size() / 2;
      trace::Count(std::min(an, bn) >= kKaratsubaWords
                       ? "bigint/karatsuba_calls"
                       : "bigint/schoolbook_calls");
      result.resize_uninitialized(2 * (an + bn));
      const Word* wa = reinterpret_cast<const Word*>(a.data());
      const Word* wb = reinterpret_cast<const Word*>(b.data());
      Word* wr = reinterpret_cast<Word*>(result.data());
      if (std::min(an, bn) >= kKaratsubaWords) {
        MulWordsRec(wa, an, wb, bn, wr);
      } else if (an >= bn) {
        MulWordsSchoolbook(wa, an, wb, bn, wr);
      } else {
        MulWordsSchoolbook(wb, bn, wa, an, wr);
      }
      while (!result.empty() && result.back() == 0) result.pop_back();
      return result;
    }
  }
  // One thread_local scratch block (single TLS guard on the hot path)
  // reused across calls so steady-state multiplies do no heap work
  // beyond building the result limbs.
  struct MulScratch {
    std::vector<uint64_t> wa;
    std::vector<uint64_t> wb;
    std::vector<uint64_t> product;
  };
  static thread_local MulScratch scratch;
  std::vector<uint64_t>& wa = scratch.wa;
  std::vector<uint64_t>& wb = scratch.wb;
  std::vector<uint64_t>& product = scratch.product;
  LimbsToWordsInto(a, &wa);
  LimbsToWordsInto(b, &wb);
  product.resize(wa.size() + wb.size());  // fully overwritten below
  // The word views of normalized limb vectors are already trimmed (the
  // top word contains the nonzero top limb), so the below-threshold
  // case can skip MulWordsRec's trim/swap preamble entirely.
  if (std::min(wa.size(), wb.size()) >= kKaratsubaWords) {
    trace::Count("bigint/karatsuba_calls");
    MulWordsRec(wa.data(), wa.size(), wb.data(), wb.size(), product.data());
  } else {
    trace::Count("bigint/schoolbook_calls");
    if (wa.size() >= wb.size()) {
      MulWordsSchoolbook(wa.data(), wa.size(), wb.data(), wb.size(),
                         product.data());
    } else {
      MulWordsSchoolbook(wb.data(), wb.size(), wa.data(), wa.size(),
                         product.data());
    }
  }
  WordsToLimbs(product.data(), product.size(), &result);
  return result;
}

void BigInt::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

BigInt BigInt::operator+(const BigInt& other) const {
  BigInt result;
  // Fast path: both magnitudes fit in 64 bits.
  if (limbs_.size() <= 2 && other.limbs_.size() <= 2) {
    unsigned __int128 a = Magnitude64();
    unsigned __int128 b = other.Magnitude64();
    if (negative_ == other.negative_) {
      unsigned __int128 sum = a + b;
      if (sum >> 64) {
        result.limbs_.push_back(static_cast<uint32_t>(sum));
        result.limbs_.push_back(static_cast<uint32_t>(sum >> 32));
        result.limbs_.push_back(static_cast<uint32_t>(sum >> 64));
      } else {
        result.SetMagnitude64(static_cast<uint64_t>(sum));
      }
      result.negative_ = !result.limbs_.empty() && negative_;
    } else {
      uint64_t ua = Magnitude64();
      uint64_t ub = other.Magnitude64();
      if (ua == ub) return BigInt();
      if (ua > ub) {
        result.SetMagnitude64(ua - ub);
        result.negative_ = negative_;
      } else {
        result.SetMagnitude64(ub - ua);
        result.negative_ = other.negative_;
      }
    }
    return result;
  }
  if (negative_ == other.negative_) {
    result.limbs_ = AddMagnitude(limbs_, other.limbs_);
    result.negative_ = negative_;
  } else {
    int cmp = CompareMagnitude(limbs_, other.limbs_);
    if (cmp == 0) return BigInt();
    if (cmp > 0) {
      result.limbs_ = SubMagnitude(limbs_, other.limbs_);
      result.negative_ = negative_;
    } else {
      result.limbs_ = SubMagnitude(other.limbs_, limbs_);
      result.negative_ = other.negative_;
    }
  }
  result.Normalize();
  return result;
}

BigInt BigInt::operator-(const BigInt& other) const { return *this + (-other); }

BigInt BigInt::operator*(const BigInt& other) const {
  BigInt result;
  // Fast path: product fits in 128 bits.
  if (limbs_.size() <= 2 && other.limbs_.size() <= 2) {
    unsigned __int128 product =
        static_cast<unsigned __int128>(Magnitude64()) * other.Magnitude64();
    if (product == 0) return result;
    result.limbs_.push_back(static_cast<uint32_t>(product));
    if (product >> 32) {
      result.limbs_.push_back(static_cast<uint32_t>(product >> 32));
    }
    if (product >> 64) {
      result.limbs_.push_back(static_cast<uint32_t>(product >> 64));
    }
    if (product >> 96) {
      result.limbs_.push_back(static_cast<uint32_t>(product >> 96));
    }
    result.negative_ = negative_ != other.negative_;
    return result;
  }
  result.limbs_ = MulMagnitude(limbs_, other.limbs_);
  result.negative_ = !result.limbs_.empty() && (negative_ != other.negative_);
  return result;
}

BigInt& BigInt::AddSigned(const BigInt& other, bool other_negative) {
  if (is_zero() || negative_ == other_negative) {
    if (is_zero()) negative_ = other_negative;
    AddMagnitudeInPlace(&limbs_, other.limbs_);
  } else {
    int cmp = CompareMagnitude(limbs_, other.limbs_);
    if (cmp == 0) {
      limbs_.clear();
    } else if (cmp > 0) {
      SubMagnitudeInPlace(&limbs_, other.limbs_);
    } else {
      RevSubMagnitudeInPlace(&limbs_, other.limbs_);
      negative_ = other_negative;
    }
  }
  Normalize();
  return *this;
}

BigInt& BigInt::operator+=(const BigInt& other) {
  if (this == &other) return ShlBits(1);  // x + x = 2x, sign preserved
  return AddSigned(other, other.negative_);
}

BigInt& BigInt::operator-=(const BigInt& other) {
  if (this == &other) {
    limbs_.clear();
    negative_ = false;
    return *this;
  }
  return AddSigned(other, !other.negative_);
}

BigInt& BigInt::operator*=(const BigInt& other) {
  if (is_zero() || other.is_zero()) {
    limbs_.clear();
    negative_ = false;
    return *this;
  }
  const bool result_negative = negative_ != other.negative_;
  if (other.limbs_.size() == 1) {
    // In place: a single carry pass over this value's own storage
    // (reads the multiplier first, so x *= x on one limb is safe too).
    MulSmallInPlace(&limbs_, other.limbs_[0]);
  } else if (limbs_.size() == 1) {
    const uint64_t single = limbs_[0];
    limbs_ = other.limbs_;
    MulSmallInPlace(&limbs_, single);
  } else {
    limbs_ = MulMagnitude(limbs_, other.limbs_);
  }
  negative_ = result_negative && !limbs_.empty();
  return *this;
}

BigInt& BigInt::MulAddSmall(int64_t multiplier, int64_t addend) {
  if (!negative_ && multiplier >= 0 && addend >= 0) {
    const uint64_t m = static_cast<uint64_t>(multiplier);
    if (m == 0) {
      SetMagnitude64(static_cast<uint64_t>(addend));
      negative_ = false;
      return *this;
    }
    // One fused pass: carry is seeded with the addend, so the add
    // costs nothing beyond the multiply's own carry propagation.
    uint64_t carry = static_cast<uint64_t>(addend);
    uint32_t* d = limbs_.data();
    for (size_t i = 0; i < limbs_.size(); ++i) {
      unsigned __int128 cur =
          static_cast<unsigned __int128>(d[i]) * m + carry;
      d[i] = static_cast<uint32_t>(cur);
      carry = static_cast<uint64_t>(cur >> 32);
    }
    while (carry != 0) {
      limbs_.push_back(static_cast<uint32_t>(carry));
      carry >>= 32;
    }
    Normalize();
    return *this;
  }
  return *this = *this * BigInt(multiplier) + BigInt(addend);
}

BigInt& BigInt::SubMul(const BigInt& b, const BigInt& c) {
  // The product is materialized once (b or c may alias *this); the
  // subtraction then runs in place over this value's storage.
  BigInt product = b * c;
  return AddSigned(product, !product.negative_);
}

BigInt& BigInt::ShlBits(uint64_t bits) {
  if (is_zero() || bits == 0) return *this;
  const size_t limb_shift = static_cast<size_t>(bits / 32);
  const unsigned bit_shift = static_cast<unsigned>(bits % 32);
  const size_t old_size = limbs_.size();
  limbs_.resize(old_size + limb_shift + (bit_shift != 0 ? 1 : 0), 0);
  uint32_t* d = limbs_.data();
  for (size_t i = old_size; i-- > 0;) {
    // bit_shift < 32, so the limb shift below never hits the UB width.
    uint64_t shifted = uint64_t{d[i]} << bit_shift;
    if (bit_shift != 0) {
      d[i + limb_shift + 1] |= static_cast<uint32_t>(shifted >> 32);
    }
    d[i + limb_shift] = static_cast<uint32_t>(shifted);
  }
  for (size_t i = 0; i < limb_shift; ++i) d[i] = 0;
  Normalize();
  return *this;
}

BigInt& BigInt::ShrBits(uint64_t bits) {
  if (is_zero() || bits == 0) return *this;
  if (bits >= BitLength()) {
    limbs_.clear();
    negative_ = false;
    return *this;
  }
  const size_t limb_shift = static_cast<size_t>(bits / 32);
  const unsigned bit_shift = static_cast<unsigned>(bits % 32);
  const size_t old_size = limbs_.size();
  uint32_t* d = limbs_.data();
  for (size_t i = 0; i + limb_shift < old_size; ++i) {
    uint64_t word = d[i + limb_shift];
    if (bit_shift != 0) {
      word >>= bit_shift;
      if (i + limb_shift + 1 < old_size) {
        // 1 <= bit_shift <= 31 keeps both shift widths in range.
        word |= uint64_t{d[i + limb_shift + 1]} << (32 - bit_shift);
      }
    }
    d[i] = static_cast<uint32_t>(word);
  }
  limbs_.resize(old_size - limb_shift);
  Normalize();
  return *this;
}

Status BigInt::DivMod(const BigInt& divisor, BigInt* quotient,
                      BigInt* remainder) const {
  if (divisor.is_zero()) {
    return Status::InvalidArgument("BigInt::DivMod: division by zero");
  }
  // Fast path: both magnitudes fit in 64 bits.
  if (limbs_.size() <= 2 && divisor.limbs_.size() <= 2) {
    uint64_t a = Magnitude64();
    uint64_t b = divisor.Magnitude64();
    if (quotient != nullptr) {
      BigInt q;
      q.SetMagnitude64(a / b);
      *quotient = std::move(q);
    }
    if (remainder != nullptr) {
      BigInt r;
      r.SetMagnitude64(a % b);
      *remainder = std::move(r);
    }
    return Status::OK();
  }
  // Fast path: divisor fits a machine word (one or two limbs). The
  // running remainder stays below the divisor, so each step divides a
  // value below 2^96 by a 64-bit word — a single __int128 divide per
  // limb instead of long division over every dividend bit.
  if (divisor.limbs_.size() <= 2) {
    const uint64_t b = divisor.Magnitude64();
    Limbs q;
    q.assign(limbs_.size(), 0);
    unsigned __int128 rem = 0;
    for (size_t i = limbs_.size(); i-- > 0;) {
      unsigned __int128 cur = (rem << 32) | limbs_[i];
      q[i] = static_cast<uint32_t>(cur / b);  // < 2^32 since rem < b
      rem = cur % b;
    }
    if (quotient != nullptr) {
      quotient->limbs_ = std::move(q);
      quotient->negative_ = false;
      quotient->Normalize();
    }
    if (remainder != nullptr) {
      BigInt r;
      r.SetMagnitude64(static_cast<uint64_t>(rem));
      *remainder = std::move(r);
    }
    return Status::OK();
  }
  // Divisor spans 3+ limbs. Settle the trivial orderings first so
  // Algorithm D starts from |dividend| > |divisor|.
  const int cmp = CompareMagnitude(limbs_, divisor.limbs_);
  if (cmp < 0) {
    if (quotient != nullptr) *quotient = BigInt();
    if (remainder != nullptr) *remainder = Abs();
    return Status::OK();
  }
  if (cmp == 0) {
    if (quotient != nullptr) *quotient = BigInt(1);
    if (remainder != nullptr) *remainder = BigInt();
    return Status::OK();
  }
  Limbs q;
  Limbs r;
  KnuthDivModImpl(limbs_, divisor.limbs_, quotient != nullptr ? &q : nullptr,
                  remainder != nullptr ? &r : nullptr);
  if (quotient != nullptr) {
    quotient->limbs_ = std::move(q);
    quotient->negative_ = false;
    quotient->Normalize();
  }
  if (remainder != nullptr) {
    remainder->limbs_ = std::move(r);
    remainder->negative_ = false;
    remainder->Normalize();
  }
  return Status::OK();
}

// The operator forms keep value signatures; every internal caller
// guards against zero divisors (Rational normalization, simplex ratio
// tests, the Gcd loop), so the degenerate zero result below is
// unreachable from library code and merely keeps arbitrary callers
// crash-free.
BigInt BigInt::operator/(const BigInt& other) const {
  BigInt quotient;
  if (!DivMod(other, &quotient, nullptr).ok()) return BigInt();
  quotient.negative_ = !quotient.is_zero() && (negative_ != other.negative_);
  return quotient;
}

BigInt BigInt::operator%(const BigInt& other) const {
  BigInt remainder;
  if (!DivMod(other, nullptr, &remainder).ok()) return BigInt();
  remainder.negative_ = !remainder.is_zero() && negative_;
  return remainder;
}

BigInt BigInt::FloorDiv(const BigInt& other) const {
  BigInt quotient;
  BigInt remainder;
  if (!DivMod(other, &quotient, &remainder).ok()) return BigInt();
  bool exact = remainder.is_zero();
  bool negative_result = negative_ != other.negative_;
  quotient.negative_ = !quotient.is_zero() && negative_result;
  if (!exact && negative_result) quotient -= 1;
  return quotient;
}

BigInt BigInt::CeilDiv(const BigInt& other) const {
  BigInt quotient;
  BigInt remainder;
  if (!DivMod(other, &quotient, &remainder).ok()) return BigInt();
  bool exact = remainder.is_zero();
  bool negative_result = negative_ != other.negative_;
  quotient.negative_ = !quotient.is_zero() && negative_result;
  if (!exact && !negative_result) quotient += 1;
  return quotient;
}

BigInt BigInt::Gcd(const BigInt& a, const BigInt& b) {
  // Fast path: both fit in 64 bits.
  if (a.limbs_.size() <= 2 && b.limbs_.size() <= 2) {
    BigInt result;
    result.SetMagnitude64(NativeGcd(a.Magnitude64(), b.Magnitude64()));
    return result;
  }
  // Binary (Stein) GCD on magnitudes: shifts and in-place subtractions
  // only — no division in the loop, which is what made Euclid dominate
  // Rational::Normalize on promoted tiers. One initial Euclid step
  // equalizes wildly mismatched operand sizes (gcd(huge, small) would
  // otherwise subtract its way down); after that each iteration
  // removes at least one bit.
  BigInt x = a.Abs();
  BigInt y = b.Abs();
  if (x.is_zero()) return y;
  if (y.is_zero()) return x;
  if (x.limbs_.size() + 2 < y.limbs_.size() ||
      y.limbs_.size() + 2 < x.limbs_.size()) {
    BigInt& big = x.limbs_.size() > y.limbs_.size() ? x : y;
    BigInt& small = x.limbs_.size() > y.limbs_.size() ? y : x;
    BigInt remainder;
    (void)big.DivMod(small, nullptr, &remainder);
    big = std::move(remainder);
    if (big.is_zero()) return small;
  }
  const size_t x_twos = x.TrailingZeroBits();
  const size_t y_twos = y.TrailingZeroBits();
  const size_t common_twos = std::min(x_twos, y_twos);
  x.ShrBits(x_twos);
  y.ShrBits(y_twos);
  int64_t iterations = 0;
  // Invariant: x and y are odd and positive.
  while (true) {
    if (x.limbs_.size() <= 2 && y.limbs_.size() <= 2) {
      BigInt result;
      result.SetMagnitude64(NativeGcd(x.Magnitude64(), y.Magnitude64()));
      trace::Count("bigint/gcd_iterations", iterations);
      return result.ShlBits(common_twos);
    }
    int cmp = CompareMagnitude(x.limbs_, y.limbs_);
    if (cmp == 0) break;
    if (cmp < 0) std::swap(x, y);
    x -= y;                        // even and nonzero now
    x.ShrBits(x.TrailingZeroBits());
    ++iterations;
  }
  trace::Count("bigint/gcd_iterations", iterations);
  return x.ShlBits(common_twos);
}

int BigInt::Compare(const BigInt& other) const {
  if (negative_ != other.negative_) return negative_ ? -1 : 1;
  int magnitude_cmp = CompareMagnitude(limbs_, other.limbs_);
  return negative_ ? -magnitude_cmp : magnitude_cmp;
}

std::ostream& operator<<(std::ostream& os, const BigInt& value) {
  return os << value.ToString();
}

}  // namespace xmlverify
