// Arbitrary-precision signed integers.
//
// The exact rational simplex underlying the consistency checkers can
// produce coefficients far beyond 64 bits (tableau entries grow
// multiplicatively during pivoting, and Papadimitriou-style solution
// bounds are themselves exponential), so the solver is built on this
// sign-magnitude big integer. Magnitudes are little-endian vectors of
// 32-bit limbs. Values at or below two limbs take dedicated machine-
// word fast paths; above that the magnitude kernels are sub-quadratic
// (Karatsuba multiply, Knuth Algorithm-D divmod, binary Stein GCD)
// computed over transient 64-bit word views of the limb array. The
// original schoolbook multiply / binary long division / Euclid GCD
// are kept as named reference functions in base/bigint_reference.h,
// which only the BigInt tests and bench_bigint call (see
// docs/performance.md, "BigInt kernels").
#ifndef XMLVERIFY_BASE_BIGINT_H_
#define XMLVERIFY_BASE_BIGINT_H_

#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <vector>

#include "base/status.h"

namespace xmlverify {

namespace internal_bigint {

/// Minimal vector of 32-bit limbs with inline storage for values up
/// to 64 bits. The exact simplex creates and destroys enormous
/// numbers of small BigInts; avoiding heap traffic for the common
/// single/double-limb case is the dominant performance lever.
// Whether LimbVector recycles heap blocks through the thread-local
// one-slot cache below. Disabled under AddressSanitizer so every
// allocation stays visible to the tool (recycled blocks would mask
// use-after-free between arithmetic temporaries).
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kRecycleLimbBlocks = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
inline constexpr bool kRecycleLimbBlocks = false;
#else
inline constexpr bool kRecycleLimbBlocks = true;
#endif
#else
inline constexpr bool kRecycleLimbBlocks = true;
#endif

class LimbVector {
 public:
  LimbVector() = default;
  LimbVector(const LimbVector& other) { CopyFrom(other); }
  LimbVector(LimbVector&& other) noexcept { MoveFrom(&other); }
  LimbVector& operator=(const LimbVector& other) {
    if (this != &other) {
      Reset();
      CopyFrom(other);
    }
    return *this;
  }
  LimbVector& operator=(LimbVector&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(&other);
    }
    return *this;
  }
  ~LimbVector() { Reset(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint32_t* data() { return heap_ == nullptr ? inline_ : heap_; }
  const uint32_t* data() const { return heap_ == nullptr ? inline_ : heap_; }
  uint32_t& operator[](size_t i) { return data()[i]; }
  uint32_t operator[](size_t i) const { return data()[i]; }
  uint32_t& back() { return data()[size_ - 1]; }
  uint32_t back() const { return data()[size_ - 1]; }
  uint32_t* begin() { return data(); }
  uint32_t* end() { return data() + size_; }
  const uint32_t* begin() const { return data(); }
  const uint32_t* end() const { return data() + size_; }

  void push_back(uint32_t limb) {
    Reserve(size_ + 1);
    data()[size_++] = limb;
  }
  /// Pre-sizes the backing store so a known run of push_backs cannot
  /// reallocate mid-loop (used by the multiply kernels to place the
  /// whole product before the carry passes run).
  void reserve(size_t count) { Reserve(count); }
  void pop_back() { --size_; }
  void clear() { size_ = 0; }
  void assign(size_t count, uint32_t value) {
    Reserve(count);
    uint32_t* d = data();
    for (size_t i = 0; i < count; ++i) d[i] = value;
    size_ = count;
  }
  /// Like resize but leaves any grown tail uninitialized. Only for
  /// kernel staging buffers that overwrite the whole extent before
  /// reading it (the multiply product); never expose uninitialized
  /// limbs to callers.
  void resize_uninitialized(size_t count) {
    Reserve(count);
    size_ = count;
  }
  /// Grows (zero- or value-filling the new tail) or shrinks to
  /// `count` limbs. Existing limbs are preserved; used by the
  /// in-place shift and compound-assignment kernels.
  void resize(size_t count, uint32_t value = 0) {
    if (count <= size_) {
      size_ = count;
      return;
    }
    Reserve(count);
    uint32_t* d = data();
    for (size_t i = size_; i < count; ++i) d[i] = value;
    size_ = count;
  }

 private:
  static constexpr size_t kInline = 3;
  // Largest block the recycler will hold on to (limbs). Bigger blocks
  // are freed outright so one huge temporary cannot pin 100s of KB per
  // thread for the life of the thread.
  static constexpr size_t kMaxRecycledCapacity = 4096;

  // Thread-local one-slot block cache. Arithmetic churns short-lived
  // heap-backed temporaries in tight alloc-free-alloc patterns
  // (multiply results, simplex row updates); a single cached block
  // absorbs the allocator round trip on that pattern, which is worth
  // ~40ns per multiply at 32 limbs. The slot keeps the larger of the
  // cached and released block so it converges on the working-set size.
  struct BlockCache {
    uint32_t* block = nullptr;
    size_t capacity = 0;
    ~BlockCache() { delete[] block; }
  };
  static BlockCache& TlsBlockCache() {
    static thread_local BlockCache cache;
    return cache;
  }
  // Returns a block of at least *capacity limbs, updating *capacity to
  // the actual capacity handed out.
  static uint32_t* AcquireBlock(size_t* capacity) {
    if (kRecycleLimbBlocks) {
      BlockCache& cache = TlsBlockCache();
      if (cache.block != nullptr && cache.capacity >= *capacity) {
        uint32_t* block = cache.block;
        *capacity = cache.capacity;
        cache.block = nullptr;
        cache.capacity = 0;
        return block;
      }
    }
    return new uint32_t[*capacity];
  }
  static void ReleaseBlock(uint32_t* block, size_t capacity) {
    if (block == nullptr) return;
    if (kRecycleLimbBlocks && capacity <= kMaxRecycledCapacity) {
      BlockCache& cache = TlsBlockCache();
      if (cache.capacity < capacity) {
        std::swap(cache.block, block);
        std::swap(cache.capacity, capacity);
      }
    }
    delete[] block;
  }

  void Reserve(size_t count) {
    if (count <= capacity_) return;
    size_t new_capacity = capacity_ * 2 < count ? count : capacity_ * 2;
    uint32_t* fresh = AcquireBlock(&new_capacity);
    std::memcpy(fresh, data(), size_ * sizeof(uint32_t));
    if (heap_ != nullptr) ReleaseBlock(heap_, capacity_);
    heap_ = fresh;
    capacity_ = new_capacity;
  }
  void Reset() {
    if (heap_ != nullptr) ReleaseBlock(heap_, capacity_);
    heap_ = nullptr;
    size_ = 0;
    capacity_ = kInline;
  }
  void CopyFrom(const LimbVector& other) {
    Reserve(other.size_);
    std::memcpy(data(), other.data(), other.size_ * sizeof(uint32_t));
    size_ = other.size_;
  }
  void MoveFrom(LimbVector* other) {
    if (other->heap_ != nullptr) {
      heap_ = other->heap_;
      capacity_ = other->capacity_;
      size_ = other->size_;
      other->heap_ = nullptr;
      other->size_ = 0;
      other->capacity_ = kInline;
    } else {
      std::memcpy(inline_, other->inline_, other->size_ * sizeof(uint32_t));
      size_ = other->size_;
      other->size_ = 0;
    }
  }

  uint32_t inline_[kInline];
  uint32_t* heap_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = kInline;
};

}  // namespace internal_bigint

class BigInt {
 public:
  BigInt() = default;
  BigInt(int64_t value);  // NOLINT: implicit by design (literals)

  /// Parses an optionally-signed decimal string.
  static Result<BigInt> FromString(const std::string& text);

  /// 2^exponent.
  static BigInt Pow2(uint64_t exponent);

  /// base^exponent (exponent >= 0).
  static BigInt Pow(const BigInt& base, uint64_t exponent);

  bool is_zero() const { return limbs_.empty(); }
  bool is_negative() const { return negative_; }
  int sign() const { return is_zero() ? 0 : (negative_ ? -1 : 1); }

  /// True if the value fits in int64_t.
  bool FitsInt64() const;
  /// Value as int64_t, or kResourceExhausted when it does not fit. The
  /// quantities this converts are counts about to be materialized
  /// (witness nodes, value pools), so "does not fit" means "too large
  /// to build" — the same ceiling semantics as a memory budget, and
  /// never a crash, whatever the input.
  Result<int64_t> TryToInt64() const;

  /// Approximate double conversion (for reporting only).
  double ToDouble() const;

  std::string ToString() const;

  /// Number of significant bits of the magnitude (0 for zero).
  size_t BitLength() const;

  BigInt operator-() const;
  BigInt Abs() const;

  BigInt operator+(const BigInt& other) const;
  BigInt operator-(const BigInt& other) const;
  BigInt operator*(const BigInt& other) const;
  /// Truncated division (C++ semantics: quotient rounds toward zero).
  BigInt operator/(const BigInt& other) const;
  /// Remainder with the sign of the dividend (C++ semantics).
  BigInt operator%(const BigInt& other) const;

  // True in-place compound assignment: the carry/borrow passes run
  // over this value's existing limb storage instead of expanding to
  // `*this = *this + other` (which allocated a fresh magnitude per
  // call — measurable on the simplex pivot inner loop). All three are
  // safe under aliasing (x += x doubles, x -= x zeroes, x *= x
  // squares).
  BigInt& operator+=(const BigInt& other);
  BigInt& operator-=(const BigInt& other);
  BigInt& operator*=(const BigInt& other);

  /// Fused in-place update *this = *this * multiplier + addend. For
  /// nonnegative *this, multiplier and addend this is a single carry
  /// pass over the existing limbs (no temporary) — the scalar
  /// accumulation kernel behind FromString and digit-chunked loops;
  /// other sign combinations fall back to the operator forms.
  BigInt& MulAddSmall(int64_t multiplier, int64_t addend);

  /// Fused in-place update *this -= b * c (the simplex row-combination
  /// pattern). Safe when b or c aliases *this.
  BigInt& SubMul(const BigInt& b, const BigInt& c);

  /// Shifts the magnitude left by `bits` bit positions, in place
  /// (value *= 2^bits; the sign is preserved).
  BigInt& ShlBits(uint64_t bits);
  /// Shifts the magnitude right by `bits` bit positions, in place
  /// (truncating toward zero; shifting out every bit yields zero).
  BigInt& ShrBits(uint64_t bits);

  /// Number of consecutive zero low bits of the magnitude (0 for zero
  /// and for odd values).
  size_t TrailingZeroBits() const;

  /// Floor division: quotient rounds toward negative infinity.
  BigInt FloorDiv(const BigInt& other) const;
  /// Ceiling division: quotient rounds toward positive infinity.
  BigInt CeilDiv(const BigInt& other) const;

  /// Quotient and remainder of |*this| / |divisor| in one pass.
  /// Both results are nonnegative. A zero divisor yields
  /// kInvalidArgument and leaves the outputs untouched; the operators
  /// above share divisor checks with their callers and degrade to
  /// zero on that (internally unreachable) path instead of aborting.
  Status DivMod(const BigInt& divisor, BigInt* quotient,
                BigInt* remainder) const;

  /// Greatest common divisor of magnitudes (always nonnegative).
  static BigInt Gcd(const BigInt& a, const BigInt& b);

  /// Three-way comparison: -1, 0, or 1.
  int Compare(const BigInt& other) const;

  bool operator==(const BigInt& other) const { return Compare(other) == 0; }
  bool operator!=(const BigInt& other) const { return Compare(other) != 0; }
  bool operator<(const BigInt& other) const { return Compare(other) < 0; }
  bool operator<=(const BigInt& other) const { return Compare(other) <= 0; }
  bool operator>(const BigInt& other) const { return Compare(other) > 0; }
  bool operator>=(const BigInt& other) const { return Compare(other) >= 0; }

 private:
  // The reference kernels (base/bigint_reference.h) work on the limbs.
  friend class BigIntReference;
  using Limbs = internal_bigint::LimbVector;

  // Magnitude as uint64 when it fits (size <= 2).
  uint64_t Magnitude64() const {
    uint64_t magnitude = 0;
    if (!limbs_.empty()) magnitude = limbs_[0];
    if (limbs_.size() > 1) magnitude |= uint64_t{limbs_[1]} << 32;
    return magnitude;
  }
  void SetMagnitude64(uint64_t magnitude) {
    limbs_.clear();
    if (magnitude != 0) limbs_.push_back(static_cast<uint32_t>(magnitude));
    if (magnitude >> 32) {
      limbs_.push_back(static_cast<uint32_t>(magnitude >> 32));
    }
  }

  // Magnitude comparison: -1/0/1 for |a| vs |b|.
  static int CompareMagnitude(const Limbs& a, const Limbs& b);
  static Limbs AddMagnitude(const Limbs& a, const Limbs& b);
  // Requires |a| >= |b|.
  static Limbs SubMagnitude(const Limbs& a, const Limbs& b);
  static Limbs MulMagnitude(const Limbs& a, const Limbs& b);
  // Shared signed accumulate for += / -= (`other` taken with the given
  // effective sign); requires this != &other.
  BigInt& AddSigned(const BigInt& other, bool other_negative);
  void Normalize();

  // Little-endian 32-bit limbs; empty means zero.
  Limbs limbs_;
  bool negative_ = false;
};

std::ostream& operator<<(std::ostream& os, const BigInt& value);

}  // namespace xmlverify

#endif  // XMLVERIFY_BASE_BIGINT_H_
