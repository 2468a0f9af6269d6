// Microbenchmark gate for the sub-quadratic BigInt kernels
// (base/bigint.cc): multiply, divmod, and gcd families across limb
// sizes, each measured twice on identical operands — once with the
// production kernels (64-bit word schoolbook + Karatsuba, Knuth
// Algorithm D, Stein GCD) and once with the schoolbook reference
// functions of base/bigint_reference.h. Results are asserted equal
// before timing counts, so the ratio can never come from a wrong
// answer.
//
// Prints a per-family table and writes BENCH_bigint.json (--out=PATH
// to override). Exits non-zero when a gate fails: >= 3x on the
// 32-limb multiply and >= 2x on the 32-limb divmod (see
// docs/performance.md, "BigInt kernels").
//
// Standalone driver, not a google-benchmark binary: the quantity of
// interest is a paired fast-vs-reference ratio on identical operands,
// plus a hard gate, which does not fit the independent-loop model.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "base/bigint.h"
#include "base/bigint_reference.h"

namespace xmlverify {
namespace {

struct BenchConfig {
  std::string out = "BENCH_bigint.json";
  // Repetition budget scale; families pick reps = max(1, budget / cost)
  // with a per-family cost model so slow reference kernels (binary
  // long division, Euclid on big operands) stay bounded.
  int budget = 400000;
};

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

// Deterministic dense magnitude of exactly `limbs` 32-bit limbs.
BigInt RandomMagnitude(SplitMix64* rng, size_t limbs) {
  BigInt value;
  for (size_t i = 0; i < limbs; ++i) {
    uint32_t chunk = static_cast<uint32_t>(rng->Next());
    if (i + 1 == limbs && chunk == 0) chunk = 1;
    value.ShlBits(32);
    value += BigInt(static_cast<int64_t>(chunk));
  }
  return value;
}

struct Family {
  std::string name;
  size_t limbs = 0;       // headline operand size
  double fast_us = 0;     // mean per operation
  double ref_us = 0;
  double speedup = 0;
  double gate = 0;        // 0 = informational only
};

// One operation on fixed operands, computed by both kernel suites.
struct PairedOp {
  std::function<BigInt()> fast;
  std::function<BigInt()> reference;
};

// Times `op`: splits `reps` into a few timed blocks and returns the
// minimum per-run mean. The workload is deterministic, so the minimum
// is the noise-robust estimator on a shared machine — interference
// can only inflate a block, never deflate it.
double TimeOp(const std::function<void()>& op, int reps) {
  op();  // warm-up (first-touch allocations)
  constexpr int kBlocks = 5;
  const int per_block = std::max(1, reps / kBlocks);
  double best = 0;
  for (int block = 0; block < kBlocks; ++block) {
    int64_t start = NowMicros();
    for (int i = 0; i < per_block; ++i) op();
    double mean = static_cast<double>(NowMicros() - start) / per_block;
    if (block == 0 || mean < best) best = mean;
  }
  return best;
}

// Measures one family: checks fast == reference on every operand pair,
// then times both suites on the identical workload.
Family MeasureFamily(const std::string& name, size_t limbs, double gate,
                     const std::vector<PairedOp>& ops, int fast_reps,
                     int ref_reps) {
  Family family;
  family.name = name;
  family.limbs = limbs;
  family.gate = gate;
  // Correctness pairing first: the ratio is meaningless if the suites
  // disagree, so disagreement is fatal.
  for (const PairedOp& op : ops) {
    if (op.fast() != op.reference()) {
      std::fprintf(stderr, "%s: fast and reference kernels disagree\n",
                   name.c_str());
      std::exit(1);
    }
  }

  auto run_fast = [&ops] {
    for (const PairedOp& op : ops) op.fast();
  };
  auto run_reference = [&ops] {
    for (const PairedOp& op : ops) op.reference();
  };
  family.fast_us = TimeOp(run_fast, fast_reps) / ops.size();
  family.ref_us = TimeOp(run_reference, ref_reps) / ops.size();
  family.speedup = family.fast_us > 0 ? family.ref_us / family.fast_us
                                      : family.ref_us / 0.001;
  return family;
}

int Run(const BenchConfig& config) {
  SplitMix64 rng(0xb16b00b5cafef00dULL);
  std::vector<Family> families;

  // --- multiply: n-limb x n-limb ------------------------------------
  for (size_t limbs : {8u, 16u, 32u, 64u, 128u, 256u}) {
    std::vector<PairedOp> ops;
    for (int pair = 0; pair < 4; ++pair) {
      BigInt a = RandomMagnitude(&rng, limbs);
      BigInt b = RandomMagnitude(&rng, limbs);
      ops.push_back({[a, b] { return a * b; },
                     [a, b] { return BigIntReference::Multiply(a, b); }});
    }
    // Reference cost ~ limbs^2 32-bit mults; keep the total bounded.
    int reps = std::max(1, config.budget / static_cast<int>(limbs * limbs));
    families.push_back(MeasureFamily("mul-" + std::to_string(limbs),
                                     limbs, limbs == 32 ? 3.0 : 0.0, ops,
                                     reps, reps));
  }

  // --- divmod: 2n-limb dividend / n-limb divisor --------------------
  for (size_t limbs : {16u, 32u, 64u, 128u}) {
    std::vector<PairedOp> ops;
    for (int pair = 0; pair < 4; ++pair) {
      BigInt a = RandomMagnitude(&rng, limbs);
      BigInt b = RandomMagnitude(&rng, limbs / 2);
      // Fold quotient and remainder into one checkable value.
      ops.push_back({[a, b] {
                       BigInt q;
                       BigInt r;
                       if (!a.DivMod(b, &q, &r).ok()) return BigInt(0);
                       return q.ShlBits(1) += r;
                     },
                     [a, b] {
                       BigInt q;
                       BigInt r;
                       if (!BigIntReference::DivMod(a, b, &q, &r).ok()) {
                         return BigInt(0);
                       }
                       return q.ShlBits(1) += r;
                     }});
    }
    // The reference is binary long division: ~bits iterations over
    // ~limbs-sized magnitudes.
    int ref_cost = static_cast<int>(limbs * 32 * limbs) / 16;
    int reps = std::max(1, config.budget / std::max(1, ref_cost));
    families.push_back(MeasureFamily("divmod-" + std::to_string(limbs),
                                     limbs, limbs == 32 ? 2.0 : 0.0, ops,
                                     reps * 8, reps));
  }

  // --- gcd: n-limb operands sharing an n/2-limb factor --------------
  for (size_t limbs : {8u, 16u, 32u}) {
    std::vector<PairedOp> ops;
    for (int pair = 0; pair < 2; ++pair) {
      BigInt g = RandomMagnitude(&rng, limbs / 2);
      BigInt a = g * RandomMagnitude(&rng, limbs - limbs / 2);
      BigInt b = g * RandomMagnitude(&rng, limbs - limbs / 2);
      ops.push_back({[a, b] { return BigInt::Gcd(a, b); },
                     [a, b] { return BigIntReference::Gcd(a, b); }});
    }
    // Euclid-via-long-division reference: ~bits iterations, each a
    // full binary division — the steepest reference cost here.
    int ref_cost = static_cast<int>(limbs * 32 * limbs * limbs) / 8;
    int reps = std::max(1, config.budget / std::max(1, ref_cost));
    families.push_back(MeasureFamily("gcd-" + std::to_string(limbs),
                                     limbs, 0.0, ops, reps * 8, reps));
  }

  bool gates_met = true;
  std::printf("bigint kernels: fast (Karatsuba/Knuth-D/Stein) vs "
              "schoolbook reference\n");
  for (const Family& family : families) {
    bool gated = family.gate > 0;
    bool ok = !gated || family.speedup >= family.gate;
    if (!ok) gates_met = false;
    std::printf("  %-12s %4zu limbs  fast %10.2fus  ref %12.2fus  %8.1fx%s\n",
                family.name.c_str(), family.limbs, family.fast_us,
                family.ref_us, family.speedup,
                gated ? (ok ? "  [gate ok]" : "  [GATE FAILED]") : "");
  }

  std::ofstream out(config.out);
  out << "{\n"
      << "  \"bench\": \"bigint\",\n"
      << "  \"families\": [\n";
  for (size_t i = 0; i < families.size(); ++i) {
    const Family& family = families[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    {\"name\": \"%s\", \"limbs\": %zu, "
                  "\"fast_us\": %.3f, \"ref_us\": %.3f, "
                  "\"speedup\": %.1f, \"gate\": %.1f}%s\n",
                  family.name.c_str(), family.limbs, family.fast_us,
                  family.ref_us, family.speedup, family.gate,
                  i + 1 < families.size() ? "," : "");
    out << line;
  }
  out << "  ],\n"
      << "  \"gates\": {\"mul_32_limbs\": 3.0, \"divmod_32_limbs\": 2.0},\n"
      << "  \"gates_met\": " << (gates_met ? "true" : "false") << "\n"
      << "}\n";
  std::printf("  wrote %s\n", config.out.c_str());
  return gates_met ? 0 : 2;
}

}  // namespace
}  // namespace xmlverify

int main(int argc, char** argv) {
  xmlverify::BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value("--out=")) {
      config.out = v;
    } else if (const char* v = value("--budget=")) {
      config.budget = std::atoi(v);
    } else {
      std::fprintf(stderr, "usage: bench_bigint [--budget=N] [--out=PATH]\n");
      return 1;
    }
  }
  return xmlverify::Run(config);
}
