// Process-wide resource governance for the decision procedures.
//
// Every worst-case-exponential procedure in the pipeline (the ILP
// solver, the exact simplex, the bounded enumerations, the scope
// recursion) polls the wall-clock Deadline of its own options struct.
// A ResourceBudget adds the two other axes:
//
//   * memory       — a tracked-allocation ceiling: procedures charge
//     their dominant allocations (search nodes, tableaux, candidate
//     trees) against the budget and release them when freed;
//   * recursion    — a depth ceiling for recursive descents (parser
//     nesting, hierarchical scope towers).
//
// Exhaustion surfaces as Status kResourceExhausted and is never
// interpreted as a SAT/UNSAT verdict. Copies of a budget share one
// accounting block, so charges made by a solver deep in the call tree
// are visible to the caller holding another copy. That makes a budget
// belong to one check: stamp a fresh one per check
// (OptionsForOneCheck in core/consistency.h) rather than copying one
// across independent checks, which would then charge each other.
#ifndef XMLVERIFY_BASE_RESOURCE_GUARD_H_
#define XMLVERIFY_BASE_RESOURCE_GUARD_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "base/status.h"

namespace xmlverify {

/// Default nesting ceiling for the recursive-descent parsers (regex
/// groups, XML element nesting, and everything that parses through
/// them). Deep enough for any sane specification, shallow enough that
/// ~4 stack frames per level cannot overflow a default thread stack.
inline constexpr int kDefaultMaxParseDepth = 1000;

/// Current parser nesting ceiling (kDefaultMaxParseDepth unless
/// overridden). Read by the parsers on every nesting step.
int MaxParseDepth();

/// Overrides the parser nesting ceiling process-wide (the CLI's
/// `--max-depth=N`). Non-positive values restore the default. Raising
/// it far beyond the default risks stack overflow on adversarial
/// input; the caller accepts that trade.
void SetMaxParseDepth(int depth);

class ResourceBudget {
 public:
  /// Unlimited on every axis (but still tracks memory accounting, so
  /// peak usage can be observed even without a ceiling).
  ResourceBudget() : accounting_(std::make_shared<Accounting>()) {}

  static ResourceBudget Unlimited() { return ResourceBudget(); }

  /// Memory ceiling in bytes; 0 means unlimited.
  int64_t memory_limit_bytes() const { return memory_limit_bytes_; }
  void set_memory_limit_bytes(int64_t bytes) {
    memory_limit_bytes_ = bytes < 0 ? 0 : bytes;
  }

  /// Recursion-depth ceiling; 0 means unlimited.
  int max_depth() const { return max_depth_; }
  void set_max_depth(int depth) { max_depth_ = depth < 0 ? 0 : depth; }

  /// Records `bytes` of tracked allocation attributed to `site`.
  /// Fails with kResourceExhausted when the ceiling would be crossed
  /// (the charge is then not recorded) or when the fault injector has
  /// an armed `alloc` point. Sites are short static strings such as
  /// "solver/node" — they name the charge in error messages and in
  /// the resource/* counters.
  Status ChargeMemory(int64_t bytes, const char* site) const;

  /// Returns a previous charge. Never fails; clamped at zero.
  void ReleaseMemory(int64_t bytes) const;

  int64_t memory_used() const {
    return accounting_->used.load(std::memory_order_relaxed);
  }
  /// High-water mark of tracked usage across all copies that share
  /// this budget's accounting block.
  int64_t memory_peak() const {
    return accounting_->peak.load(std::memory_order_relaxed);
  }

  /// kResourceExhausted when `depth` exceeds the depth ceiling.
  Status CheckDepth(int depth, const char* site) const;

 private:
  struct Accounting {
    std::atomic<int64_t> used{0};
    std::atomic<int64_t> peak{0};
  };

  int64_t memory_limit_bytes_ = 0;
  int max_depth_ = 0;
  // Shared across copies: the solver charging against its options'
  // budget is visible to the checker that stamped the budget in.
  std::shared_ptr<Accounting> accounting_;
};

/// RAII form of ChargeMemory/ReleaseMemory. Check `status()` right
/// after construction: on failure nothing was charged and nothing
/// will be released.
class ScopedMemoryCharge {
 public:
  ScopedMemoryCharge(const ResourceBudget& budget, int64_t bytes,
                     const char* site)
      : budget_(budget), bytes_(bytes),
        status_(budget_.ChargeMemory(bytes, site)) {}
  ~ScopedMemoryCharge() {
    if (status_.ok()) budget_.ReleaseMemory(bytes_);
  }
  ScopedMemoryCharge(const ScopedMemoryCharge&) = delete;
  ScopedMemoryCharge& operator=(const ScopedMemoryCharge&) = delete;

  const Status& status() const { return status_; }

 private:
  ResourceBudget budget_;
  int64_t bytes_;
  Status status_;
};

}  // namespace xmlverify

#endif  // XMLVERIFY_BASE_RESOURCE_GUARD_H_
