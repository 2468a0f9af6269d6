#include "base/resource_guard.h"

#include <string>

#include "base/fault_injection.h"
#include "trace/trace.h"

namespace xmlverify {

namespace {

std::atomic<int> g_max_parse_depth{kDefaultMaxParseDepth};

}  // namespace

int MaxParseDepth() {
  return g_max_parse_depth.load(std::memory_order_relaxed);
}

void SetMaxParseDepth(int depth) {
  g_max_parse_depth.store(depth <= 0 ? kDefaultMaxParseDepth : depth,
                          std::memory_order_relaxed);
}

Status ResourceBudget::ChargeMemory(int64_t bytes, const char* site) const {
  if (bytes < 0) bytes = 0;
  if (FaultInjector::ShouldFail("alloc")) {
    return Status::ResourceExhausted(std::string("injected fault at alloc (") +
                                     site + ")");
  }
  int64_t used =
      accounting_->used.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (memory_limit_bytes_ > 0 && used > memory_limit_bytes_) {
    accounting_->used.fetch_sub(bytes, std::memory_order_relaxed);
    trace::Count("resource/memory_exhausted");
    return Status::ResourceExhausted(
        std::string("memory budget exhausted at ") + site + ": " +
        std::to_string(used) + " bytes tracked, limit " +
        std::to_string(memory_limit_bytes_));
  }
  // Lock-free high-water mark; racing writers settle on the maximum.
  int64_t peak = accounting_->peak.load(std::memory_order_relaxed);
  while (used > peak &&
         !accounting_->peak.compare_exchange_weak(peak, used,
                                                  std::memory_order_relaxed)) {
  }
  return Status::OK();
}

void ResourceBudget::ReleaseMemory(int64_t bytes) const {
  if (bytes <= 0) return;
  int64_t used =
      accounting_->used.fetch_sub(bytes, std::memory_order_relaxed) - bytes;
  // A release without a matching charge (a bug, not input-dependent)
  // must not wedge the budget permanently negative.
  if (used < 0) accounting_->used.store(0, std::memory_order_relaxed);
}

Status ResourceBudget::CheckDepth(int depth, const char* site) const {
  if (max_depth_ <= 0 || depth <= max_depth_) return Status::OK();
  trace::Count("resource/depth_exhausted");
  return Status::ResourceExhausted(
      std::string("recursion depth ") + std::to_string(depth) + " exceeds " +
      std::to_string(max_depth_) + " at " + site);
}

}  // namespace xmlverify
