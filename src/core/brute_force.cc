#include "core/brute_force.h"

#include <deque>
#include <map>

#include "base/string_util.h"
#include "checker/document_checker.h"
#include "trace/trace.h"
#include "xml/validator.h"

namespace xmlverify {

namespace {

class BoundedSearcher {
 public:
  BoundedSearcher(const Dtd& dtd,
                  std::function<bool(const XmlTree&)> accept,
                  const BoundedSearchOptions& options)
      : dtd_(dtd),
        accept_(std::move(accept)),
        options_(options),
        deadline_check_(options.deadline) {}

  ~BoundedSearcher() { options_.budget.ReleaseMemory(charged_bytes_); }

  Result<ConsistencyVerdict> Run() {
    TraceSpan search_span("bounded/search");
    trace::Max("bounded/max_nodes", options_.max_nodes);
    XmlTree seed(dtd_.root());
    std::deque<NodeId> pending = {seed.root()};
    Status status = Expand(seed, pending, options_.max_nodes - 1);
    if (!status.ok()) return status;
    trace::Count("bounded/candidates", candidates_);
    ConsistencyVerdict verdict;
    verdict.stats.subproblems = candidates_;
    if (found_.has_value()) {
      verdict.outcome = ConsistencyOutcome::kConsistent;
      verdict.witness = std::move(found_);
      return verdict;
    }
    if (deadline_hit_) {
      trace::Count("bounded/deadline_exceeded");
      verdict.outcome = ConsistencyOutcome::kDeadlineExceeded;
      verdict.note = "deadline exceeded";
      return verdict;
    }
    if (resource_hit_) {
      trace::Count("bounded/resource_exhausted");
      verdict.outcome = ConsistencyOutcome::kResourceExhausted;
      verdict.note = resource_note_;
      return verdict;
    }
    verdict.outcome = ConsistencyOutcome::kUnknown;
    verdict.note = budget_hit_
                       ? "candidate budget exhausted"
                       : "no satisfying document with at most " +
                             std::to_string(options_.max_nodes) +
                             " elements and " +
                             std::to_string(options_.num_values) +
                             " attribute values";
    return verdict;
  }

 private:
  // Child-label words of length <= max_length accepted by the content
  // DFA of `type` (cached).
  const std::vector<std::vector<int>>& Words(int type, int max_length) {
    auto key = std::make_pair(type, max_length);
    auto it = words_cache_.find(key);
    if (it != words_cache_.end()) return it->second;
    const Dfa& dfa = dtd_.ContentDfa(type);
    std::vector<std::vector<int>> words;
    std::vector<int> word;
    // Depth-first enumeration over DFA states.
    EnumerateWords(dfa, dfa.start(), max_length, &word, &words);
    // The cache persists for the searcher's lifetime; charge it
    // against the memory budget (released in the destructor).
    int64_t bytes = 0;
    for (const std::vector<int>& w : words) {
      bytes += 48 + static_cast<int64_t>(w.size()) * 4;
    }
    Status status = options_.budget.ChargeMemory(bytes, "bounded/words");
    if (!status.ok()) {
      resource_hit_ = true;
      resource_note_ = status.message();
    } else {
      charged_bytes_ += bytes;
    }
    return words_cache_.emplace(key, std::move(words)).first->second;
  }

  void EnumerateWords(const Dfa& dfa, int state, int remaining,
                      std::vector<int>* word,
                      std::vector<std::vector<int>>* words) {
    if (dfa.IsAccepting(state)) words->push_back(*word);
    if (remaining == 0) return;
    for (int symbol = 0; symbol < dfa.alphabet_size(); ++symbol) {
      int next = dfa.Next(state, symbol);
      word->push_back(symbol);
      EnumerateWords(dfa, next, remaining - 1, word, words);
      word->pop_back();
    }
  }

  // Expands the first pending element with every admissible child
  // word, then recurses; complete structures go to TryValues.
  Status Expand(const XmlTree& tree, std::deque<NodeId> pending, int budget) {
    if (found_.has_value() || budget_hit_ || resource_hit_) {
      return Status::OK();
    }
    if (deadline_check_.Expired()) {
      deadline_hit_ = true;
      return Status::OK();
    }
    if (pending.empty()) return TryValues(tree);
    NodeId node = pending.front();
    pending.pop_front();
    int type = tree.TypeOf(node);
    const std::vector<std::vector<int>>& words = Words(type, budget);
    if (resource_hit_) return Status::OK();
    for (const std::vector<int>& word : words) {
      int elements = 0;
      for (int symbol : word) {
        if (symbol != dtd_.pcdata_symbol()) ++elements;
      }
      if (elements > budget) continue;
      // Charge the copied tree for the duration of the recursive call.
      ScopedMemoryCharge tree_charge(
          options_.budget,
          static_cast<int64_t>(tree.AllElements().size() + word.size()) * 128,
          "bounded/tree");
      if (!tree_charge.status().ok()) {
        resource_hit_ = true;
        resource_note_ = tree_charge.status().message();
        return Status::OK();
      }
      XmlTree next = tree;
      std::deque<NodeId> next_pending = pending;
      for (int symbol : word) {
        if (symbol == dtd_.pcdata_symbol()) {
          next.AddText(node, "text");
        } else {
          next_pending.push_back(next.AddElement(node, symbol));
        }
      }
      RETURN_IF_ERROR(Expand(next, std::move(next_pending),
                             budget - elements));
      if (found_.has_value() || budget_hit_ || deadline_hit_ ||
          resource_hit_) {
        return Status::OK();
      }
    }
    return Status::OK();
  }

  // Odometer over all attribute-value assignments.
  Status TryValues(const XmlTree& structure) {
    if (trace::Enabled()) {
      trace::Max("bounded/max_tree_nodes",
                 static_cast<int64_t>(structure.AllElements().size()));
    }
    std::vector<std::pair<NodeId, std::string>> slots;
    for (NodeId node : structure.AllElements()) {
      for (const std::string& attribute :
           dtd_.Attributes(structure.TypeOf(node))) {
        slots.emplace_back(node, attribute);
      }
    }
    std::vector<int> odometer(slots.size(), 0);
    while (true) {
      if (++candidates_ > options_.max_candidates) {
        budget_hit_ = true;
        return Status::OK();
      }
      if (deadline_check_.Expired()) {
        deadline_hit_ = true;
        return Status::OK();
      }
      XmlTree candidate = structure;
      for (size_t i = 0; i < slots.size(); ++i) {
        candidate.SetAttribute(slots[i].first, slots[i].second,
                               StrCat("p", std::to_string(odometer[i] + 1)));
      }
      if (Conforms(candidate, dtd_) && accept_(candidate)) {
        found_ = std::move(candidate);
        return Status::OK();
      }
      // Advance the odometer.
      size_t position = 0;
      while (position < slots.size()) {
        if (++odometer[position] < options_.num_values) break;
        odometer[position] = 0;
        ++position;
      }
      if (position == slots.size()) return Status::OK();
    }
  }

  const Dtd& dtd_;
  std::function<bool(const XmlTree&)> accept_;
  const BoundedSearchOptions& options_;
  std::map<std::pair<int, int>, std::vector<std::vector<int>>> words_cache_;
  std::optional<XmlTree> found_;
  int64_t candidates_ = 0;
  bool budget_hit_ = false;
  PeriodicDeadlineCheck deadline_check_;
  bool deadline_hit_ = false;
  bool resource_hit_ = false;
  std::string resource_note_;
  int64_t charged_bytes_ = 0;
};

}  // namespace

Result<ConsistencyVerdict> BoundedSearchConsistency(
    const Dtd& dtd, const ConstraintSet& constraints,
    const BoundedSearchOptions& options) {
  RETURN_IF_ERROR(constraints.Validate(dtd));
  BoundedSearcher searcher(
      dtd,
      [&dtd, &constraints](const XmlTree& tree) {
        return CheckConstraints(tree, dtd, constraints).ok();
      },
      options);
  return searcher.Run();
}

Result<ConsistencyVerdict> BoundedSearchDocument(
    const Dtd& dtd, const std::function<bool(const XmlTree&)>& accept,
    const BoundedSearchOptions& options) {
  BoundedSearcher searcher(dtd, accept, options);
  return searcher.Run();
}

}  // namespace xmlverify
