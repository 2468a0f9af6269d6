#include "reductions/subset_sum.h"

#include <set>

#include "base/string_util.h"

namespace xmlverify {

bool SubsetSumInstance::HasSolution() const {
  std::set<int64_t> reachable = {0};
  for (int64_t item : items) {
    std::set<int64_t> next = reachable;
    for (int64_t sum : reachable) {
      if (sum + item <= target) next.insert(sum + item);
    }
    reachable = std::move(next);
  }
  return reachable.count(target) > 0;
}

namespace {

// Highest set bit position of v (v >= 1).
int HighestBit(int64_t v) {
  int bit = 0;
  while (v >> (bit + 1)) ++bit;
  return bit;
}

}  // namespace

Result<Specification> SubsetSumToSpec(const SubsetSumInstance& instance) {
  if (instance.target <= 0) {
    return Status::InvalidArgument("target must be positive");
  }
  for (int64_t item : instance.items) {
    if (item <= 0) return Status::InvalidArgument("items must be positive");
  }

  auto x_chain = [](int i) { return StrCat("X", std::to_string(i)); };
  auto y_chain = [](int i) { return StrCat("Y", std::to_string(i)); };
  auto v_item = [](size_t j) { return StrCat("V", std::to_string(j + 1)); };

  int max_x_bit = HighestBit(instance.target);
  int max_y_bit = 0;
  for (int64_t item : instance.items) {
    max_y_bit = std::max(max_y_bit, HighestBit(item));
  }

  std::vector<std::string> names = {"r", "V", "tau", "tauP"};
  for (int i = 0; i <= max_x_bit; ++i) names.push_back(x_chain(i));
  if (!instance.items.empty()) {
    for (int i = 0; i <= max_y_bit; ++i) names.push_back(y_chain(i));
  }
  for (size_t j = 0; j < instance.items.size(); ++j) {
    names.push_back(v_item(j));
  }

  Dtd::Builder builder(names, "r");
  // P(r) = V, (V_1|%), ..., (V_n|%).
  std::string root_content = "V";
  for (size_t j = 0; j < instance.items.size(); ++j) {
    root_content += ",(" + v_item(j) + "|%)";
  }
  builder.SetContent("r", root_content);

  // Doubling chains: X_0 -> tau, X_i -> X_{i-1}, X_{i-1}.
  builder.SetContent(x_chain(0), "tau");
  for (int i = 1; i <= max_x_bit; ++i) {
    builder.SetContent(x_chain(i), x_chain(i - 1) + "," + x_chain(i - 1));
  }
  if (!instance.items.empty()) {
    builder.SetContent(y_chain(0), "tauP");
    for (int i = 1; i <= max_y_bit; ++i) {
      builder.SetContent(y_chain(i), y_chain(i - 1) + "," + y_chain(i - 1));
    }
  }

  // V spells out the binary expansion of the target; V_j of item j.
  auto bits_content = [](int64_t value, auto chain) {
    std::string content;
    for (int bit = 0; value >> bit; ++bit) {
      if ((value >> bit) & 1) {
        if (!content.empty()) content += ",";
        content += chain(bit);
      }
    }
    return content;
  };
  builder.SetContent("V", bits_content(instance.target, x_chain));
  for (size_t j = 0; j < instance.items.size(); ++j) {
    builder.SetContent(v_item(j), bits_content(instance.items[j], y_chain));
  }

  builder.AddAttribute("tau", "l");
  builder.AddAttribute("tauP", "l");

  Specification spec;
  ASSIGN_OR_RETURN(spec.dtd, builder.Build());
  ASSIGN_OR_RETURN(int tau, spec.dtd.TypeId("tau"));
  ASSIGN_OR_RETURN(int tau_p, spec.dtd.TypeId("tauP"));
  // The two foreign keys: tau.l <= tauP.l and tauP.l <= tau.l.
  spec.constraints.AddForeignKey(AbsoluteInclusion{tau, {"l"}, tau_p, {"l"}});
  spec.constraints.AddForeignKey(AbsoluteInclusion{tau_p, {"l"}, tau, {"l"}});
  RETURN_IF_ERROR(spec.constraints.Validate(spec.dtd));
  return spec;
}

}  // namespace xmlverify
