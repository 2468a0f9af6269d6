#include "reductions/cnf_depth2.h"

#include <cstdlib>
#include <set>

#include "base/string_util.h"

namespace xmlverify {

Result<Specification> CnfToDepth2Spec(const CnfFormula& formula) {
  // Element type names.
  auto pos_var = [](int v) { return StrCat("x", std::to_string(v)); };
  auto neg_var = [](int v) { return "nx" + std::to_string(v); };
  auto pos_lit = [](int c, int v) {
    return StrCat("c", std::to_string(c), "_", std::to_string(v));
  };
  auto neg_lit = [](int c, int v) {
    return "nc" + std::to_string(c) + "_" + std::to_string(v);
  };

  std::vector<std::string> names = {"r"};
  std::set<std::string> seen = {"r"};
  auto add_name = [&](const std::string& name) {
    if (seen.insert(name).second) names.push_back(name);
  };
  for (int v = 1; v <= formula.num_variables; ++v) {
    add_name(pos_var(v));
    add_name(neg_var(v));
  }
  for (size_t c = 0; c < formula.clauses.size(); ++c) {
    for (int literal : formula.clauses[c]) {
      add_name(literal > 0 ? pos_lit(static_cast<int>(c), literal)
                           : neg_lit(static_cast<int>(c), -literal));
    }
  }

  Dtd::Builder builder(names, "r");
  // P(r) = tr(C_1), ..., tr(C_n), (x_1|nx_1), ..., (x_m|nx_m).
  std::string root_content;
  for (size_t c = 0; c < formula.clauses.size(); ++c) {
    std::string tr;
    for (int literal : formula.clauses[c]) {
      if (!tr.empty()) tr += "|";
      tr += literal > 0 ? pos_lit(static_cast<int>(c), literal)
                        : neg_lit(static_cast<int>(c), -literal);
    }
    if (!root_content.empty()) root_content += ",";
    root_content += "(" + tr + ")";
  }
  for (int v = 1; v <= formula.num_variables; ++v) {
    if (!root_content.empty()) root_content += ",";
    root_content += StrCat("(", pos_var(v), "|", neg_var(v), ")");
  }
  builder.SetContent("r", root_content);
  for (const std::string& name : names) {
    if (name != "r") builder.AddAttribute(name, "l");
  }

  Specification spec;
  ASSIGN_OR_RETURN(spec.dtd, builder.Build());

  // Foreign keys C_{i,j}.l <= x_j.l (with the key on the referenced
  // side), and the negated-literal counterparts.
  for (size_t c = 0; c < formula.clauses.size(); ++c) {
    for (int literal : formula.clauses[c]) {
      std::string lit_name = literal > 0
                                 ? pos_lit(static_cast<int>(c), literal)
                                 : neg_lit(static_cast<int>(c), -literal);
      std::string var_name =
          literal > 0 ? pos_var(literal) : neg_var(-literal);
      ASSIGN_OR_RETURN(int lit_type, spec.dtd.TypeId(lit_name));
      ASSIGN_OR_RETURN(int var_type, spec.dtd.TypeId(var_name));
      spec.constraints.AddForeignKey(
          AbsoluteInclusion{lit_type, {"l"}, var_type, {"l"}});
    }
  }
  RETURN_IF_ERROR(spec.constraints.Validate(spec.dtd));
  return spec;
}

}  // namespace xmlverify
