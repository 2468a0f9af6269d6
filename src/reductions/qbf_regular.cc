#include "reductions/qbf_regular.h"

#include <cstdlib>

#include "base/string_util.h"

namespace xmlverify {

Result<Specification> QbfToRegularSpec(const QbfFormula& formula) {
  const int m = formula.num_variables();
  if (m == 0) return Status::InvalidArgument("QBF has no variables");
  auto pos = [](int i) { return StrCat("x", std::to_string(i)); };
  auto neg = [](int i) { return "nx" + std::to_string(i); };
  auto n_spine = [](int i) { return StrCat("N", std::to_string(i)); };
  auto p_spine = [](int i) { return StrCat("P", std::to_string(i)); };

  // Only literals occurring in the matrix become element types;
  // others would be disconnected from the root.
  std::vector<bool> pos_occurs(m + 1, false);
  std::vector<bool> neg_occurs(m + 1, false);
  for (const std::vector<int>& clause : formula.matrix.clauses) {
    for (int literal : clause) {
      if (literal > 0) {
        pos_occurs[literal] = true;
      } else {
        neg_occurs[-literal] = true;
      }
    }
  }

  std::vector<std::string> names = {"r", "C"};
  for (int i = 1; i <= m; ++i) {
    if (pos_occurs[i]) names.push_back(pos(i));
    if (neg_occurs[i]) names.push_back(neg(i));
    names.push_back(n_spine(i));
    names.push_back(p_spine(i));
  }

  Dtd::Builder builder(names, "r");
  // The root and the spine branch per quantifier: choice for exists,
  // both children for forall. The root also carries the lone C child
  // (so r.C.C denotes the empty node set).
  auto level_content = [&](int i) {
    return formula.existential[i - 1]
               ? StrCat("(", n_spine(i), "|", p_spine(i), ")")
               : StrCat("(", n_spine(i), ",", p_spine(i), ")");
  };
  builder.SetContent("r", level_content(1) + ",C");
  for (int i = 1; i < m; ++i) {
    builder.SetContent(n_spine(i), level_content(i + 1));
    builder.SetContent(p_spine(i), level_content(i + 1));
  }
  // The leaf level spells out one witnessing literal per clause.
  std::string matrix_content;
  for (const std::vector<int>& clause : formula.matrix.clauses) {
    std::string tr;
    for (int literal : clause) {
      if (!tr.empty()) tr += "|";
      tr += literal > 0 ? pos(literal) : neg(-literal);
    }
    if (!matrix_content.empty()) matrix_content += ",";
    matrix_content += "(" + tr + ")";
  }
  if (matrix_content.empty()) matrix_content = "%";
  builder.SetContent(n_spine(m), matrix_content);
  builder.SetContent(p_spine(m), matrix_content);

  builder.AddAttribute("C", "l");
  for (int i = 1; i <= m; ++i) {
    if (pos_occurs[i]) builder.AddAttribute(pos(i), "l");
    if (neg_occurs[i]) builder.AddAttribute(neg(i), "l");
  }

  Specification spec;
  ASSIGN_OR_RETURN(spec.dtd, builder.Build());

  // Helper to parse the constraint paths against the built DTD.
  auto resolve = [&spec](const std::string& name) {
    return spec.dtd.FindType(name);
  };
  auto parse_path = [&](const std::string& text) {
    return ParseRegex(text, resolve);
  };
  ASSIGN_OR_RETURN(Regex ccl_path, parse_path("r.C.C"));
  ASSIGN_OR_RETURN(int c_type, spec.dtd.TypeId("C"));
  for (int i = 1; i <= m; ++i) {
    // r._*.N_i._*.x_i.l <= r.C.C.l : a satisfied positive literal may
    // not sit below a negative choice for its variable (and dually).
    if (pos_occurs[i]) {
      ASSIGN_OR_RETURN(Regex pos_path,
                       parse_path("r._*." + n_spine(i) + "._*." + pos(i)));
      ASSIGN_OR_RETURN(int pos_type, spec.dtd.TypeId(pos(i)));
      spec.constraints.AddForeignKey(
          RegularInclusion{pos_path, pos_type, "l", ccl_path, c_type, "l"});
    }
    if (neg_occurs[i]) {
      ASSIGN_OR_RETURN(Regex neg_path,
                       parse_path("r._*." + p_spine(i) + "._*." + neg(i)));
      ASSIGN_OR_RETURN(int neg_type, spec.dtd.TypeId(neg(i)));
      spec.constraints.AddForeignKey(
          RegularInclusion{neg_path, neg_type, "l", ccl_path, c_type, "l"});
    }
  }
  RETURN_IF_ERROR(spec.constraints.Validate(spec.dtd));
  return spec;
}

}  // namespace xmlverify
