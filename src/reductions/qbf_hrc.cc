#include "reductions/qbf_hrc.h"

#include <cstdlib>

#include "base/string_util.h"

namespace xmlverify {

Result<Specification> QbfTo2HrcSpec(const QbfFormula& formula) {
  const int m = formula.num_variables();
  if (m == 0) return Status::InvalidArgument("QBF has no variables");
  auto pos = [](int i) { return StrCat("x", std::to_string(i)); };
  auto neg = [](int i) { return "nx" + std::to_string(i); };
  auto one = [](int i) { return "one" + std::to_string(i); };
  auto zero = [](int i) { return "zero" + std::to_string(i); };
  auto a_mark = [](int i) { return StrCat("A", std::to_string(i)); };
  auto b_mark = [](int i) { return StrCat("B", std::to_string(i)); };
  auto n_spine = [](int i) { return StrCat("N", std::to_string(i)); };
  auto p_spine = [](int i) { return StrCat("P", std::to_string(i)); };

  // Only literals occurring in the matrix become element types.
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
    for (const std::string& name :
         {one(i), zero(i), a_mark(i), b_mark(i), n_spine(i), p_spine(i)}) {
      names.push_back(name);
    }
  }

  Dtd::Builder builder(names, "r");
  auto level_content = [&](int i) {
    return formula.existential[i - 1]
               ? StrCat("(", n_spine(i), "|", p_spine(i), ")")
               : StrCat("(", n_spine(i), ",", p_spine(i), ")");
  };
  builder.SetContent("r", level_content(1));
  for (int i = 1; i < m; ++i) {
    builder.SetContent(n_spine(i), level_content(i + 1));
    builder.SetContent(p_spine(i), level_content(i + 1));
  }
  // Leaf content: one C, the restated assignment, then one witnessing
  // literal per clause.
  std::string leaf_content = "C";
  for (int i = 1; i <= m; ++i) {
    leaf_content += ",(" + zero(i) + "," + a_mark(i) + "," + a_mark(i) +
                    "|" + one(i) + "," + b_mark(i) + "," + b_mark(i) + ")";
  }
  for (const std::vector<int>& clause : formula.matrix.clauses) {
    std::string tr;
    for (int literal : clause) {
      if (!tr.empty()) tr += "|";
      tr += literal > 0 ? pos(literal) : neg(-literal);
    }
    leaf_content += ",(" + tr + ")";
  }
  builder.SetContent(n_spine(m), leaf_content);
  builder.SetContent(p_spine(m), leaf_content);

  builder.AddAttribute("C", "v");
  for (int i = 1; i <= m; ++i) {
    if (pos_occurs[i]) builder.AddAttribute(pos(i), "v");
    if (neg_occurs[i]) builder.AddAttribute(neg(i), "v");
    for (const std::string& name :
         {one(i), zero(i), a_mark(i), b_mark(i)}) {
      builder.AddAttribute(name, "v");
    }
  }

  Specification spec;
  ASSIGN_OR_RETURN(spec.dtd, builder.Build());
  auto type_of = [&spec](const std::string& name) {
    return spec.dtd.TypeId(name);
  };
  ASSIGN_OR_RETURN(int c_type, type_of("C"));
  ASSIGN_OR_RETURN(int leaf_n, type_of(n_spine(m)));
  ASSIGN_OR_RETURN(int leaf_p, type_of(p_spine(m)));

  for (int i = 1; i <= m; ++i) {
    ASSIGN_OR_RETURN(int spine_n, type_of(n_spine(i)));
    ASSIGN_OR_RETURN(int spine_p, type_of(p_spine(i)));
    ASSIGN_OR_RETURN(int a_type, type_of(a_mark(i)));
    ASSIGN_OR_RETURN(int b_type, type_of(b_mark(i)));
    ASSIGN_OR_RETURN(int one_type, type_of(one(i)));
    ASSIGN_OR_RETURN(int zero_type, type_of(zero(i)));

    // Path-consistency: below an N_i (x_i = 0) context, v is a key of
    // the B_i marks — a leaf restating x_i = 1 would carry two B_i
    // children whose values are squeezed into the single C value by
    // the leaf-local inclusion below, violating the key. Dually for
    // P_i / A_i.
    spec.constraints.Add(RelativeKey{spine_n, b_type, "v"});
    spec.constraints.Add(RelativeKey{spine_p, a_type, "v"});

    for (int leaf : {leaf_n, leaf_p}) {
      // Leaf-local squeezes: every mark value must equal the single
      // C value of the same leaf.
      spec.constraints.AddForeignKey(
          RelativeInclusion{leaf, a_type, "v", c_type, "v"});
      spec.constraints.AddForeignKey(
          RelativeInclusion{leaf, b_type, "v", c_type, "v"});
      // Clause-witness consistency: a positive witness x_i needs the
      // leaf to restate x_i = 1 (a one_i child), dually for nx_i.
      if (pos_occurs[i]) {
        ASSIGN_OR_RETURN(int pos_type, type_of(pos(i)));
        spec.constraints.AddForeignKey(
            RelativeInclusion{leaf, pos_type, "v", one_type, "v"});
      }
      if (neg_occurs[i]) {
        ASSIGN_OR_RETURN(int neg_type, type_of(neg(i)));
        spec.constraints.AddForeignKey(
            RelativeInclusion{leaf, neg_type, "v", zero_type, "v"});
      }
    }
  }
  RETURN_IF_ERROR(spec.constraints.Validate(spec.dtd));
  return spec;
}

}  // namespace xmlverify
