#include "reductions/diophantine_relative.h"

#include "base/string_util.h"

namespace xmlverify {

int64_t QuadraticEquation::Imbalance(const std::vector<int64_t>& values) const {
  int64_t total = 0;
  for (const LinearTerm& term : lhs_linear) {
    total += term.coefficient * values[term.variable];
  }
  for (const QuadraticTerm& term : lhs_quadratic) {
    total += term.coefficient * values[term.first] * values[term.second];
  }
  for (const LinearTerm& term : rhs_linear) {
    total -= term.coefficient * values[term.variable];
  }
  for (const QuadraticTerm& term : rhs_quadratic) {
    total -= term.coefficient * values[term.first] * values[term.second];
  }
  return total - constant;
}

bool QuadraticEquation::HasSolutionUpTo(int64_t bound) const {
  std::vector<int64_t> values(num_variables, 0);
  while (true) {
    if (Imbalance(values) == 0) return true;
    int position = 0;
    while (position < num_variables) {
      if (++values[position] <= bound) break;
      values[position] = 0;
      ++position;
    }
    if (position == num_variables) return false;
  }
}

namespace {

// Per-side naming: prefix "a" for the left-hand side, "g" for the
// right-hand side; `target` is "X" or "Y".
struct SideNames {
  std::string prefix;
  std::string target;

  std::string Linear(size_t t) const {
    return prefix + "L" + std::to_string(t);
  }
  std::string Alpha(size_t t) const {
    return prefix + "Q" + std::to_string(t);
  }
  std::string AlphaPrime(size_t t) const {
    return prefix + "Qp" + std::to_string(t);
  }
  std::string Beta(size_t t) const {
    return prefix + "b" + std::to_string(t);
  }
  std::string C(size_t t) const { return prefix + "c" + std::to_string(t); }
  std::string D(size_t t) const { return prefix + "d" + std::to_string(t); }
  std::string E(size_t t) const { return prefix + "e" + std::to_string(t); }
};

std::string Repeat(const std::string& name, int64_t count) {
  std::string out;
  for (int64_t c = 0; c < count; ++c) {
    if (!out.empty()) out += ",";
    out += name;
  }
  return out.empty() ? std::string("%") : out;
}

}  // namespace

Result<Specification> QuadraticEquationToRelativeSpec(
    const QuadraticEquation& equation) {
  if (equation.constant < 0) {
    return Status::InvalidArgument("constant must be nonnegative");
  }
  auto n_name = [](int i) { return StrCat("n", std::to_string(i)); };
  SideNames lhs{"a", "X"};
  SideNames rhs{"g", "Y"};

  std::vector<std::string> names = {"r", "X", "Y"};
  for (int i = 0; i < equation.num_variables; ++i) names.push_back(n_name(i));
  auto add_side_names = [&names](const SideNames& side,
                                 size_t linear_count, size_t quad_count) {
    for (size_t t = 0; t < linear_count; ++t) names.push_back(side.Linear(t));
    for (size_t t = 0; t < quad_count; ++t) {
      names.push_back(side.Alpha(t));
      names.push_back(side.AlphaPrime(t));
      names.push_back(side.Beta(t));
      names.push_back(side.C(t));
      names.push_back(side.D(t));
      names.push_back(side.E(t));
    }
  };
  add_side_names(lhs, equation.lhs_linear.size(), equation.lhs_quadratic.size());
  add_side_names(rhs, equation.rhs_linear.size(), equation.rhs_quadratic.size());

  Dtd::Builder builder(names, "r");

  // P(r): free counters n_i*, starred linear gadgets, one root
  // instance of each quadratic gadget, and Y^o for the constant.
  std::string root_content;
  auto append = [](std::string* content, const std::string& piece) {
    if (!content->empty()) *content += ",";
    *content += piece;
  };
  for (int i = 0; i < equation.num_variables; ++i) {
    append(&root_content, n_name(i) + "*");
  }
  for (size_t t = 0; t < equation.lhs_linear.size(); ++t) {
    append(&root_content, lhs.Linear(t) + "*");
  }
  for (size_t t = 0; t < equation.lhs_quadratic.size(); ++t) {
    append(&root_content, lhs.Alpha(t));
  }
  for (size_t t = 0; t < equation.rhs_linear.size(); ++t) {
    append(&root_content, rhs.Linear(t) + "*");
  }
  for (size_t t = 0; t < equation.rhs_quadratic.size(); ++t) {
    append(&root_content, rhs.Alpha(t));
  }
  if (equation.constant > 0) append(&root_content, Repeat("Y", equation.constant));
  builder.SetContent("r", root_content);

  auto build_side = [&](const SideNames& side,
                        const std::vector<QuadraticEquation::LinearTerm>&
                            linear,
                        const std::vector<QuadraticEquation::QuadraticTerm>&
                            quadratic) {
    for (size_t t = 0; t < linear.size(); ++t) {
      // P(L_t) = target^{a_t}.
      builder.SetContent(side.Linear(t),
                         Repeat(side.target, linear[t].coefficient));
    }
    for (size_t t = 0; t < quadratic.size(); ++t) {
      // P(alpha_t) = (beta_t, c_t, c_t, target^{a_t})*, alpha'_t.
      builder.SetContent(
          side.Alpha(t),
          StrCat("(", side.Beta(t), ",", side.C(t), ",", side.C(t), ",",
                 Repeat(side.target, quadratic[t].coefficient), ")*,",
                 side.AlphaPrime(t)));
      // P(alpha'_t) = (beta_t, d_t, d_t)*, (alpha_t | (c_t, e_t)*).
      builder.SetContent(
          side.AlphaPrime(t),
          StrCat("(", side.Beta(t), ",", side.D(t), ",", side.D(t), ")*,(",
                 side.Alpha(t), "|(", side.C(t), ",", side.E(t), ")*)"));
    }
  };
  build_side(lhs, equation.lhs_linear, equation.lhs_quadratic);
  build_side(rhs, equation.rhs_linear, equation.rhs_quadratic);

  // Attributes: v on every counted type.
  builder.AddAttribute("X", "v");
  builder.AddAttribute("Y", "v");
  for (int i = 0; i < equation.num_variables; ++i) {
    builder.AddAttribute(n_name(i), "v");
  }
  auto side_attributes = [&](const SideNames& side, size_t linear_count,
                             size_t quad_count) {
    for (size_t t = 0; t < linear_count; ++t) {
      builder.AddAttribute(side.Linear(t), "v");
    }
    for (size_t t = 0; t < quad_count; ++t) {
      builder.AddAttribute(side.Alpha(t), "v");
      builder.AddAttribute(side.Beta(t), "v");
      builder.AddAttribute(side.C(t), "v");
      builder.AddAttribute(side.D(t), "v");
      builder.AddAttribute(side.E(t), "v");
    }
  };
  side_attributes(lhs, equation.lhs_linear.size(),
                  equation.lhs_quadratic.size());
  side_attributes(rhs, equation.rhs_linear.size(),
                  equation.rhs_quadratic.size());

  Specification spec;
  ASSIGN_OR_RETURN(spec.dtd, builder.Build());
  auto type_of = [&spec](const std::string& name) {
    return spec.dtd.TypeId(name);
  };

  auto add_key = [&](const std::string& name) -> Status {
    ASSIGN_OR_RETURN(int type, type_of(name));
    spec.constraints.Add(AbsoluteKey{type, {"v"}});
    return Status::OK();
  };
  auto tie_counts = [&](const std::string& a, const std::string& b) -> Status {
    // Absolute inclusions both ways: with the keys, |ext(a)|=|ext(b)|.
    ASSIGN_OR_RETURN(int type_a, type_of(a));
    ASSIGN_OR_RETURN(int type_b, type_of(b));
    spec.constraints.Add(AbsoluteInclusion{type_a, {"v"}, type_b, {"v"}});
    spec.constraints.Add(AbsoluteInclusion{type_b, {"v"}, type_a, {"v"}});
    return Status::OK();
  };

  RETURN_IF_ERROR(add_key("X"));
  RETURN_IF_ERROR(add_key("Y"));
  RETURN_IF_ERROR(tie_counts("X", "Y"));
  for (int i = 0; i < equation.num_variables; ++i) {
    RETURN_IF_ERROR(add_key(n_name(i)));
  }

  auto side_constraints = [&](const SideNames& side,
                              const std::vector<QuadraticEquation::LinearTerm>&
                                  linear,
                              const std::vector<
                                  QuadraticEquation::QuadraticTerm>& quadratic)
      -> Status {
    for (size_t t = 0; t < linear.size(); ++t) {
      RETURN_IF_ERROR(add_key(side.Linear(t)));
      // |ext(L_t)| = x_var: L_t contributes a_t * x_var target nodes.
      RETURN_IF_ERROR(tie_counts(side.Linear(t), n_name(linear[t].variable)));
    }
    for (size_t t = 0; t < quadratic.size(); ++t) {
      for (const std::string& name :
           {side.Alpha(t), side.Beta(t), side.C(t), side.D(t), side.E(t)}) {
        RETURN_IF_ERROR(add_key(name));
      }
      // |ext(alpha_t)| = x_first (nesting depth).
      RETURN_IF_ERROR(
          tie_counts(side.Alpha(t), n_name(quadratic[t].first)));
      // |ext(e_t)| = x_second (innermost (c,e)* run length).
      RETURN_IF_ERROR(tie_counts(side.E(t), n_name(quadratic[t].second)));
      // Relative counters: inside each alpha node, the beta run equals
      // half the d run; inside each alpha' node, the beta run equals
      // half the c run — together these replicate x_second down every
      // nesting level (the appendix's induction).
      ASSIGN_OR_RETURN(int alpha, type_of(side.Alpha(t)));
      ASSIGN_OR_RETURN(int alpha_prime, type_of(side.AlphaPrime(t)));
      ASSIGN_OR_RETURN(int beta, type_of(side.Beta(t)));
      ASSIGN_OR_RETURN(int c_type, type_of(side.C(t)));
      ASSIGN_OR_RETURN(int d_type, type_of(side.D(t)));
      spec.constraints.AddForeignKey(
          RelativeInclusion{alpha, beta, "v", d_type, "v"});
      spec.constraints.AddForeignKey(
          RelativeInclusion{alpha, d_type, "v", beta, "v"});
      spec.constraints.AddForeignKey(
          RelativeInclusion{alpha_prime, beta, "v", c_type, "v"});
      spec.constraints.AddForeignKey(
          RelativeInclusion{alpha_prime, c_type, "v", beta, "v"});
    }
    return Status::OK();
  };
  RETURN_IF_ERROR(side_constraints(lhs, equation.lhs_linear,
                                   equation.lhs_quadratic));
  RETURN_IF_ERROR(side_constraints(rhs, equation.rhs_linear,
                                   equation.rhs_quadratic));

  RETURN_IF_ERROR(spec.constraints.Validate(spec.dtd));
  return spec;
}

}  // namespace xmlverify
