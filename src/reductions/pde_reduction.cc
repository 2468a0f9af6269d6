#include "reductions/pde_reduction.h"

#include "base/string_util.h"

#include "ilp/linear.h"

namespace xmlverify {

Status PdeSystem::Validate() const {
  for (const LinearRow& row : rows) {
    if (static_cast<int>(row.coefficients.size()) != num_variables) {
      return Status::InvalidArgument("row arity mismatch");
    }
    for (int64_t coefficient : row.coefficients) {
      if (coefficient < 0) {
        return Status::InvalidArgument(
            "PDE reduction requires nonnegative coefficients");
      }
    }
    if (row.rhs < 0) {
      return Status::InvalidArgument("PDE rhs must be nonnegative");
    }
    bool all_zero = true;
    for (int64_t coefficient : row.coefficients) {
      if (coefficient > 0) all_zero = false;
    }
    if (all_zero) {
      return Status::Unsupported(
          "degenerate all-zero row; simplify the system first");
    }
    if (row.is_le && row.rhs == 0) {
      return Status::Unsupported(
          "'<= 0' rows force variables to zero; substitute them away "
          "before reducing");
    }
  }
  for (const Prequadratic& pq : prequadratics) {
    if (pq.x < 0 || pq.x >= num_variables || pq.y < 0 ||
        pq.y >= num_variables || pq.z < 0 || pq.z >= num_variables) {
      return Status::InvalidArgument("prequadratic variable out of range");
    }
  }
  return Status::OK();
}

Result<SolveResult> SolvePde(const PdeSystem& system,
                             const SolverOptions& options) {
  RETURN_IF_ERROR(system.Validate());
  IntegerProgram program;
  for (int i = 0; i < system.num_variables; ++i) {
    program.NewVariable(StrCat("x", std::to_string(i)));
  }
  for (const PdeSystem::LinearRow& row : system.rows) {
    LinearExpr lhs;
    for (int i = 0; i < system.num_variables; ++i) {
      lhs.Add(i, BigInt(row.coefficients[i]));
    }
    program.AddLinear(std::move(lhs),
                      row.is_le ? Relation::kLe : Relation::kGe,
                      BigInt(row.rhs));
  }
  for (const PdeSystem::Prequadratic& pq : system.prequadratics) {
    program.AddPrequadratic(pq.x, pq.y, pq.z);
  }
  IlpSolver solver(options);
  if (system.prequadratics.empty()) return solver.Solve(program);
  return solver.SolveWithDeepening(program, BigInt(16), BigInt::Pow2(24));
}

Result<Specification> PdeToSpec(const PdeSystem& system) {
  RETURN_IF_ERROR(system.Validate());
  const int n = system.num_variables;
  const int m = static_cast<int>(system.rows.size());
  auto coef = [&system](int j, int i) {
    return system.rows[j].coefficients[i];
  };

  auto x_name = [](int i) { return StrCat("X", std::to_string(i)); };
  auto cx_name = [](int i, int j) {
    return "CX" + std::to_string(i) + "_" + std::to_string(j);
  };
  auto dx_name = [](int i, int j) {
    return "DX" + std::to_string(i) + "_" + std::to_string(j);
  };
  auto e_name = [](int j) { return StrCat("E", std::to_string(j)); };
  auto u_name = [](int j) { return StrCat("U", std::to_string(j)); };
  auto b_name = [](int j) { return StrCat("B", std::to_string(j)); };
  auto uij_name = [](int i, int j) {
    return StrCat("U", std::to_string(i), "_", std::to_string(j));
  };
  auto xp_name = [](int p) { return "XP" + std::to_string(p); };
  auto nxp_name = [](int p) { return "NXP" + std::to_string(p); };
  auto cxp_name = [](int p, int j) {
    return "CXP" + std::to_string(p) + "_" + std::to_string(j);
  };
  auto dxp_name = [](int p, int j) {
    return "DXP" + std::to_string(p) + "_" + std::to_string(j);
  };

  // Types for zero-coefficient terms are omitted entirely: they would
  // be unreachable in the DTD and their terms contribute nothing.
  std::vector<std::string> names = {"r"};
  for (int i = 0; i < n; ++i) {
    names.push_back(x_name(i));
    for (int j = 0; j < m; ++j) {
      if (coef(j, i) == 0) continue;
      names.push_back(cx_name(i, j));
      names.push_back(dx_name(i, j));
      names.push_back(uij_name(i, j));
    }
  }
  for (int j = 0; j < m; ++j) {
    names.push_back(e_name(j));
    names.push_back(u_name(j));
    names.push_back(b_name(j));
  }
  for (size_t sp = 0; sp < system.prequadratics.size(); ++sp) {
    int p = static_cast<int>(sp);
    int i = system.prequadratics[sp].x;
    names.push_back(xp_name(p));
    names.push_back(nxp_name(p));
    for (int j = 0; j < m; ++j) {
      if (coef(j, i) == 0) continue;
      names.push_back(cxp_name(p, j));
      names.push_back(dxp_name(p, j));
    }
  }

  Dtd::Builder builder(names, "r");

  // P(r) = E_0,...,E_{m-1}, X_0*,...,X_{n-1}*, XP_0*,... .
  std::string root_content;
  auto append = [](std::string* content, const std::string& piece) {
    if (!content->empty()) *content += ",";
    *content += piece;
  };
  for (int j = 0; j < m; ++j) append(&root_content, e_name(j));
  for (int i = 0; i < n; ++i) append(&root_content, x_name(i) + "*");
  for (size_t sp = 0; sp < system.prequadratics.size(); ++sp) {
    append(&root_content, xp_name(static_cast<int>(sp)) + "*");
  }
  builder.SetContent("r", root_content);

  auto repeat = [](const std::string& name, int64_t count) {
    std::string out;
    for (int64_t c = 0; c < count; ++c) {
      if (!out.empty()) out += ",";
      out += name;
    }
    return out.empty() ? std::string("%") : out;
  };

  // P(E_j) = B_j^{b_j}, U_{i,j}* over the row's support. A ">= 0" row
  // gets an optional B_j so the type stays reachable (the row is
  // vacuous either way).
  for (int j = 0; j < m; ++j) {
    std::string content = system.rows[j].rhs == 0
                              ? StrCat("(", b_name(j), "|%)")
                              : repeat(b_name(j), system.rows[j].rhs);
    for (int i = 0; i < n; ++i) {
      if (coef(j, i) > 0) append(&content, uij_name(i, j) + "*");
    }
    builder.SetContent(e_name(j), content);
    for (int i = 0; i < n; ++i) {
      if (coef(j, i) > 0) builder.SetContent(uij_name(i, j), u_name(j));
    }
  }

  // P(X_i) = CX_{i,j} over the support; P(CX_{i,j}) = DX_{i,j}^{a^j_i}.
  for (int i = 0; i < n; ++i) {
    std::string content;
    for (int j = 0; j < m; ++j) {
      if (coef(j, i) > 0) append(&content, cx_name(i, j));
    }
    builder.SetContent(x_name(i), content.empty() ? "%" : content);
    for (int j = 0; j < m; ++j) {
      if (coef(j, i) == 0) continue;
      builder.SetContent(cx_name(i, j), repeat(dx_name(i, j), coef(j, i)));
    }
  }

  // Prequadratic copies: P(XP_p) = CXP_{p,j} over the support of x_i,
  // then NXP_p (which pins |ext(XP_p)| = |ext(NXP_p)|).
  for (size_t sp = 0; sp < system.prequadratics.size(); ++sp) {
    int p = static_cast<int>(sp);
    int i = system.prequadratics[sp].x;
    std::string content;
    for (int j = 0; j < m; ++j) {
      if (coef(j, i) > 0) append(&content, cxp_name(p, j));
    }
    append(&content, nxp_name(p));
    builder.SetContent(xp_name(p), content);
    for (int j = 0; j < m; ++j) {
      if (coef(j, i) == 0) continue;
      builder.SetContent(cxp_name(p, j), repeat(dxp_name(p, j), coef(j, i)));
    }
  }

  // Attributes: l on the counted types; ly and lz on each copy XP_p.
  for (int i = 0; i < n; ++i) {
    builder.AddAttribute(x_name(i), "l");
    for (int j = 0; j < m; ++j) {
      if (coef(j, i) == 0) continue;
      builder.AddAttribute(uij_name(i, j), "l");
      builder.AddAttribute(dx_name(i, j), "l");
    }
  }
  for (int j = 0; j < m; ++j) {
    builder.AddAttribute(u_name(j), "l");
    builder.AddAttribute(b_name(j), "l");
  }
  for (size_t sp = 0; sp < system.prequadratics.size(); ++sp) {
    int p = static_cast<int>(sp);
    int i = system.prequadratics[sp].x;
    builder.AddAttribute(nxp_name(p), "l");
    builder.AddAttribute(xp_name(p), "ly");
    builder.AddAttribute(xp_name(p), "lz");
    for (int j = 0; j < m; ++j) {
      if (coef(j, i) > 0) builder.AddAttribute(dxp_name(p, j), "l");
    }
  }

  Specification spec;
  ASSIGN_OR_RETURN(spec.dtd, builder.Build());
  auto type_of = [&spec](const std::string& name) {
    return spec.dtd.TypeId(name);
  };

  // (1) l is a (primary, unary) key of every counted type.
  auto add_key = [&](const std::string& name) -> Status {
    ASSIGN_OR_RETURN(int type, type_of(name));
    spec.constraints.Add(AbsoluteKey{type, {"l"}});
    return Status::OK();
  };
  for (int i = 0; i < n; ++i) {
    RETURN_IF_ERROR(add_key(x_name(i)));
    for (int j = 0; j < m; ++j) {
      if (coef(j, i) == 0) continue;
      RETURN_IF_ERROR(add_key(uij_name(i, j)));
      RETURN_IF_ERROR(add_key(dx_name(i, j)));
    }
  }
  for (int j = 0; j < m; ++j) {
    RETURN_IF_ERROR(add_key(u_name(j)));
    RETURN_IF_ERROR(add_key(b_name(j)));
  }
  for (size_t sp = 0; sp < system.prequadratics.size(); ++sp) {
    int p = static_cast<int>(sp);
    int i = system.prequadratics[sp].x;
    RETURN_IF_ERROR(add_key(nxp_name(p)));
    for (int j = 0; j < m; ++j) {
      if (coef(j, i) > 0) RETURN_IF_ERROR(add_key(dxp_name(p, j)));
    }
  }

  auto both_ways = [&](const std::string& a, const std::string& b) -> Status {
    ASSIGN_OR_RETURN(int type_a, type_of(a));
    ASSIGN_OR_RETURN(int type_b, type_of(b));
    spec.constraints.Add(AbsoluteInclusion{type_a, {"l"}, type_b, {"l"}});
    spec.constraints.Add(AbsoluteInclusion{type_b, {"l"}, type_a, {"l"}});
    return Status::OK();
  };

  // (2) the U_{i,j} extents agree with the DX_{i,j} extents (and with
  // the prequadratic copies' DXP extents): both encode a^j_i * x_i.
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      if (coef(j, i) == 0) continue;
      RETURN_IF_ERROR(both_ways(uij_name(i, j), dx_name(i, j)));
      for (size_t sp = 0; sp < system.prequadratics.size(); ++sp) {
        if (system.prequadratics[sp].x != i) continue;
        RETURN_IF_ERROR(
            both_ways(uij_name(i, j), dxp_name(static_cast<int>(sp), j)));
      }
    }
  }

  // (3) each linear row: U_j.l <= B_j.l for "<=", the reverse for ">=".
  for (int j = 0; j < m; ++j) {
    ASSIGN_OR_RETURN(int u_type, type_of(u_name(j)));
    ASSIGN_OR_RETURN(int b_type, type_of(b_name(j)));
    if (system.rows[j].is_le) {
      spec.constraints.Add(AbsoluteInclusion{u_type, {"l"}, b_type, {"l"}});
    } else {
      spec.constraints.Add(AbsoluteInclusion{b_type, {"l"}, u_type, {"l"}});
    }
  }

  // (4) prequadratic p: x_i <= x_y * x_z via the two-attribute primary
  // key on the copy XP_p and unary inclusions into X_y.l and X_z.l;
  // (5) |ext(X_i)| = |ext(NXP_p)| (= |ext(XP_p)| by the DTD).
  for (size_t sp = 0; sp < system.prequadratics.size(); ++sp) {
    int p = static_cast<int>(sp);
    ASSIGN_OR_RETURN(int xp_type, type_of(xp_name(p)));
    ASSIGN_OR_RETURN(int y_type, type_of(x_name(system.prequadratics[sp].y)));
    ASSIGN_OR_RETURN(int z_type, type_of(x_name(system.prequadratics[sp].z)));
    spec.constraints.Add(AbsoluteKey{xp_type, {"ly", "lz"}});
    spec.constraints.Add(AbsoluteInclusion{xp_type, {"ly"}, y_type, {"l"}});
    spec.constraints.Add(AbsoluteInclusion{xp_type, {"lz"}, z_type, {"l"}});
    RETURN_IF_ERROR(
        both_ways(x_name(system.prequadratics[sp].x), nxp_name(p)));
  }

  RETURN_IF_ERROR(spec.constraints.Validate(spec.dtd));
  return spec;
}

}  // namespace xmlverify
