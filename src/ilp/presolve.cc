#include "ilp/presolve.h"

#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "trace/trace.h"

namespace xmlverify {

namespace {

// Mutable working copy of one constraint row, kept in the ORIGINAL
// variable id space until emission.
struct WorkRow {
  std::map<VarId, BigInt> terms;
  Relation relation = Relation::kLe;
  BigInt rhs;
  std::string label;
  bool alive = true;
};

// Shared mutable state of one presolve run.
struct Work {
  std::vector<WorkRow> rows;
  std::vector<BigInt> lb;                  // >= 0 always
  std::vector<std::optional<BigInt>> ub;   // nullopt: unbounded
  std::vector<std::optional<BigInt>> fixed;
  // Rows holding each variable, built once from the input. Rows only
  // lose terms, and a variable leaves a row only once it is pinned.
  std::vector<std::vector<int>> rows_of;
  // Rows awaiting a ReduceRow visit; queued[i] is set while row i is
  // in the queue.
  std::deque<int> queue;
  std::vector<bool> queued;
  const std::vector<std::string>* names = nullptr;
  PresolveStats stats;
  bool infeasible = false;
  std::string reason;

  void Refute(const WorkRow& row, const std::string& why) {
    if (infeasible) return;
    infeasible = true;
    LinearConstraint rendered;
    for (const auto& [var, coeff] : row.terms) rendered.lhs.Add(var, coeff);
    rendered.relation = row.relation;
    rendered.rhs = row.rhs;
    rendered.label = row.label;
    reason = "presolve refutes (" + why + "): " + rendered.ToString(*names);
  }

  void RefuteBounds(VarId var) {
    if (infeasible) return;
    infeasible = true;
    reason = "presolve refutes (empty domain): " + (*names)[var] + " in [" +
             lb[var].ToString() + ", " + (*ub[var]).ToString() + "]";
  }

  void Enqueue(int index) {
    if (queued[index] || !rows[index].alive) return;
    queued[index] = true;
    queue.push_back(index);
  }

  // Pins `var` the moment its bounds meet and queues every live row
  // holding it, so that row's next visit substitutes the value in.
  void PinIfFixed(VarId var) {
    if (fixed[var].has_value() || !ub[var].has_value() || lb[var] != *ub[var]) {
      return;
    }
    fixed[var] = lb[var];
    ++stats.vars_fixed;
    for (int index : rows_of[var]) Enqueue(index);
  }

  // Bound tighteners; both refute when a domain empties and pin a
  // variable whose bounds meet.
  void TightenUb(VarId var, const BigInt& bound) {
    if (bound.is_negative()) {
      infeasible = true;
      reason = "presolve refutes (negative upper bound): " + (*names)[var] +
               " <= " + bound.ToString();
      return;
    }
    if (!ub[var].has_value() || bound < *ub[var]) ub[var] = bound;
    if (lb[var] > *ub[var]) {
      RefuteBounds(var);
      return;
    }
    PinIfFixed(var);
  }
  void TightenLb(VarId var, const BigInt& bound) {
    if (bound > lb[var]) lb[var] = bound;
    if (ub[var].has_value() && lb[var] > *ub[var]) {
      RefuteBounds(var);
      return;
    }
    PinIfFixed(var);
  }
};

// Substitutes every fixed variable out of `row`, folding coeff*value
// into the right-hand side.
void SubstituteFixed(Work* work, WorkRow* row) {
  for (auto it = row->terms.begin(); it != row->terms.end();) {
    const std::optional<BigInt>& value = work->fixed[it->first];
    if (value.has_value()) {
      row->rhs -= it->second * *value;
      it = row->terms.erase(it);
    } else {
      ++it;
    }
  }
}

// One normalization+reduction visit of a single row. May drop the
// row, tighten bounds, or refute.
void ReduceRow(Work* work, WorkRow* row) {
  SubstituteFixed(work, row);

  // Empty rows resolve immediately: 0 rel rhs.
  if (row->terms.empty()) {
    bool holds = false;
    switch (row->relation) {
      case Relation::kLe: holds = !row->rhs.is_negative(); break;
      case Relation::kGe: holds = row->rhs.sign() <= 0; break;
      case Relation::kEq: holds = row->rhs.is_zero(); break;
    }
    if (!holds) {
      work->Refute(*row, "empty row");
      return;
    }
    row->alive = false;
    ++work->stats.rows_dropped;
    return;
  }

  // Sign canonicalization: an all-negative row negates to an
  // all-positive one (flipping <= / >=), so the positivity reductions
  // below and the duplicate detection see one canonical form.
  bool all_negative = true;
  bool all_positive = true;
  for (const auto& [var, coeff] : row->terms) {
    (void)var;
    if (coeff.is_negative()) {
      all_positive = false;
    } else {
      all_negative = false;
    }
  }
  if (all_negative) {
    for (auto& [var, coeff] : row->terms) {
      (void)var;
      coeff = -coeff;
    }
    row->rhs = -row->rhs;
    if (row->relation == Relation::kLe) {
      row->relation = Relation::kGe;
    } else if (row->relation == Relation::kGe) {
      row->relation = Relation::kLe;
    }
    all_positive = true;
  }

  // Row gcd normalization with integer rounding. Any integer point
  // makes the left side a multiple of g, so equalities demand
  // divisibility and inequalities round toward the feasible side.
  BigInt gcd(0);
  for (const auto& [var, coeff] : row->terms) {
    (void)var;
    gcd = BigInt::Gcd(gcd, coeff);
  }
  if (gcd > BigInt(1)) {
    if (row->relation == Relation::kEq && !(row->rhs % gcd).is_zero()) {
      work->Refute(*row, "gcd divisibility");
      return;
    }
    for (auto& [var, coeff] : row->terms) {
      (void)var;
      coeff = coeff / gcd;
    }
    switch (row->relation) {
      case Relation::kEq: row->rhs = row->rhs / gcd; break;
      case Relation::kLe: row->rhs = row->rhs.FloorDiv(gcd); break;
      case Relation::kGe: row->rhs = row->rhs.CeilDiv(gcd); break;
    }
    ++work->stats.gcd_tightened;
  }

  // All-positive rows resolve against the implicit x >= 0 domain.
  if (all_positive) {
    if (row->rhs.is_negative()) {
      if (row->relation != Relation::kGe) {
        work->Refute(*row, "positive row, negative rhs");
        return;
      }
      // sum of nonnegatives >= negative: trivially true.
      row->alive = false;
      ++work->stats.rows_dropped;
      return;
    }
    if (row->rhs.is_zero()) {
      if (row->relation == Relation::kGe) {
        row->alive = false;  // lhs >= 0 always holds
        ++work->stats.rows_dropped;
        return;
      }
      // <= 0 or == 0 with positive coefficients forces every variable
      // in the row to zero.
      for (const auto& [var, coeff] : row->terms) {
        (void)coeff;
        work->TightenUb(var, BigInt(0));
        if (work->infeasible) return;
      }
      row->alive = false;
      ++work->stats.rows_dropped;
      return;
    }
  }

  // Singleton row -> variable bound. The coefficient is positive here:
  // a lone negative coefficient was sign-canonicalized above.
  if (row->terms.size() == 1) {
    const auto& [var, coeff] = *row->terms.begin();
    switch (row->relation) {
      case Relation::kEq: {
        if (!(row->rhs % coeff).is_zero()) {
          work->Refute(*row, "singleton divisibility");
          return;
        }
        BigInt value = row->rhs / coeff;
        if (value.is_negative()) {
          work->Refute(*row, "singleton below zero");
          return;
        }
        work->TightenLb(var, value);
        if (!work->infeasible) work->TightenUb(var, value);
        break;
      }
      case Relation::kLe:
        work->TightenUb(var, row->rhs.FloorDiv(coeff));
        break;
      case Relation::kGe:
        work->TightenLb(var, row->rhs.CeilDiv(coeff));
        break;
    }
    if (work->infeasible) return;
    row->alive = false;
    ++work->stats.singleton_bounds;
    return;
  }
}

// Orders left-hand sides term by term, so rows with identical terms
// share one merge group whatever their relation.
struct TermsLess {
  bool operator()(const std::map<VarId, BigInt>* a,
                  const std::map<VarId, BigInt>* b) const {
    return *a < *b;
  }
};

// Collapses rows with identical left-hand sides to their tightest
// representatives; conflicting pairs refute, and a <= / >= pair that
// pinches into an equality queues the surviving row.
void MergeDuplicates(Work* work) {
  struct Group {
    int eq = -1;
    int le = -1;
    int ge = -1;
  };
  std::map<const std::map<VarId, BigInt>*, Group, TermsLess> groups;
  for (size_t i = 0; i < work->rows.size(); ++i) {
    WorkRow& row = work->rows[i];
    if (!row.alive) continue;
    Group& group = groups[&row.terms];
    auto merge = [&](int* slot, bool keep_smaller_rhs) {
      if (*slot < 0) {
        *slot = static_cast<int>(i);
        return;
      }
      WorkRow& kept = work->rows[*slot];
      bool replace = keep_smaller_rhs ? row.rhs < kept.rhs : row.rhs > kept.rhs;
      if (replace) {
        kept.alive = false;
        *slot = static_cast<int>(i);
      } else {
        row.alive = false;
      }
      ++work->stats.duplicates_merged;
    };
    switch (row.relation) {
      case Relation::kEq:
        if (group.eq >= 0) {
          if (row.rhs != work->rows[group.eq].rhs) {
            work->Refute(row, "conflicting equalities");
            return;
          }
          row.alive = false;
          ++work->stats.duplicates_merged;
        } else {
          group.eq = static_cast<int>(i);
        }
        break;
      case Relation::kLe:
        merge(&group.le, /*keep_smaller_rhs=*/true);
        break;
      case Relation::kGe:
        merge(&group.ge, /*keep_smaller_rhs=*/false);
        break;
    }
  }
  // Cross-relation resolution per group.
  for (auto& [key, group] : groups) {
    (void)key;
    auto drop = [&](int index) {
      if (index >= 0 && work->rows[index].alive) {
        work->rows[index].alive = false;
        ++work->stats.rows_dropped;
      }
    };
    if (group.eq >= 0 && work->rows[group.eq].alive) {
      const BigInt& value = work->rows[group.eq].rhs;
      if (group.le >= 0 && work->rows[group.le].alive) {
        if (value > work->rows[group.le].rhs) {
          work->Refute(work->rows[group.eq], "equality above upper row");
          return;
        }
        drop(group.le);
      }
      if (group.ge >= 0 && work->rows[group.ge].alive) {
        if (value < work->rows[group.ge].rhs) {
          work->Refute(work->rows[group.eq], "equality below lower row");
          return;
        }
        drop(group.ge);
      }
      continue;
    }
    if (group.le >= 0 && group.ge >= 0 && work->rows[group.le].alive &&
        work->rows[group.ge].alive) {
      WorkRow& le = work->rows[group.le];
      WorkRow& ge = work->rows[group.ge];
      if (ge.rhs > le.rhs) {
        work->Refute(le, "crossed <= / >= pair");
        return;
      }
      if (ge.rhs == le.rhs) {
        le.relation = Relation::kEq;  // pinched to equality
        drop(group.ge);
        work->Enqueue(group.le);
      }
    }
  }
}

}  // namespace

std::vector<BigInt> PresolveInfo::MapSolution(
    const std::vector<BigInt>& reduced) const {
  std::vector<BigInt> original(vars_.size());
  for (size_t var = 0; var < vars_.size(); ++var) {
    const VarEntry& entry = vars_[var];
    original[var] = entry.eliminated ? entry.value : reduced[entry.reduced];
  }
  return original;
}

PresolveInfo PresolveProgram(const IntegerProgram& program,
                             const PresolveOptions& options) {
  const int n = program.num_variables();
  Work work;
  work.names = &program.variable_names();
  work.lb.assign(n, BigInt(0));
  work.ub.assign(n, std::nullopt);
  work.fixed.assign(n, std::nullopt);
  work.rows_of.resize(n);
  work.rows.reserve(program.linear().size());
  for (const LinearConstraint& constraint : program.linear()) {
    WorkRow row;
    row.terms = constraint.lhs.terms();
    row.relation = constraint.relation;
    row.rhs = constraint.rhs;
    row.label = constraint.label;
    for (const auto& [var, coeff] : row.terms) {
      (void)coeff;
      work.rows_of[var].push_back(static_cast<int>(work.rows.size()));
    }
    work.rows.push_back(std::move(row));
  }
  work.queued.assign(work.rows.size(), false);
  for (size_t i = 0; i < work.rows.size(); ++i) {
    work.Enqueue(static_cast<int>(i));
  }
  // Program bounds enter as tightenings, so a variable bounded by 0 is
  // pinned before the first row visit.
  for (VarId var = 0; var < n && !work.infeasible; ++var) {
    const BigInt* bound = program.UpperBound(var);
    if (bound != nullptr) work.TightenUb(var, *bound);
  }

  // Reduction fixpoint. Every row is visited once, and again only when
  // one of its variables is pinned or a merge pinches it into an
  // equality; the run ends when a merge round queues nothing. Each
  // variable is pinned at most once and each row pinched at most once,
  // so there are at most (rows + pinches + the row counts of the pinned
  // variables) row visits and (pinches + 1) merge rounds.
  while (!work.infeasible) {
    while (!work.queue.empty() && !work.infeasible) {
      const int index = work.queue.front();
      work.queue.pop_front();
      work.queued[index] = false;
      if (work.rows[index].alive) ReduceRow(&work, &work.rows[index]);
    }
    if (work.infeasible) break;
    MergeDuplicates(&work);
    if (work.queue.empty()) break;
  }

  PresolveInfo info;
  info.vars_.resize(n);
  info.stats_ = work.stats;
  trace::Count("solver/presolve_calls");
  if (work.infeasible) {
    info.infeasible_ = true;
    info.reason_ = work.reason;
    trace::Count("solver/presolve_refutations");
    return info;
  }

  // Variable mapping. With elimination allowed, fixed variables and
  // variables absent from every surviving row leave the space (pinned
  // to their value / lower bound); survivors renumber densely. With
  // elimination disallowed the mapping is the identity and pinned
  // variables keep their columns, held in place by bound rows.
  std::vector<bool> referenced(n, false);
  for (const WorkRow& row : work.rows) {
    if (!row.alive) continue;
    for (const auto& [var, coeff] : row.terms) {
      (void)coeff;
      referenced[var] = true;
    }
  }
  int next_id = 0;
  for (VarId var = 0; var < n; ++var) {
    PresolveInfo::VarEntry& entry = info.vars_[var];
    if (options.allow_variable_elimination) {
      if (work.fixed[var].has_value()) {
        entry.eliminated = true;
        entry.value = *work.fixed[var];
        continue;
      }
      if (!referenced[var]) {
        // Unconstrained beyond its (consistent) bounds: pin to lb.
        entry.eliminated = true;
        entry.value = work.lb[var];
        ++info.stats_.vars_fixed;
        continue;
      }
    }
    entry.eliminated = false;
    entry.reduced = next_id++;
  }
  info.reduced_num_vars_ = next_id;

  // Emit surviving rows in the reduced space...
  for (const WorkRow& row : work.rows) {
    if (!row.alive) continue;
    LinearConstraint out;
    for (const auto& [var, coeff] : row.terms) {
      out.lhs.Add(info.vars_[var].reduced, coeff);
    }
    out.relation = row.relation;
    out.rhs = row.rhs;
    out.label = row.label;
    info.rows_.push_back(std::move(out));
  }
  // ...followed by the tightened bounds of surviving variables.
  for (VarId var = 0; var < n; ++var) {
    const PresolveInfo::VarEntry& entry = info.vars_[var];
    if (entry.eliminated) continue;
    if (work.ub[var].has_value()) {
      LinearConstraint bound;
      bound.lhs.Add(entry.reduced, BigInt(1));
      bound.relation = Relation::kLe;
      bound.rhs = *work.ub[var];
      bound.label = "pre-ub";
      info.rows_.push_back(std::move(bound));
    }
    if (work.lb[var] > BigInt(0)) {
      LinearConstraint bound;
      bound.lhs.Add(entry.reduced, BigInt(1));
      bound.relation = Relation::kGe;
      bound.rhs = work.lb[var];
      bound.label = "pre-lb";
      info.rows_.push_back(std::move(bound));
    }
  }

  trace::Count("solver/presolve_rows_dropped", info.stats_.rows_dropped);
  trace::Count("solver/presolve_gcd_tightened", info.stats_.gcd_tightened);
  trace::Count("solver/presolve_singleton_bounds",
               info.stats_.singleton_bounds);
  trace::Count("solver/presolve_duplicates_merged",
               info.stats_.duplicates_merged);
  trace::Count("solver/presolve_vars_fixed", info.stats_.vars_fixed);
  return info;
}

}  // namespace xmlverify
