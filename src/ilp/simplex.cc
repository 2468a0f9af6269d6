#include "ilp/simplex.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "base/deadline.h"
#include "base/fault_injection.h"
#include "base/smallrat.h"
#include "trace/trace.h"

namespace xmlverify {

namespace {

// ---------------------------------------------------------------------
// Dense phase-1 tableau over BigInt rationals, reached only through
// SolveLpDense. Kept semantically frozen as the reference for the
// sparse tableau (the row updates below now go through the fused
// Rational::SubMul kernel, which computes the identical exact values
// without per-cell temporaries).
// Columns: structural vars, slack/surplus vars, artificial vars, then
// the right-hand side.
class DenseTableau {
 public:
  DenseTableau(int num_vars, const std::vector<LinearConstraint>& constraints)
      : num_vars_(num_vars), num_rows_(static_cast<int>(constraints.size())) {
    // One slack/surplus per inequality, one artificial per row.
    int num_slacks = 0;
    for (const LinearConstraint& constraint : constraints) {
      if (constraint.relation != Relation::kEq) ++num_slacks;
    }
    slack_base_ = num_vars_;
    artificial_base_ = slack_base_ + num_slacks;
    num_cols_ = artificial_base_ + num_rows_;

    rows_.assign(num_rows_, std::vector<Rational>(num_cols_, Rational(0)));
    rhs_.assign(num_rows_, Rational(0));
    basis_.assign(num_rows_, -1);

    int next_slack = slack_base_;
    for (int i = 0; i < num_rows_; ++i) {
      const LinearConstraint& constraint = constraints[i];
      // Row: lhs (rel) rhs. Bring to equality form with a slack.
      for (const auto& [var, coeff] : constraint.lhs.terms()) {
        rows_[i][var] = Rational(coeff);
      }
      rhs_[i] = Rational(constraint.rhs);
      if (constraint.relation == Relation::kLe) {
        rows_[i][next_slack++] = Rational(1);
      } else if (constraint.relation == Relation::kGe) {
        rows_[i][next_slack++] = Rational(-1);
      }
      // Normalize to a nonnegative right-hand side.
      if (rhs_[i].is_negative()) {
        for (Rational& cell : rows_[i]) cell = -cell;
        rhs_[i] = -rhs_[i];
      }
      // Artificial variable provides the initial basis.
      int artificial = artificial_base_ + i;
      rows_[i][artificial] = Rational(1);
      basis_[i] = artificial;
    }

    // Phase-1 reduced costs: minimize the sum of artificials. With the
    // artificials basic, r_j = -sum_i rows[i][j] for non-artificial j.
    reduced_.assign(num_cols_, Rational(0));
    objective_ = Rational(0);
    for (int i = 0; i < num_rows_; ++i) {
      for (int j = 0; j < artificial_base_; ++j) {
        reduced_[j] -= rows_[i][j];
      }
      objective_ += rhs_[i];
    }
  }

  // Footprint of the dense tableau, for the memory budget: every cell
  // is a Rational (two BigInts with inline limb storage).
  int64_t ApproxBytes() const {
    return static_cast<int64_t>(num_rows_ + 1) *
           static_cast<int64_t>(num_cols_ + 1) * 64;
  }

  int64_t Nonzeros() const {
    int64_t count = 0;
    for (const auto& row : rows_) {
      for (const Rational& cell : row) {
        if (!cell.is_zero()) ++count;
      }
    }
    return count;
  }

  // Runs phase-1 to optimality. Returns true if the artificial sum
  // reaches zero (feasible). Sets *deadline_exceeded and bails out if
  // the deadline expires first; sets *resource_exhausted when the
  // solver_pivot fault point fires. Either way the return value is
  // then meaningless.
  bool Optimize(int64_t* pivots, const Deadline& deadline,
                bool* deadline_exceeded, bool* resource_exhausted) {
    PeriodicDeadlineCheck check(deadline, /*stride=*/16);
    while (true) {
      if (check.Expired()) {
        *deadline_exceeded = true;
        return false;
      }
      if (FaultInjector::ShouldFail("solver_pivot")) {
        *resource_exhausted = true;
        return false;
      }
      // Bland's rule: entering column = smallest index with negative
      // reduced cost.
      int entering = -1;
      for (int j = 0; j < num_cols_; ++j) {
        if (reduced_[j].is_negative()) {
          entering = j;
          break;
        }
      }
      if (entering < 0) break;  // optimal
      // Ratio test; Bland tie-break on the smallest basis variable.
      int leaving_row = -1;
      Rational best_ratio(0);
      for (int i = 0; i < num_rows_; ++i) {
        if (rows_[i][entering].sign() <= 0) continue;
        Rational ratio = rhs_[i] / rows_[i][entering];
        if (leaving_row < 0 || ratio < best_ratio ||
            (ratio == best_ratio && basis_[i] < basis_[leaving_row])) {
          leaving_row = i;
          best_ratio = ratio;
        }
      }
      if (leaving_row < 0) {
        // Phase-1 objective is bounded below by zero, so this cannot
        // happen with exact arithmetic; treat as optimal defensively.
        break;
      }
      Pivot(leaving_row, entering);
      ++*pivots;
    }
    return objective_.is_zero();
  }

  std::vector<Rational> Solution() const {
    std::vector<Rational> solution(num_vars_, Rational(0));
    for (int i = 0; i < num_rows_; ++i) {
      if (basis_[i] < num_vars_) solution[basis_[i]] = rhs_[i];
    }
    return solution;
  }

 private:
  void Pivot(int pivot_row, int pivot_col) {
    // Normalize the pivot row.
    Rational pivot_value = rows_[pivot_row][pivot_col];
    for (Rational& cell : rows_[pivot_row]) {
      if (!cell.is_zero()) cell /= pivot_value;
    }
    rhs_[pivot_row] /= pivot_value;
    // Eliminate the pivot column from the other rows and the
    // reduced-cost row.
    for (int i = 0; i < num_rows_; ++i) {
      if (i == pivot_row || rows_[i][pivot_col].is_zero()) continue;
      Rational factor = rows_[i][pivot_col];
      for (int j = 0; j < num_cols_; ++j) {
        if (!rows_[pivot_row][j].is_zero()) {
          rows_[i][j].SubMul(factor, rows_[pivot_row][j]);
        }
      }
      rhs_[i].SubMul(factor, rhs_[pivot_row]);
    }
    if (!reduced_[pivot_col].is_zero()) {
      Rational factor = reduced_[pivot_col];
      for (int j = 0; j < num_cols_; ++j) {
        if (!rows_[pivot_row][j].is_zero()) {
          reduced_[j].SubMul(factor, rows_[pivot_row][j]);
        }
      }
      // z_new = z_old + r_entering * t  (t = normalized pivot rhs).
      objective_ += factor * rhs_[pivot_row];
    }
    basis_[pivot_row] = pivot_col;
  }

  int num_vars_;
  int num_rows_;
  int num_cols_ = 0;
  int slack_base_ = 0;
  int artificial_base_ = 0;
  std::vector<std::vector<Rational>> rows_;
  std::vector<Rational> rhs_;
  std::vector<Rational> reduced_;
  Rational objective_;
  std::vector<int> basis_;
};

}  // namespace

// ---------------------------------------------------------------------
// Sparse phase-1 tableau over two-tier rationals. Rows are sorted
// (column, value) pair vectors holding nonzeros only; row combination
// is a merge walk that drops exact cancellations, so sparsity survives
// pivoting wherever the arithmetic allows. Cells start in the int64
// tier and promote to BigInt individually on overflow. Column layout
// matches the dense engine: vars, slack/surplus, artificials, then the
// slacks AppendRelaxedRow adds.
//
// An artificial that leaves the basis is dropped for good (see Pivot):
// its column never fills in and it can never re-enter. Tableau columns
// transform independently, so every other column, the right-hand sides
// and the reduced costs stay exactly the dense engine's, and the pivot
// sequence is the dense engine's up to the point where that engine
// would enter an artificial. Bland's scan reaches an artificial only
// once every other reduced cost is nonnegative; for a feasible system
// the phase-1 objective is then already zero (Farkas), so the dense
// engine's remaining pivots are degenerate and both engines return the
// same vertex, this one in no more pivots.
//
// Lives in a named namespace (not the anonymous one) because
// SimplexWarmState — an external-linkage type — embeds a finished
// tableau by value.
namespace simplex_detail {

class SparseTableau {
 public:
  using Cell = std::pair<int, TwoTierRational>;
  using SparseRow = std::vector<Cell>;

  // Scratch that the pivots of one solve reuse: the pivot column's
  // cells, gathered once per pivot for the ratio test and the
  // elimination, and RowSubMul's merge buffer. It lives outside the
  // tableau, so exported warm snapshots do not carry it.
  struct Workspace {
    // (row, position of the row's pivot-column cell), in row order.
    std::vector<std::pair<int, int>> column;
    SparseRow merged;
  };

  SparseTableau(int num_vars, const std::vector<LinearConstraint>& constraints)
      : num_vars_(num_vars), num_rows_(static_cast<int>(constraints.size())) {
    int num_slacks = 0;
    for (const LinearConstraint& constraint : constraints) {
      if (constraint.relation != Relation::kEq) ++num_slacks;
    }
    slack_base_ = num_vars_;
    artificial_base_ = slack_base_ + num_slacks;
    artificial_end_ = artificial_base_ + num_rows_;
    num_cols_ = artificial_end_;

    rows_.resize(num_rows_);
    rhs_.resize(num_rows_);
    basis_.assign(num_rows_, -1);

    int next_slack = slack_base_;
    for (int i = 0; i < num_rows_; ++i) {
      const LinearConstraint& constraint = constraints[i];
      SparseRow& row = rows_[i];
      row.reserve(constraint.lhs.terms().size() + 2);
      // LinearExpr terms are map-ordered and the slack and artificial
      // columns come after every structural column, so appending keeps
      // the row sorted.
      for (const auto& [var, coeff] : constraint.lhs.terms()) {
        row.emplace_back(var, TwoTierRational(coeff));
      }
      rhs_[i] = TwoTierRational(constraint.rhs);
      if (constraint.relation == Relation::kLe) {
        row.emplace_back(next_slack++, TwoTierRational(int64_t{1}));
      } else if (constraint.relation == Relation::kGe) {
        row.emplace_back(next_slack++, TwoTierRational(int64_t{-1}));
      }
      if (rhs_[i].is_negative()) {
        for (Cell& cell : row) cell.second.Negate();
        rhs_[i].Negate();
      }
      int artificial = artificial_base_ + i;
      row.emplace_back(artificial, TwoTierRational(int64_t{1}));
      basis_[i] = artificial;
    }

    // Phase-1 reduced costs (dense: the cost row fills in quickly and
    // the Bland scan wants positional access anyway).
    reduced_.assign(num_cols_, TwoTierRational());
    objective_ = TwoTierRational();
    for (int i = 0; i < num_rows_; ++i) {
      for (const Cell& cell : rows_[i]) {
        if (cell.first < artificial_base_) {
          reduced_[cell.first] -= cell.second;
        }
      }
      objective_ += rhs_[i];
    }
  }

  // Initial footprint for the memory budget: stored nonzeros plus the
  // dense cost row and per-row vectors. Fill-in during pivoting is not
  // re-charged; the deadline and the solver_pivot fault point bound
  // runaway growth instead.
  int64_t ApproxBytes() const {
    int64_t cells = static_cast<int64_t>(num_cols_) + 2 * num_rows_;
    for (const SparseRow& row : rows_) {
      cells += static_cast<int64_t>(row.size());
    }
    return cells * static_cast<int64_t>(sizeof(Cell));
  }

  int64_t Nonzeros() const {
    int64_t count = 0;
    for (const SparseRow& row : rows_) {
      count += static_cast<int64_t>(row.size());
    }
    return count;
  }

  bool Optimize(Workspace* workspace, int64_t* pivots,
                const Deadline& deadline, bool* deadline_exceeded,
                bool* resource_exhausted) {
    PeriodicDeadlineCheck check(deadline, /*stride=*/16);
    while (true) {
      if (check.Expired()) {
        *deadline_exceeded = true;
        return false;
      }
      if (FaultInjector::ShouldFail("solver_pivot")) {
        *resource_exhausted = true;
        return false;
      }
      // Bland's rule: entering column = smallest index with negative
      // reduced cost.
      int entering = -1;
      for (int j = 0; j < num_cols_; ++j) {
        if (reduced_[j].is_negative()) {
          entering = j;
          break;
        }
      }
      if (entering < 0) break;  // optimal
      // Ratio test over rows with a positive entering-column entry;
      // Bland tie-break on the smallest basis variable.
      GatherColumn(entering, workspace);
      int leaving_row = -1;
      std::optional<TwoTierRational> best_ratio;
      for (const auto& [i, position] : workspace->column) {
        const TwoTierRational& coeff = rows_[i][position].second;
        if (coeff.sign() <= 0) continue;
        TwoTierRational ratio = rhs_[i];
        ratio /= coeff;
        if (leaving_row < 0) {
          leaving_row = i;
          best_ratio = std::move(ratio);
          continue;
        }
        int cmp = ratio.Compare(*best_ratio);
        if (cmp < 0 || (cmp == 0 && basis_[i] < basis_[leaving_row])) {
          leaving_row = i;
          best_ratio = std::move(ratio);
        }
      }
      if (leaving_row < 0) {
        // Phase-1 objective is bounded below by zero, so this cannot
        // happen with exact arithmetic; treat as optimal defensively.
        break;
      }
      Pivot(leaving_row, entering, workspace);
      ++*pivots;
    }
    return objective_.is_zero();
  }

  std::vector<Rational> Solution() const {
    std::vector<Rational> solution(num_vars_, Rational(0));
    for (int i = 0; i < num_rows_; ++i) {
      if (basis_[i] < num_vars_) solution[basis_[i]] = rhs_[i].ToRational();
    }
    return solution;
  }

  // Appends one inequality row to an already-optimized tableau with
  // the row's fresh slack as its basic variable. The slack enters at
  // coefficient +1 (kGe rows are negated into kLe form first) with
  // zero phase-1 cost, so the reduced-cost row and objective are
  // untouched: a dual-feasible basis stays dual feasible, which is the
  // warm-start invariant DualReoptimize relies on. The new row is
  // brought into reduced form by eliminating every currently-basic
  // column (each appears in exactly its own pivot row, so one pass
  // suffices). Requires relation != kEq — an equality row would need
  // an artificial, destroying dual feasibility; callers fall back to a
  // cold solve instead.
  void AppendRelaxedRow(const LinearConstraint& constraint,
                        Workspace* workspace) {
    const bool flip = constraint.relation == Relation::kGe;
    SparseRow row;
    row.reserve(constraint.lhs.terms().size() + 1);
    for (const auto& [var, coeff] : constraint.lhs.terms()) {
      TwoTierRational value(coeff);
      if (flip) value.Negate();
      row.emplace_back(var, std::move(value));
    }
    TwoTierRational rhs(constraint.rhs);
    if (flip) rhs.Negate();

    // Column -> pivot row of the current basis.
    std::vector<int> basic_row(num_cols_, -1);
    for (int i = 0; i < num_rows_; ++i) basic_row[basis_[i]] = i;
    std::vector<int> original_cols;
    original_cols.reserve(row.size());
    for (const Cell& cell : row) original_cols.push_back(cell.first);
    for (int col : original_cols) {
      int pivot_row = basic_row[col];
      if (pivot_row < 0) continue;
      // Re-read: an earlier elimination may have changed (or
      // cancelled) this column's coefficient.
      const TwoTierRational* current = Find(row, col);
      if (current == nullptr || current->is_zero()) continue;
      TwoTierRational factor = *current;
      // The basic column's own-row coefficient is 1 by the pivot
      // normalization invariant; divide anyway so the elimination
      // stays exact even if that invariant ever drifts.
      const TwoTierRational* diagonal = Find(rows_[pivot_row], col);
      if (diagonal != nullptr) factor /= *diagonal;
      RowSubMul(&row, factor, rows_[pivot_row], &workspace->merged);
      rhs.SubMul(factor, rhs_[pivot_row]);
    }

    int slack_col = num_cols_++;
    row.emplace_back(slack_col, TwoTierRational(int64_t{1}));
    rows_.push_back(std::move(row));
    rhs_.push_back(std::move(rhs));
    basis_.push_back(slack_col);
    reduced_.push_back(TwoTierRational());
    ++num_rows_;
  }

  enum class DualStatus {
    kPrimalFeasible,  // all rhs >= 0: hand over to the primal epilogue
    kInfeasible,      // a row refutes the system (sound: no artificials
                      // were introduced by AppendRelaxedRow, and dropped
                      // ones are fixed at zero, as in the original system)
    kGaveUp,          // pivot valve tripped: caller re-solves cold
  };

  // Dual simplex from a dual-feasible basis with (a few) negative
  // right-hand sides, as left behind by AppendRelaxedRow. Bland's
  // rule on both choices: leaving row = the negative-rhs row whose
  // basic variable has the smallest index; entering column = among
  // the row's negative entries, the smallest index minimizing
  // reduced_j / -a_rj, which keeps every reduced cost nonnegative. A
  // row with a negative rhs and no negative entry proves infeasibility
  // outright; dropped artificials have no entries, so they never enter.
  // The pivot valve bounds degenerate chains (possible only if the
  // parent basis was not dual feasible, a cannot-happen path handled
  // defensively): the caller falls back to a cold solve.
  // Observes the same deadline/fault contract as Optimize; when either
  // out-flag is set the status carries no verdict.
  DualStatus DualReoptimize(Workspace* workspace, int64_t* pivots,
                            const Deadline& deadline, bool* deadline_exceeded,
                            bool* resource_exhausted) {
    PeriodicDeadlineCheck check(deadline, /*stride=*/16);
    const int64_t valve = 32 + static_cast<int64_t>(num_rows_) + num_cols_;
    int64_t steps = 0;
    while (true) {
      if (check.Expired()) {
        *deadline_exceeded = true;
        return DualStatus::kPrimalFeasible;
      }
      if (FaultInjector::ShouldFail("solver_pivot")) {
        *resource_exhausted = true;
        return DualStatus::kPrimalFeasible;
      }
      int leaving = -1;
      for (int i = 0; i < num_rows_; ++i) {
        if (rhs_[i].is_negative() &&
            (leaving < 0 || basis_[i] < basis_[leaving])) {
          leaving = i;
        }
      }
      if (leaving < 0) return DualStatus::kPrimalFeasible;
      if (steps >= valve) return DualStatus::kGaveUp;
      int entering = -1;
      std::optional<TwoTierRational> best_ratio;
      // Rows are sorted by column, so the strict `<` keeps the
      // smallest column on ties (Bland).
      for (const Cell& cell : rows_[leaving]) {
        if (cell.second.sign() >= 0) continue;
        TwoTierRational ratio = reduced_[cell.first];
        TwoTierRational denominator = cell.second;
        denominator.Negate();
        ratio /= denominator;
        if (entering < 0 || ratio.Compare(*best_ratio) < 0) {
          entering = cell.first;
          best_ratio = std::move(ratio);
        }
      }
      if (entering < 0) return DualStatus::kInfeasible;
      GatherColumn(entering, workspace);
      Pivot(leaving, entering, workspace);
      ++*pivots;
      ++steps;
    }
  }

 private:
  // First cell at or after column `col` (rows are sorted by column).
  template <typename Row>
  static auto LowerBound(Row& row, int col) {
    return std::lower_bound(
        row.begin(), row.end(), col,
        [](const Cell& cell, int c) { return cell.first < c; });
  }

  // Binary search for a column's cell; nullptr when structurally zero.
  static const TwoTierRational* Find(const SparseRow& row, int col) {
    auto it = LowerBound(row, col);
    if (it == row.end() || it->first != col) return nullptr;
    return &it->second;
  }

  // Collects the rows with a nonzero cell in column `col`, with that
  // cell's position, into workspace->column.
  void GatherColumn(int col, Workspace* workspace) const {
    workspace->column.clear();
    for (int i = 0; i < num_rows_; ++i) {
      auto it = LowerBound(rows_[i], col);
      if (it != rows_[i].end() && it->first == col && !it->second.is_zero()) {
        workspace->column.emplace_back(
            i, static_cast<int>(it - rows_[i].begin()));
      }
    }
  }

  // target -= factor * src, as one sorted merge walk into `merged`,
  // which then swaps with the target: the buffers circulate between
  // rows instead of being allocated per update. Exact cancellations are
  // dropped, so fill-in only happens where the combined entry is
  // genuinely nonzero.
  static void RowSubMul(SparseRow* target, const TwoTierRational& factor,
                        const SparseRow& src, SparseRow* merged) {
    merged->clear();
    merged->reserve(target->size() + src.size());
    auto t = target->begin();
    auto s = src.begin();
    while (t != target->end() || s != src.end()) {
      if (s == src.end() || (t != target->end() && t->first < s->first)) {
        merged->push_back(std::move(*t));
        ++t;
      } else if (t == target->end() || s->first < t->first) {
        // 0 - factor*src: the product of nonzero rationals is nonzero.
        TwoTierRational value;
        value.SubMul(factor, s->second);
        merged->emplace_back(s->first, std::move(value));
        ++s;
      } else {
        t->second.SubMul(factor, s->second);
        if (!t->second.is_zero()) merged->push_back(std::move(*t));
        ++t;
        ++s;
      }
    }
    target->swap(*merged);
  }

  // Requires workspace->column gathered for `pivot_col`.
  void Pivot(int pivot_row, int pivot_col, Workspace* workspace) {
    SparseRow& prow = rows_[pivot_row];
    const int leaving = basis_[pivot_row];
    if (leaving >= artificial_base_ && leaving < artificial_end_) {
      // Drop the leaving artificial: as a basic column its only cell is
      // its own unit entry here, so erasing that cell before the
      // elimination keeps the column empty for good. Its reduced cost
      // (zero while basic) must stay zero: an empty column with a
      // negative cost would stop Bland's scan at the no-leaving-row
      // break and report a false optimum.
      auto cell = LowerBound(prow, leaving);
      if (cell != prow.end() && cell->first == leaving) prow.erase(cell);
      reduced_[leaving] = TwoTierRational();
    }
    // Normalize the pivot row (copy the pivot value first: the loop
    // divides it by itself in place).
    TwoTierRational pivot_value = *Find(prow, pivot_col);
    for (Cell& cell : prow) cell.second /= pivot_value;
    rhs_[pivot_row] /= pivot_value;
    // Eliminate the pivot column from the other rows.
    for (const auto& [i, position] : workspace->column) {
      if (i == pivot_row) continue;
      // Copy: RowSubMul rebuilds the row the factor points into.
      TwoTierRational factor = rows_[i][position].second;
      RowSubMul(&rows_[i], factor, prow, &workspace->merged);
      rhs_[i].SubMul(factor, rhs_[pivot_row]);
    }
    // Reduced-cost row: same elimination against the dense cost row.
    if (!reduced_[pivot_col].is_zero()) {
      TwoTierRational factor = reduced_[pivot_col];
      for (const Cell& cell : prow) {
        reduced_[cell.first].SubMul(factor, cell.second);
      }
      // z_new = z_old + r_entering * t  (t = normalized pivot rhs).
      TwoTierRational delta = factor;
      delta *= rhs_[pivot_row];
      objective_ += delta;
    }
    basis_[pivot_row] = pivot_col;
  }

  int num_vars_;
  int num_rows_;
  int num_cols_ = 0;
  int slack_base_ = 0;
  // Artificials are [artificial_base_, artificial_end_), one per
  // original row; AppendRelaxedRow's slacks come after them.
  int artificial_base_ = 0;
  int artificial_end_ = 0;
  std::vector<SparseRow> rows_;
  std::vector<TwoTierRational> rhs_;
  std::vector<TwoTierRational> reduced_;
  TwoTierRational objective_;
  std::vector<int> basis_;
};

}  // namespace simplex_detail

// Definition of the header's opaque warm-state handle: a finished
// sparse tableau. ResolveLp copies it, or takes it when it holds the
// last reference.
struct SimplexWarmState {
  simplex_detail::SparseTableau tableau;
};

int64_t WarmStateBytes(const SimplexWarmState& state) {
  return state.tableau.ApproxBytes();
}

namespace {

using simplex_detail::SparseTableau;

// Shared solve driver: budget charge, optimize, counters.
template <typename TableauT>
SimplexResult RunWithTableau(int num_vars,
                             const std::vector<LinearConstraint>& constraints,
                             const Deadline& deadline,
                             const ResourceBudget* budget,
                             const SimplexOptions& options) {
  SimplexResult result;
  TableauT tableau(num_vars, constraints);
  trace::Count("simplex/nnz", tableau.Nonzeros());
  // Charge the tableau against the memory ceiling for the duration of
  // the solve; an over-budget tableau is abandoned without a verdict,
  // exactly like a deadline expiry.
  std::optional<ScopedMemoryCharge> charge;
  if (budget != nullptr) {
    charge.emplace(*budget, tableau.ApproxBytes(), "simplex/tableau");
    if (!charge->status().ok()) {
      result.resource_exhausted = true;
      result.note = charge->status().message();
      trace::Count("simplex/resource_exhausted");
      return result;
    }
  }
  if constexpr (std::is_same_v<TableauT, SparseTableau>) {
    SparseTableau::Workspace workspace;
    result.feasible = tableau.Optimize(&workspace, &result.pivots, deadline,
                                       &result.deadline_exceeded,
                                       &result.resource_exhausted);
  } else {
    result.feasible =
        tableau.Optimize(&result.pivots, deadline, &result.deadline_exceeded,
                         &result.resource_exhausted);
  }
  if (result.deadline_exceeded) {
    result.feasible = false;
    trace::Count("simplex/deadline_exceeded");
    return result;
  }
  if (result.resource_exhausted) {
    result.feasible = false;
    result.note = "injected fault at solver_pivot";
    trace::Count("simplex/resource_exhausted");
    return result;
  }
  if (result.feasible) result.solution = tableau.Solution();
  trace::Count("simplex/calls");
  trace::Count("simplex/pivots", result.pivots);
  if (!result.feasible) trace::Count("simplex/infeasible");
  if constexpr (std::is_same_v<TableauT, SparseTableau>) {
    if (result.feasible && options.export_warm_state) {
      result.warm_state = std::make_shared<SimplexWarmState>(
          SimplexWarmState{std::move(tableau)});
    }
  }
  return result;
}

// The child system's rows, base then extra: built only when a re-solve
// has to start cold.
SimplexResult SolveJoinedCold(int num_vars,
                              const std::vector<LinearConstraint>& base,
                              const std::vector<LinearConstraint>& extra,
                              const Deadline& deadline,
                              const ResourceBudget* budget,
                              const SimplexOptions& options) {
  std::vector<LinearConstraint> constraints;
  constraints.reserve(base.size() + extra.size());
  constraints.insert(constraints.end(), base.begin(), base.end());
  constraints.insert(constraints.end(), extra.begin(), extra.end());
  SimplexResult cold = SolveLp(num_vars, constraints, deadline, budget, options);
  cold.warm_fallback = true;
  trace::Count("simplex/warm_fallbacks");
  return cold;
}

}  // namespace

SimplexResult SolveLp(int num_vars,
                      const std::vector<LinearConstraint>& constraints,
                      const Deadline& deadline, const ResourceBudget* budget,
                      const SimplexOptions& options) {
  return RunWithTableau<SparseTableau>(num_vars, constraints, deadline, budget,
                                       options);
}

SimplexResult SolveLpDense(int num_vars,
                           const std::vector<LinearConstraint>& constraints) {
  return RunWithTableau<DenseTableau>(num_vars, constraints, Deadline(),
                                      /*budget=*/nullptr, SimplexOptions{});
}

SimplexResult ResolveLp(std::shared_ptr<SimplexWarmState> parent,
                        const std::vector<LinearConstraint>& base,
                        const std::vector<LinearConstraint>& extra, int delta,
                        int num_vars, const Deadline& deadline,
                        const ResourceBudget* budget,
                        const SimplexOptions& options) {
  bool warm_eligible =
      parent != nullptr && delta > 0 && delta <= static_cast<int>(extra.size());
  if (warm_eligible) {
    for (size_t i = extra.size() - delta; i < extra.size(); ++i) {
      if (extra[i].relation == Relation::kEq) {
        warm_eligible = false;
        break;
      }
    }
  }
  if (!warm_eligible) {
    return SolveJoinedCold(num_vars, base, extra, deadline, budget, options);
  }

  trace::Count("simplex/warm_calls");
  SimplexResult result;
  int64_t warm_pivots = 0;
  {
    // The last reference takes the parent's tableau; any other copies
    // it, leaving the snapshot to its remaining holders.
    SparseTableau tableau = parent.use_count() == 1
                                ? std::move(parent->tableau)
                                : SparseTableau(parent->tableau);
    parent.reset();
    SparseTableau::Workspace workspace;
    for (size_t i = extra.size() - delta; i < extra.size(); ++i) {
      tableau.AppendRelaxedRow(extra[i], &workspace);
    }
    std::optional<ScopedMemoryCharge> charge;
    if (budget != nullptr) {
      charge.emplace(*budget, tableau.ApproxBytes(), "simplex/tableau");
      if (!charge->status().ok()) {
        result.resource_exhausted = true;
        result.note = charge->status().message();
        trace::Count("simplex/resource_exhausted");
        return result;
      }
    }
    SparseTableau::DualStatus dual = tableau.DualReoptimize(
        &workspace, &result.pivots, deadline, &result.deadline_exceeded,
        &result.resource_exhausted);
    trace::Count("simplex/dual_pivots", result.pivots);
    if (result.deadline_exceeded) {
      trace::Count("simplex/deadline_exceeded");
      return result;
    }
    if (result.resource_exhausted) {
      result.note = "injected fault at solver_pivot";
      trace::Count("simplex/resource_exhausted");
      return result;
    }
    if (dual != SparseTableau::DualStatus::kGaveUp) {
      if (dual == SparseTableau::DualStatus::kInfeasible) {
        result.feasible = false;
      } else {
        // Primal epilogue from the restored feasible basis. Normally
        // every reduced cost is already nonnegative and this is a
        // single optimality scan deciding objective == 0; it only
        // pivots further on the defensive not-dual-feasible path.
        result.feasible =
            tableau.Optimize(&workspace, &result.pivots, deadline,
                             &result.deadline_exceeded,
                             &result.resource_exhausted);
        if (result.deadline_exceeded) {
          result.feasible = false;
          trace::Count("simplex/deadline_exceeded");
          return result;
        }
        if (result.resource_exhausted) {
          result.feasible = false;
          result.note = "injected fault at solver_pivot";
          trace::Count("simplex/resource_exhausted");
          return result;
        }
        if (result.feasible) result.solution = tableau.Solution();
      }
      result.warm_used = true;
      trace::Count("simplex/calls");
      trace::Count("simplex/pivots", result.pivots);
      if (!result.feasible) trace::Count("simplex/infeasible");
      if (result.feasible && options.export_warm_state) {
        result.warm_state = std::make_shared<SimplexWarmState>(
            SimplexWarmState{std::move(tableau)});
      }
      return result;
    }
    warm_pivots = result.pivots;
  }
  // Pivot valve tripped: the dual chain degenerated (only reachable
  // when the parent basis was not dual feasible). Re-solve cold; the
  // wasted dual pivots stay in the count.
  SimplexResult cold =
      SolveJoinedCold(num_vars, base, extra, deadline, budget, options);
  cold.pivots += warm_pivots;
  return cold;
}

}  // namespace xmlverify
