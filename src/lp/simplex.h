// Dense two-phase simplex linear-program solver.
//
// Program (1) of the paper — split an elephant payment over the probed path
// set to minimize total fees — is a linear program when fees are linear
// (§3.2: "the fee charging function is typically linear ... which means (1)
// is a simple linear program"). Problems here are tiny (k <= ~30 variables,
// a few dozen constraints), so a dense tableau with Bland's anti-cycling
// rule is simple, exact enough, and fast.
//
// One entry point, solve_lp_core(LpWorkspace&): the caller emits the
// problem directly into a reusable workspace (flat row-major constraint
// buffer, no per-constraint vectors) and the solver runs in that same
// workspace: one flat tableau buffer, mask-based artificial-column
// tracking, zero steady-state heap allocations once the buffers have warmed
// up to the largest problem seen.
#pragma once

#include <cstddef>
#include <vector>

namespace flash {

enum class Relation { kLessEq, kEq, kGreaterEq };

enum class LpStatus { kOptimal, kInfeasible, kUnbounded };

/// Reusable workspace for the LP  minimize objective . x  subject to the
/// emitted constraints, x >= 0: problem input, solver scratch and solution
/// output in one allocation-retaining object.
///
/// Usage:
///   ws.reset(num_vars);
///   ws.objective[j] = ...;                 // length num_vars, zero-filled
///   double* row = ws.add_constraint(Relation::kEq, rhs);
///   row[j] = ...;                          // length num_vars, zero-filled
///   solve_lp_core(ws);
///   if (ws.status == LpStatus::kOptimal) use ws.x / ws.objective_value;
///
/// Constraint order is the emission order, and it matters: a degenerate LP
/// can have several optimal vertices and Bland's rule picks one as a
/// function of row/column order. Callers that need reproducible results
/// must emit constraints in a canonical order (see lp/fee_min.h).
///
/// Not thread-safe; same single-owner contract as GraphScratch. All
/// vectors keep their capacity across reset(), so a workspace reused at a
/// steady problem size performs no heap allocations.
class LpWorkspace {
 public:
  // --- Problem (caller-filled) ----------------------------------------
  std::vector<double> objective;     // length num_vars()

  /// Clears the problem to `num_vars` variables and no constraints.
  void reset(std::size_t num_vars) {
    num_vars_ = num_vars;
    objective.assign(num_vars, 0.0);
    num_cons_ = 0;
    coeffs_.clear();
    rel_.clear();
    rhs_.clear();
  }

  /// Appends a zero-filled constraint row; returns the row's coefficient
  /// buffer (length num_vars()). The pointer is invalidated by the next
  /// add_constraint call.
  double* add_constraint(Relation rel, double rhs) {
    coeffs_.resize(coeffs_.size() + num_vars_, 0.0);
    rel_.push_back(static_cast<char>(rel));
    rhs_.push_back(rhs);
    ++num_cons_;
    return coeffs_.data() + coeffs_.size() - num_vars_;
  }

  std::size_t num_vars() const noexcept { return num_vars_; }
  std::size_t num_constraints() const noexcept { return num_cons_; }
  const double* constraint_coeffs(std::size_t i) const {
    return coeffs_.data() + i * num_vars_;
  }
  Relation constraint_rel(std::size_t i) const {
    return static_cast<Relation>(rel_[i]);
  }
  double constraint_rhs(std::size_t i) const { return rhs_[i]; }

  // --- Solution (solver-filled) ---------------------------------------
  LpStatus status = LpStatus::kInfeasible;
  std::vector<double> x;             // length num_vars(), valid iff optimal
  double objective_value = 0;        // valid iff optimal

 private:
  friend void solve_lp_core(LpWorkspace& ws);

  std::size_t num_vars_ = 0;
  std::size_t num_cons_ = 0;
  std::vector<double> coeffs_;       // row-major, num_cons x num_vars
  std::vector<char> rel_;            // Relation per row
  std::vector<double> rhs_;          // per row

  // Solver scratch (see simplex.cc). Flat row-major tableau of
  // num_cons x (total_cols + 1) with the rhs in the last column.
  std::vector<double> tableau_;
  std::vector<std::size_t> basis_;   // basic variable per row
  std::vector<double> z_;            // reduced-cost row
  std::vector<double> z_dummy_;      // throwaway z for drive-out pivots
  std::vector<char> allowed_;        // per column: may enter the basis
  std::vector<char> artificial_;    // per column: is an artificial
  std::vector<double> row_sign_;     // per row: rhs sign normalization
  std::vector<char> needs_artificial_;  // per row
};

/// Solves the problem in `ws`, writing ws.status / ws.x /
/// ws.objective_value. Deterministic; terminates on all inputs (Bland's
/// rule); zero steady-state heap allocations.
void solve_lp_core(LpWorkspace& ws);

}  // namespace flash
