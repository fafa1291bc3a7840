#include "lp/simplex.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace flash {

namespace {

constexpr double kEps = 1e-9;

/// Dense simplex over the workspace's flat row-major tableau, with an
/// explicit basis. Row stride is cols + 1: the rhs lives in the last
/// column of each row. A thin view — all storage belongs to the workspace.
class Tableau {
 public:
  Tableau(double* a, std::size_t* basis, std::size_t rows, std::size_t cols)
      : a_(a), basis_(basis), rows_(rows), cols_(cols), stride_(cols + 1) {}

  double& at(std::size_t r, std::size_t c) { return a_[r * stride_ + c]; }
  double& rhs(std::size_t r) { return a_[r * stride_ + cols_]; }
  std::size_t basis(std::size_t r) const { return basis_[r]; }
  void set_basis(std::size_t r, std::size_t var) { basis_[r] = var; }

  /// Gauss pivot on (pr, pc): pc's variable enters the basis at row pr.
  void pivot(std::size_t pr, std::size_t pc, double* z, double& z_value) {
    double* prow = a_ + pr * stride_;
    const double p = prow[pc];
    assert(std::abs(p) > kEps);
    for (std::size_t c = 0; c < stride_; ++c) prow[c] /= p;
    for (std::size_t r = 0; r < rows_; ++r) {
      if (r == pr) continue;
      double* row = a_ + r * stride_;
      const double factor = row[pc];
      if (std::abs(factor) < kEps) continue;
      for (std::size_t c = 0; c < stride_; ++c) {
        row[c] -= factor * prow[c];
      }
      row[pc] = 0;  // exact zero against drift
    }
    const double zf = z[pc];
    if (std::abs(zf) > 0) {
      for (std::size_t c = 0; c < cols_; ++c) z[c] -= zf * prow[c];
      z_value -= zf * prow[cols_];
      z[pc] = 0;
    }
    basis_[pr] = pc;
  }

  /// Runs simplex iterations on reduced-cost row z until optimal or
  /// unbounded. Bland's rule: entering = smallest index with z < -eps;
  /// leaving = min ratio, ties by smallest basic variable index.
  /// Returns false on unboundedness.
  bool iterate(double* z, double& z_value, const char* allowed) {
    while (true) {
      std::size_t entering = cols_;
      for (std::size_t c = 0; c < cols_; ++c) {
        if (allowed[c] && z[c] < -kEps) {
          entering = c;
          break;
        }
      }
      if (entering == cols_) return true;  // optimal

      std::size_t leaving = rows_;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < rows_; ++r) {
        const double* row = a_ + r * stride_;
        if (row[entering] > kEps) {
          const double ratio = row[cols_] / row[entering];
          if (ratio < best_ratio - kEps ||
              (ratio < best_ratio + kEps &&
               (leaving == rows_ || basis_[r] < basis_[leaving]))) {
            best_ratio = ratio;
            leaving = r;
          }
        }
      }
      if (leaving == rows_) return false;  // unbounded
      pivot(leaving, entering, z, z_value);
    }
  }

 private:
  double* a_;
  std::size_t* basis_;
  std::size_t rows_;
  std::size_t cols_;
  std::size_t stride_;
};

}  // namespace

void solve_lp_core(LpWorkspace& ws) {
  const std::size_t n = ws.num_vars_;
  const std::size_t m = ws.num_cons_;
  ws.status = LpStatus::kInfeasible;
  ws.objective_value = 0;

  // Column layout: [0, n) structural, then one slack/surplus per inequality,
  // then one artificial per constraint that needs one.
  std::size_t num_slack = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (ws.constraint_rel(i) != Relation::kEq) ++num_slack;
  }

  // First pass to count artificials: a >= or == row always gets one; a <=
  // row gets one only if its (sign-normalized) rhs is negative, i.e. the
  // slack cannot serve as the initial basic variable.
  ws.row_sign_.assign(m, 1.0);
  ws.needs_artificial_.assign(m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    Relation rel = ws.constraint_rel(i);
    double rhs = ws.rhs_[i];
    if (rhs < 0) {
      ws.row_sign_[i] = -1.0;
      rhs = -rhs;
      if (rel == Relation::kLessEq) {
        rel = Relation::kGreaterEq;
      } else if (rel == Relation::kGreaterEq) {
        rel = Relation::kLessEq;
      }
    }
    ws.needs_artificial_[i] = (rel != Relation::kLessEq) ? 1 : 0;
  }
  std::size_t num_artificial = 0;
  for (std::size_t i = 0; i < m; ++i) num_artificial += ws.needs_artificial_[i];

  const std::size_t total = n + num_slack + num_artificial;
  ws.tableau_.assign(m * (total + 1), 0.0);
  ws.basis_.assign(m, 0);
  ws.artificial_.assign(total, 0);
  Tableau t(ws.tableau_.data(), ws.basis_.data(), m, total);

  std::size_t slack_col = n;
  std::size_t art_col = n + num_slack;
  for (std::size_t i = 0; i < m; ++i) {
    const double* coeffs = ws.constraint_coeffs(i);
    const double sign = ws.row_sign_[i];
    for (std::size_t j = 0; j < n; ++j) {
      t.at(i, j) = sign * coeffs[j];
    }
    t.rhs(i) = sign * ws.rhs_[i];

    Relation rel = ws.constraint_rel(i);
    if (sign < 0) {
      if (rel == Relation::kLessEq) {
        rel = Relation::kGreaterEq;
      } else if (rel == Relation::kGreaterEq) {
        rel = Relation::kLessEq;
      }
    }
    if (rel == Relation::kLessEq) {
      t.at(i, slack_col) = 1.0;
      t.set_basis(i, slack_col);
      ++slack_col;
    } else if (rel == Relation::kGreaterEq) {
      t.at(i, slack_col) = -1.0;  // surplus
      ++slack_col;
      t.at(i, art_col) = 1.0;
      t.set_basis(i, art_col);
      ws.artificial_[art_col] = 1;
      ++art_col;
    } else {  // equality
      t.at(i, art_col) = 1.0;
      t.set_basis(i, art_col);
      ws.artificial_[art_col] = 1;
      ++art_col;
    }
  }

  ws.allowed_.assign(total, 1);

  // ---- Phase 1: minimize the sum of artificials. ----
  if (num_artificial > 0) {
    ws.z_.assign(total, 0.0);
    double z1_value = 0.0;
    for (std::size_t c = n + num_slack; c < total; ++c) ws.z_[c] = 1.0;
    // Reduce: subtract rows whose basis is artificial.
    for (std::size_t r = 0; r < m; ++r) {
      if (ws.artificial_[t.basis(r)]) {
        for (std::size_t c = 0; c < total; ++c) ws.z_[c] -= t.at(r, c);
        z1_value -= t.rhs(r);
      }
    }
    if (!t.iterate(ws.z_.data(), z1_value, ws.allowed_.data())) {
      // Phase-1 objective is bounded below by 0; unbounded means a bug.
      ws.status = LpStatus::kInfeasible;
      return;
    }
    if (-z1_value > 1e-7) {  // minimized sum of artificials is -z1_value
      ws.status = LpStatus::kInfeasible;
      return;
    }
    // Drive any degenerate basic artificial out of the basis. The dummy
    // reduced-cost row stays all-zero through every such pivot (zf == 0),
    // so it is cleared once, not per pivot.
    ws.z_dummy_.assign(total, 0.0);
    double dummy = 0.0;
    for (std::size_t r = 0; r < m; ++r) {
      if (!ws.artificial_[t.basis(r)]) continue;
      std::size_t pc = total;
      for (std::size_t c = 0; c < n + num_slack; ++c) {
        if (std::abs(t.at(r, c)) > kEps) {
          pc = c;
          break;
        }
      }
      if (pc != total) {
        t.pivot(r, pc, ws.z_dummy_.data(), dummy);
      }
      // If the whole row is zero the constraint is redundant; the
      // artificial stays basic at value 0, which is harmless as long as it
      // cannot re-enter (disallowed below).
    }
    for (std::size_t c = n + num_slack; c < total; ++c) ws.allowed_[c] = 0;
  }

  // ---- Phase 2: minimize the real objective. ----
  ws.z_.assign(total, 0.0);
  double z2_value = 0.0;
  for (std::size_t j = 0; j < n; ++j) ws.z_[j] = ws.objective[j];
  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t b = t.basis(r);
    if (b < total && std::abs(ws.z_[b]) > 0) {
      const double factor = ws.z_[b];
      for (std::size_t c = 0; c < total; ++c) ws.z_[c] -= factor * t.at(r, c);
      z2_value -= factor * t.rhs(r);
      ws.z_[b] = 0;
    }
  }
  if (!t.iterate(ws.z_.data(), z2_value, ws.allowed_.data())) {
    ws.status = LpStatus::kUnbounded;
    return;
  }

  ws.status = LpStatus::kOptimal;
  ws.x.assign(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t b = t.basis(r);
    if (b < n) ws.x[b] = std::max(0.0, t.rhs(r));
  }
  // Recompute the objective from x to shed accumulated pivot drift.
  double direct = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    direct += ws.objective[j] * ws.x[j];
  }
  ws.objective_value = direct;
}

}  // namespace flash
