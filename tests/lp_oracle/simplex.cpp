#include "lp_oracle/simplex.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/log.h"

namespace ermes::lp_oracle {

namespace {

constexpr double kTol = 1e-9;

// Dense tableau simplex, standard form: min c'x s.t. Ax = b, x >= 0, b >= 0.
class Tableau {
 public:
  Tableau(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), a_(rows, std::vector<double>(cols, 0.0)),
        b_(rows, 0.0), c_(cols, 0.0), basis_(rows, 0) {}

  std::size_t rows_, cols_;
  std::vector<std::vector<double>> a_;  // constraint matrix (public-ish)
  std::vector<double> b_;
  std::vector<double> c_;
  std::vector<std::size_t> basis_;

  // Runs simplex iterations on the current (feasible) basis minimizing c.
  // Returns false on unboundedness.
  bool optimize() {
    // Reduced costs maintained implicitly: z_j - c_j computed per iteration
    // from the basis (dense; fine at our sizes).
    for (std::size_t iter = 0; iter < 50000; ++iter) {
      // Compute duals y = c_B * B^-1 implicitly: with an explicit tableau we
      // instead keep the tableau fully reduced, so the reduced costs are in
      // row zero. We maintain `red_` as the reduced-cost row.
      std::size_t entering = cols_;
      for (std::size_t j = 0; j < cols_; ++j) {
        if (red_[j] < -kTol) {  // Bland: first improving column
          entering = j;
          break;
        }
      }
      if (entering == cols_) return true;  // optimal
      // Ratio test (Bland: smallest basis index among ties).
      std::size_t leaving = rows_;
      double best_ratio = 0.0;
      for (std::size_t i = 0; i < rows_; ++i) {
        if (a_[i][entering] > kTol) {
          const double ratio = b_[i] / a_[i][entering];
          if (leaving == rows_ || ratio < best_ratio - kTol ||
              (std::abs(ratio - best_ratio) <= kTol &&
               basis_[i] < basis_[leaving])) {
            leaving = i;
            best_ratio = ratio;
          }
        }
      }
      if (leaving == rows_) return false;  // unbounded
      pivot(leaving, entering);
    }
    ERMES_LOG(kWarn) << "simplex: iteration limit reached";
    return true;
  }

  void compute_reduced_costs() {
    red_ = c_;
    obj_ = 0.0;
    for (std::size_t i = 0; i < rows_; ++i) {
      const double cb = c_[basis_[i]];
      if (cb == 0.0) continue;
      for (std::size_t j = 0; j < cols_; ++j) {
        red_[j] -= cb * a_[i][j];
      }
      obj_ += cb * b_[i];
    }
  }

  void pivot(std::size_t row, std::size_t col) {
    const double pivot_val = a_[row][col];
    assert(std::abs(pivot_val) > kTol);
    const double inv = 1.0 / pivot_val;
    for (std::size_t j = 0; j < cols_; ++j) a_[row][j] *= inv;
    b_[row] *= inv;
    a_[row][col] = 1.0;  // fight rounding
    for (std::size_t i = 0; i < rows_; ++i) {
      if (i == row) continue;
      const double factor = a_[i][col];
      if (factor == 0.0) continue;
      for (std::size_t j = 0; j < cols_; ++j) {
        a_[i][j] -= factor * a_[row][j];
      }
      a_[i][col] = 0.0;
      b_[i] -= factor * b_[row];
    }
    const double rfactor = red_[col];
    if (rfactor != 0.0) {
      for (std::size_t j = 0; j < cols_; ++j) {
        red_[j] -= rfactor * a_[row][j];
      }
      red_[col] = 0.0;
      obj_ += rfactor * b_[row];  // note: obj_ tracks -z for min problems
    }
    basis_[row] = col;
  }

  double objective() const {
    double z = 0.0;
    for (std::size_t i = 0; i < rows_; ++i) z += c_[basis_[i]] * b_[i];
    return z;
  }

  std::vector<double> solution(std::size_t n) const {
    std::vector<double> x(n, 0.0);
    for (std::size_t i = 0; i < rows_; ++i) {
      if (basis_[i] < n) x[basis_[i]] = b_[i];
    }
    return x;
  }

  std::vector<double> red_;
  double obj_ = 0.0;
};


}  // namespace

Solution solve_lp(const Model& model, const std::vector<double>& lo_override,
                  const std::vector<double>& hi_override) {
  const auto n = static_cast<std::size_t>(model.num_vars());
  std::vector<double> lo(n), hi(n);
  for (std::size_t v = 0; v < n; ++v) {
    lo[v] = lo_override.empty() ? model.variable(static_cast<VarId>(v)).lo
                                : lo_override[v];
    hi[v] = hi_override.empty() ? model.variable(static_cast<VarId>(v)).hi
                                : hi_override[v];
    if (lo[v] > hi[v] + kTol) {
      return Solution{SolveStatus::kInfeasible, 0.0, {}};
    }
  }

  // Assemble rows: model constraints with shifted variables, plus upper
  // bounds as explicit <= rows.
  struct Row {
    std::vector<double> coeffs;  // dense over structural variables
    Sense sense;
    double rhs;
  };
  std::vector<Row> rows;
  for (std::int32_t i = 0; i < model.num_constraints(); ++i) {
    const Model::Constraint& src = model.constraint(i);
    Row row;
    row.coeffs.assign(n, 0.0);
    row.sense = src.sense;
    row.rhs = src.rhs;
    for (const LinearTerm& term : src.expr) {
      const auto v = static_cast<std::size_t>(term.var);
      row.coeffs[v] += term.coeff;
      row.rhs -= term.coeff * lo[v];  // shift x = lo + x'
    }
    rows.push_back(std::move(row));
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (hi[v] != kInfinity) {
      Row row;
      row.coeffs.assign(n, 0.0);
      row.coeffs[v] = 1.0;
      row.sense = Sense::kLe;
      row.rhs = hi[v] - lo[v];
      rows.push_back(std::move(row));
    }
  }

  const std::size_t m = rows.size();
  // Columns: n structural + one slack/surplus per inequality + one
  // artificial per row that needs it.
  std::size_t num_slack = 0;
  for (const Row& row : rows) {
    if (row.sense != Sense::kEq) ++num_slack;
  }
  // We decide artificials after normalizing rhs signs.
  std::vector<int> slack_col(m, -1);
  std::vector<int> art_col(m, -1);
  std::size_t col = n;
  // First pass: assign slack columns.
  std::vector<Row> norm = rows;
  for (std::size_t i = 0; i < m; ++i) {
    if (norm[i].sense != Sense::kEq) {
      slack_col[i] = static_cast<int>(col++);
    }
  }
  // Normalize rhs >= 0 (after adding slack semantics below we handle signs
  // during assembly).
  std::size_t num_art = 0;
  for (std::size_t i = 0; i < m; ++i) {
    // slack sign: Le -> +1, Ge -> -1.
    double slack_sign = norm[i].sense == Sense::kLe ? 1.0 :
                        (norm[i].sense == Sense::kGe ? -1.0 : 0.0);
    bool negate = norm[i].rhs < 0.0;
    if (negate) {
      for (double& cf : norm[i].coeffs) cf = -cf;
      norm[i].rhs = -norm[i].rhs;
      slack_sign = -slack_sign;
    }
    // Need an artificial unless the slack enters with +1 (then it can start
    // basic at rhs >= 0).
    const bool slack_basic = slack_col[i] >= 0 && slack_sign > 0.0;
    if (!slack_basic) ++num_art;
    norm[i].coeffs.push_back(0.0);  // placeholder to remember slack sign via
    norm[i].coeffs.back() = slack_sign;  // stored at position n (virtual)
    (void)negate;
  }
  const std::size_t total_cols = n + num_slack + num_art;
  Tableau tab(m, total_cols);
  std::size_t next_art = n + num_slack;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t v = 0; v < n; ++v) tab.a_[i][v] = norm[i].coeffs[v];
    tab.b_[i] = norm[i].rhs;
    const double slack_sign = norm[i].coeffs[n];
    bool basic_set = false;
    if (slack_col[i] >= 0) {
      tab.a_[i][static_cast<std::size_t>(slack_col[i])] = slack_sign;
      if (slack_sign > 0.0) {
        tab.basis_[i] = static_cast<std::size_t>(slack_col[i]);
        basic_set = true;
      }
    }
    if (!basic_set) {
      art_col[i] = static_cast<int>(next_art);
      tab.a_[i][next_art] = 1.0;
      tab.basis_[i] = next_art;
      ++next_art;
    }
  }

  // Phase 1: minimize sum of artificials.
  if (num_art > 0) {
    for (std::size_t j = n + num_slack; j < total_cols; ++j) tab.c_[j] = 1.0;
    tab.compute_reduced_costs();
    if (!tab.optimize()) {
      return Solution{SolveStatus::kInfeasible, 0.0, {}};  // cannot happen
    }
    if (tab.objective() > 1e-7) {
      return Solution{SolveStatus::kInfeasible, 0.0, {}};
    }
    // Drive any artificial still in the basis out (degenerate rows).
    for (std::size_t i = 0; i < m; ++i) {
      if (tab.basis_[i] >= n + num_slack) {
        bool pivoted = false;
        for (std::size_t j = 0; j < n + num_slack && !pivoted; ++j) {
          if (std::abs(tab.a_[i][j]) > 1e-7) {
            tab.compute_reduced_costs();
            tab.pivot(i, j);
            pivoted = true;
          }
        }
        // If the row is entirely zero the constraint was redundant; the
        // artificial stays basic at value 0, which is harmless as long as it
        // never re-enters (phase-2 cost keeps it at zero).
      }
    }
  }

  // Phase 2: real objective over structural variables (min form).
  std::fill(tab.c_.begin(), tab.c_.end(), 0.0);
  const double sign = model.maximize() ? -1.0 : 1.0;
  for (const LinearTerm& term : model.objective()) {
    tab.c_[static_cast<std::size_t>(term.var)] = sign * term.coeff;
  }
  // Forbid artificials from re-entering.
  for (std::size_t j = n + num_slack; j < total_cols; ++j) tab.c_[j] = 1e12;
  tab.compute_reduced_costs();
  if (!tab.optimize()) {
    return Solution{SolveStatus::kUnbounded, 0.0, {}};
  }

  Solution sol;
  sol.status = SolveStatus::kOptimal;
  sol.values = tab.solution(n);
  for (std::size_t v = 0; v < n; ++v) sol.values[v] += lo[v];  // unshift
  sol.objective = model.objective_value(sol.values);
  return sol;
}

}  // namespace ermes::lp_oracle
