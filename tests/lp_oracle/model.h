#pragma once
// Small (I)LP modeling API — a generic test oracle, not part of the library.
//
// The paper formulates area recovery and timing optimization as ILPs solved
// with GLPK; the library solves them with the dedicated MCKP solver
// (src/ilp/mckp.h). This generic path — variables, linear constraints and an
// objective, backed by a dense two-phase simplex (simplex.h) and a
// branch-and-bound (branch_and_bound.h) — is kept under tests/ as a second,
// independent oracle for that solver.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace ermes::lp_oracle {

using VarId = std::int32_t;

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

struct LinearTerm {
  VarId var;
  double coeff;
};
using LinearExpr = std::vector<LinearTerm>;

enum class Sense { kLe, kGe, kEq };

class Model {
 public:
  /// Adds a continuous variable with bounds [lo, hi].
  VarId add_continuous(std::string name, double lo = 0.0,
                       double hi = kInfinity);

  /// Adds a binary (0/1 integer) variable.
  VarId add_binary(std::string name);

  /// Adds an integer variable with bounds [lo, hi].
  VarId add_integer(std::string name, double lo, double hi);

  /// Adds the constraint expr (sense) rhs. Terms with the same variable are
  /// accumulated.
  void add_constraint(LinearExpr expr, Sense sense, double rhs,
                      std::string name = "");

  /// Sets the objective. maximize=false minimizes.
  void set_objective(LinearExpr expr, bool maximize);

  std::int32_t num_vars() const { return static_cast<std::int32_t>(vars_.size()); }
  std::int32_t num_constraints() const {
    return static_cast<std::int32_t>(rows_.size());
  }

  struct Variable {
    std::string name;
    double lo = 0.0;
    double hi = kInfinity;
    bool is_integer = false;
  };
  struct Constraint {
    std::string name;
    LinearExpr expr;  // normalized: sorted by var, unique
    Sense sense = Sense::kLe;
    double rhs = 0.0;
  };

  const Variable& variable(VarId v) const {
    return vars_[static_cast<std::size_t>(v)];
  }
  Variable& variable(VarId v) { return vars_[static_cast<std::size_t>(v)]; }
  const Constraint& constraint(std::int32_t i) const {
    return rows_[static_cast<std::size_t>(i)];
  }
  const LinearExpr& objective() const { return objective_; }
  bool maximize() const { return maximize_; }

  /// Objective value of an assignment.
  double objective_value(const std::vector<double>& x) const;

  /// True iff `x` satisfies all constraints and bounds within `tol` (and
  /// integrality for integer variables).
  bool is_feasible(const std::vector<double>& x, double tol = 1e-6) const;

 private:
  std::vector<Variable> vars_;
  std::vector<Constraint> rows_;
  LinearExpr objective_;
  bool maximize_ = true;
};

enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kLimit };

struct Solution {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;
  bool optimal() const { return status == SolveStatus::kOptimal; }
};

/// Normalizes an expression: merges duplicate variables, drops zeros.
LinearExpr normalize(LinearExpr expr);

}  // namespace ermes::lp_oracle
