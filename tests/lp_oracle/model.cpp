#include "lp_oracle/model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ermes::lp_oracle {

LinearExpr normalize(LinearExpr expr) {
  std::sort(expr.begin(), expr.end(),
            [](const LinearTerm& a, const LinearTerm& b) {
              return a.var < b.var;
            });
  LinearExpr merged;
  for (const LinearTerm& term : expr) {
    if (!merged.empty() && merged.back().var == term.var) {
      merged.back().coeff += term.coeff;
    } else {
      merged.push_back(term);
    }
  }
  merged.erase(std::remove_if(merged.begin(), merged.end(),
                              [](const LinearTerm& t) {
                                return t.coeff == 0.0;
                              }),
               merged.end());
  return merged;
}

VarId Model::add_continuous(std::string name, double lo, double hi) {
  assert(lo <= hi);
  const VarId v = num_vars();
  vars_.push_back(Variable{std::move(name), lo, hi, false});
  return v;
}

VarId Model::add_binary(std::string name) {
  const VarId v = num_vars();
  vars_.push_back(Variable{std::move(name), 0.0, 1.0, true});
  return v;
}

VarId Model::add_integer(std::string name, double lo, double hi) {
  assert(lo <= hi);
  const VarId v = num_vars();
  vars_.push_back(Variable{std::move(name), lo, hi, true});
  return v;
}

void Model::add_constraint(LinearExpr expr, Sense sense, double rhs,
                           std::string name) {
  Constraint row;
  row.name = std::move(name);
  row.expr = normalize(std::move(expr));
  row.sense = sense;
  row.rhs = rhs;
  rows_.push_back(std::move(row));
}

void Model::set_objective(LinearExpr expr, bool maximize) {
  objective_ = normalize(std::move(expr));
  maximize_ = maximize;
}

double Model::objective_value(const std::vector<double>& x) const {
  double total = 0.0;
  for (const LinearTerm& term : objective_) {
    total += term.coeff * x[static_cast<std::size_t>(term.var)];
  }
  return total;
}

bool Model::is_feasible(const std::vector<double>& x, double tol) const {
  if (x.size() != vars_.size()) return false;
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    const Variable& var = vars_[i];
    if (x[i] < var.lo - tol || x[i] > var.hi + tol) return false;
    if (var.is_integer && std::abs(x[i] - std::round(x[i])) > tol) {
      return false;
    }
  }
  for (const Constraint& row : rows_) {
    double lhs = 0.0;
    for (const LinearTerm& term : row.expr) {
      lhs += term.coeff * x[static_cast<std::size_t>(term.var)];
    }
    switch (row.sense) {
      case Sense::kLe:
        if (lhs > row.rhs + tol) return false;
        break;
      case Sense::kGe:
        if (lhs < row.rhs - tol) return false;
        break;
      case Sense::kEq:
        if (std::abs(lhs - row.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

}  // namespace ermes::lp_oracle
