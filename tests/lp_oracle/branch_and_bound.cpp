#include "lp_oracle/branch_and_bound.h"

#include <cmath>
#include <vector>

#include "lp_oracle/simplex.h"

namespace ermes::lp_oracle {

namespace {

struct Node {
  std::vector<double> lo;
  std::vector<double> hi;
};

}  // namespace

Solution solve_ilp(const Model& model, const BnbOptions& options) {
  const auto n = static_cast<std::size_t>(model.num_vars());
  Node root;
  root.lo.resize(n);
  root.hi.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    root.lo[v] = model.variable(static_cast<VarId>(v)).lo;
    root.hi[v] = model.variable(static_cast<VarId>(v)).hi;
  }

  Solution best;
  best.status = SolveStatus::kInfeasible;
  const double dir = model.maximize() ? 1.0 : -1.0;  // compare dir*obj

  std::vector<Node> stack{std::move(root)};
  std::int64_t nodes = 0;
  bool hit_limit = false;

  while (!stack.empty()) {
    if (++nodes > options.max_nodes) {
      hit_limit = true;
      break;
    }
    Node node = std::move(stack.back());
    stack.pop_back();

    const Solution relax = solve_lp(model, node.lo, node.hi);
    if (relax.status == SolveStatus::kUnbounded) {
      // An unbounded relaxation of a node with finite integer bounds means
      // continuous unboundedness: propagate.
      return Solution{SolveStatus::kUnbounded, 0.0, {}};
    }
    if (relax.status != SolveStatus::kOptimal) continue;
    if (best.status == SolveStatus::kOptimal &&
        dir * relax.objective <=
            dir * best.objective + options.bound_tol) {
      continue;  // bound cannot beat incumbent
    }

    // Find the most fractional integer variable.
    std::size_t branch_var = n;
    double worst_frac = options.integrality_tol;
    for (std::size_t v = 0; v < n; ++v) {
      if (!model.variable(static_cast<VarId>(v)).is_integer) continue;
      const double x = relax.values[v];
      const double frac = std::abs(x - std::round(x));
      if (frac > worst_frac) {
        // Prefer the variable closest to 0.5 fractionality.
        const double score = std::min(frac, 1.0 - frac);
        const double best_score =
            branch_var == n
                ? -1.0
                : std::min(std::abs(relax.values[branch_var] -
                                    std::round(relax.values[branch_var])),
                           1.0 - std::abs(relax.values[branch_var] -
                                          std::round(relax.values[branch_var])));
        if (score > best_score) branch_var = v;
      }
    }
    if (branch_var == n) {
      // Integral: candidate incumbent.
      if (best.status != SolveStatus::kOptimal ||
          dir * relax.objective > dir * best.objective) {
        best = relax;
        // Round integer variables exactly.
        for (std::size_t v = 0; v < n; ++v) {
          if (model.variable(static_cast<VarId>(v)).is_integer) {
            best.values[v] = std::round(best.values[v]);
          }
        }
        best.objective = model.objective_value(best.values);
      }
      continue;
    }

    const double x = relax.values[branch_var];
    Node down = node;
    down.hi[branch_var] = std::floor(x);
    Node up = std::move(node);
    up.lo[branch_var] = std::ceil(x);
    // Explore the side closest to the relaxation first (pushed last).
    if (x - std::floor(x) > 0.5) {
      stack.push_back(std::move(down));
      stack.push_back(std::move(up));
    } else {
      stack.push_back(std::move(up));
      stack.push_back(std::move(down));
    }
  }

  if (hit_limit && best.status == SolveStatus::kOptimal) {
    best.status = SolveStatus::kLimit;
  }
  return best;
}

}  // namespace ermes::lp_oracle
