#pragma once
// Branch-and-bound MILP solver on top of the simplex relaxation.
//
// Depth-first search branching on the most fractional integer variable;
// nodes are pruned when the LP bound cannot beat the incumbent. Exact for
// small problems; the tests use it to cross-check ilp::solve_mckp.

#include "lp_oracle/model.h"

namespace ermes::lp_oracle {

struct BnbOptions {
  std::int64_t max_nodes = 1'000'000;
  double integrality_tol = 1e-6;
  /// Gap used when pruning: a node survives only if its bound improves the
  /// incumbent by more than this.
  double bound_tol = 1e-9;
};

/// Solves the mixed-integer model exactly (up to tolerances). Status kLimit
/// means the node budget was exhausted (best incumbent returned if any).
Solution solve_ilp(const Model& model, const BnbOptions& options = {});

}  // namespace ermes::lp_oracle
