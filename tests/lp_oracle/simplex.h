#pragma once
// Dense two-phase primal simplex for the LP relaxation of a Model.
//
// Variables are shifted to x' = x - lo >= 0; finite upper bounds become
// explicit rows. Phase 1 minimizes the sum of artificial variables to find
// a basic feasible solution; phase 2 optimizes the real objective. Bland's
// rule is used to guarantee termination. A test oracle for small problems,
// not a general-purpose LP code.

#include <optional>
#include <vector>

#include "lp_oracle/model.h"

namespace ermes::lp_oracle {

/// Solves the LP relaxation of `model` (integrality dropped). When
/// `lo_override`/`hi_override` are non-empty they replace the variable
/// bounds (used by branch-and-bound to branch without copying the model).
Solution solve_lp(const Model& model,
                  const std::vector<double>& lo_override = {},
                  const std::vector<double>& hi_override = {});

}  // namespace ermes::lp_oracle
