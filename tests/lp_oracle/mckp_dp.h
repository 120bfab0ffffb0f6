#pragma once
// Exact dynamic program for the Multiple-Choice Knapsack (ilp/mckp.h) over
// integer weights — a test oracle for the library's branch-and-bound
// ilp::solve_mckp, not part of the library. O(sum(items) * weight-range).

#include "ilp/mckp.h"

namespace ermes::ilp {

/// Exact DP; requires integer weights (asserted). Negative weights are
/// handled by per-group shifting. Reports its exact optimum as `bound`.
MckpSolution solve_mckp_dp(const MckpProblem& problem);

/// DP core for non-negative integer weights; exposed for tests.
MckpSolution solve_mckp_dp_nonneg(const MckpProblem& problem);

}  // namespace ermes::ilp
