#pragma once
// Multiple-Choice Knapsack (MCKP): pick exactly one item per group,
// maximize total value subject to a weight capacity.
//
// Both ILP problems of Section 5 have this structure (groups = processes,
// items = Pareto implementations): area recovery maximizes cumulative area
// gain subject to the latency-slack budget on the critical cycle; timing
// optimization maximizes latency gain. The paper hands them to GLPK; here
// solve_mckp solves them exactly by a depth-first branch-and-bound
// specialised to MCKP. Groups whose items all share one weight are fixed up
// front to their first max-value item; every other node is bounded by the
// LP relaxation, i.e. greedy over the per-group upper convex hulls with
// segments sorted once by incremental efficiency (Sinha & Zoltners 1979;
// Pisinger 1995). The root LP rounded down is a feasible selection whose
// value seeds the pruning threshold. Groups are searched in order and items
// in index order, and a node is pruned when its bound is <= incumbent +
// 1e-9, so of several optima the lexicographically smallest choice vector is
// returned. Weights may be negative or fractional. Its test oracles (an
// integer DP and a generic simplex + branch-and-bound) live in
// tests/lp_oracle.
//
// A solution is feasible when its total weight is at most capacity + 1e-9.

#include <cstdint>
#include <limits>
#include <vector>

namespace ermes::ilp {

struct MckpItem {
  double value = 0.0;
  double weight = 0.0;
};

struct MckpProblem {
  std::vector<std::vector<MckpItem>> groups;  // pick exactly one per group
  double capacity = 0.0;                      // sum of weights <= capacity
};

enum class MckpStatus {
  kOptimal,     // choice is an optimum
  kInfeasible,  // no choice fits the capacity (or a group is empty)
  kLimit,       // node cap hit: choice is feasible but maybe not optimal
};

struct MckpSolution {
  MckpStatus status = MckpStatus::kInfeasible;
  /// Upper bound on the optimum from the root LP relaxation. -infinity when
  /// infeasible.
  double bound = -std::numeric_limits<double>::infinity();
  double value = 0.0;
  double weight = 0.0;
  std::vector<std::size_t> choice;  // item index per group
  /// True for optimal and limit results: `choice` is a usable selection.
  bool feasible() const { return status != MckpStatus::kInfeasible; }
};

/// Search-node cap of solve_mckp; the DSE problems stay far below it.
inline constexpr std::int64_t kMckpMaxNodes = 1'000'000;

/// Exact branch-and-bound (see above). When more than `max_nodes` nodes
/// would be searched, returns the best incumbent with status kLimit.
MckpSolution solve_mckp(const MckpProblem& problem,
                        std::int64_t max_nodes = kMckpMaxNodes);

}  // namespace ermes::ilp
