#pragma once
// Marked-graph liveness (deadlock) check.
//
// Classic result (Commoner et al. 1971, cited by the paper as [3]): a marked
// graph is live iff the token count of every directed cycle is positive, and
// the token count of a cycle is invariant under firing. Deadlock detection
// therefore reduces to finding a cycle among the zero-token places.
//
// check_liveness runs the one zero-token DFS (tmg::find_zero_token_cycle,
// tmg/csr.h) directly on the graph's flat out-place arrays; the CSR solver
// plan runs the same search, so CycleMeanSolver::dead_cycle() after
// prepare() is the same witness.

#include <optional>
#include <vector>

#include "tmg/marked_graph.h"

namespace ermes::tmg {

struct LivenessResult {
  bool live = false;
  /// When not live: a witness token-free cycle, as a sequence of places
  /// (each place's consumer is the next place's producer, cyclically).
  std::vector<PlaceId> dead_cycle;
};

LivenessResult check_liveness(const MarkedGraph& tmg);

/// Convenience wrapper.
inline bool is_live(const MarkedGraph& tmg) {
  return check_liveness(tmg).live;
}

}  // namespace ermes::tmg
