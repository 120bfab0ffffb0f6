#pragma once
// Common types for maximum-cycle-ratio computation.
//
// The cycle time of a strongly connected TMG (paper Definitions 2-3) is
//
//   pi(G) = max over cycles c of ( sum of transition delays on c )
//                                / ( number of initial tokens on c )
//
// i.e. the reciprocal of the minimum cycle mean mu(c) = M0(c) / D(c). We
// phrase all solvers as *maximum cycle ratio* problems on a "ratio graph":
// node = transition, arc = place, arc weight = delay of the producing
// transition (so a cycle's weight sum equals its transition delay sum), arc
// tokens = initial marking of the place.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graph/digraph.h"

namespace ermes::tmg {

class MarkedGraph;

struct RatioGraph {
  graph::Digraph g;
  std::vector<std::int64_t> weight;  // per arc
  std::vector<std::int64_t> tokens;  // per arc

  std::int64_t arc_weight(graph::ArcId a) const {
    return weight[static_cast<std::size_t>(a)];
  }
  std::int64_t arc_tokens(graph::ArcId a) const {
    return tokens[static_cast<std::size_t>(a)];
  }
};

/// Builds the ratio graph of a TMG. Arc ids equal PlaceIds.
RatioGraph to_ratio_graph(const MarkedGraph& tmg);

struct CycleRatioResult {
  /// True iff the graph contains at least one cycle with positive token count
  /// and no zero-token cycle was reachable in the arg-max (callers should
  /// check liveness separately; a zero-token cycle makes the ratio infinite).
  bool has_cycle = false;

  /// Maximum cycle ratio W(c)/T(c); for a TMG this is the cycle time pi(G).
  /// +infinity when a zero-token cycle exists.
  double ratio = 0.0;

  /// Exact rational value of the ratio (valid when finite).
  std::int64_t ratio_num = 0;  // W(c*) of the critical cycle
  std::int64_t ratio_den = 1;  // T(c*) of the critical cycle

  /// One critical cycle as a sequence of arcs (places) of the ratio graph.
  std::vector<graph::ArcId> critical_cycle;

  bool is_infinite() const {
    return has_cycle && ratio == std::numeric_limits<double>::infinity();
  }
};

/// Compares two exact ratios a_num/a_den vs b_num/b_den with non-negative
/// denominators (den == 0 means +infinity). Returns -1/0/+1.
int compare_ratios(std::int64_t a_num, std::int64_t a_den, std::int64_t b_num,
                   std::int64_t b_den);

/// Folds one strongly connected component's result into an accumulated
/// whole-graph result. Cycles never cross components, so the global maximum
/// is the fold of the per-component maxima: an infinite ratio dominates and
/// is never overwritten; otherwise the incoming result replaces the
/// accumulator iff it is strictly larger (ties keep the earlier component).
/// Every whole-graph solve folds in ascending component index.
void fold_cycle_ratio(const CycleRatioResult& scc, CycleRatioResult* out);

/// Finds a cycle whose arcs all carry zero tokens (a deadlock witness for
/// TMGs; makes the max ratio infinite). Returns true and fills `cycle` (if
/// non-null) when one exists. Runs the CSR search of tmg/csr.h on a
/// snapshot of `rg`.
bool find_zero_token_cycle(const RatioGraph& rg,
                           std::vector<graph::ArcId>* cycle);

}  // namespace ermes::tmg
