#pragma once
// Feeds a hand-built tmg::RatioGraph to the CSR engine, for tests that pin
// tmg::CycleMeanSolver to the oracles (tmg/howard.h, karp.h) on graphs whose
// arcs carry individual weights. The engine's one input is a MarkedGraph,
// whose places out of one transition all carry that transition's delay; a
// ratio graph may weigh them differently. So the helper compiles
// tmg::marked_graph_of(rg) (arc a becomes place a, same tokens, slots in
// Digraph::out_arcs order) and then patches every arc's weight in place.

#include "tmg/csr.h"
#include "tmg/cycle_ratio.h"

namespace ermes::tmg {

/// CycleMeanSolver::prepare on `rg`'s structure, then `rg`'s per-arc
/// weights. Returns prepare's warm/cold verdict.
inline bool prepare_ratio_graph(CycleMeanSolver& solver,
                                const RatioGraph& rg) {
  const bool warm = solver.prepare(marked_graph_of(rg));
  for (graph::ArcId a = 0; a < rg.g.num_arcs(); ++a) {
    solver.set_arc_weight(a, rg.arc_weight(a));
  }
  return warm;
}

/// prepare_ratio_graph + solve.
inline CycleRatioResult solve_ratio_graph(CycleMeanSolver& solver,
                                          const RatioGraph& rg) {
  prepare_ratio_graph(solver, rg);
  return solver.solve();
}

}  // namespace ermes::tmg
