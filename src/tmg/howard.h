#pragma once
// Legacy Howard policy iteration for the maximum cycle ratio — a reference
// oracle; production solves go through tmg::CycleMeanSolver (tmg/csr.h).
//
// This is the straightforward Digraph-based form of the algorithm the paper
// adopts for the TMG cycle time (Cochet-Terrasson et al. 1998). It stays
// beside Karp, Lawler and brute-force enumeration so the differential tests
// can pin the CSR engine to it bit for bit: the engine promises the same
// ratio_num/ratio_den, the same critical cycle and the same double `ratio`.
// Only tests and benchmarks call it.
//
// Given a ratio graph (arc weight w, arc tokens tau), computes
//   lambda* = max over directed cycles c of W(c) / T(c)
// together with one critical cycle. A cycle with T(c) == 0 yields an
// infinite ratio (for TMGs this is exactly a deadlock; run the liveness
// check first for a structured diagnosis).
//
// Cycles never cross strongly connected components, so the global maximum is
// the fold (tmg::fold_cycle_ratio) of independent per-SCC maxima;
// max_cycle_ratio_howard_scc exposes one component's solve.

#include <vector>

#include "graph/digraph.h"
#include "tmg/cycle_ratio.h"

namespace ermes::tmg {

CycleRatioResult max_cycle_ratio_howard(const RatioGraph& rg);

/// Maximum cycle ratio restricted to one strongly connected component of
/// `rg`: the members of component `comp_id` per `component` (as produced by
/// graph::strongly_connected_components on rg.g). Only arcs internal to the
/// component are considered. Zero-token cycles inside the component yield an
/// infinite ratio. Trivial components (a single node) take a closed-form
/// fast path: no self-loop means no cycle; self-loops are compared exactly,
/// first-wins on ties — the same outcome policy iteration reaches, without
/// running it. (The fast path compares ratios exactly while the iterative
/// path tolerates 1e-9; with the integer weights/tokens of real models the
/// two never disagree.) `iterations`, when non-null, receives the number of
/// policy-improvement rounds (0 on the fast path).
/// `capped`, when non-null, receives true iff the defensive iteration cap
/// was exhausted before policy iteration converged (the result then reflects
/// the last evaluated policy and may be suboptimal; a warning is logged and
/// the howard.cap_hits counter bumped). The cap and its test override are
/// the engine's (tmg/csr.h), so capped solves stay bit-identical too.
CycleRatioResult max_cycle_ratio_howard_scc(
    const RatioGraph& rg, const std::vector<std::int32_t>& component,
    std::int32_t comp_id, const std::vector<graph::NodeId>& members,
    int* iterations = nullptr, bool* capped = nullptr);

}  // namespace ermes::tmg
