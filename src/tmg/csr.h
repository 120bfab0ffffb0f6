#pragma once
// Flat CSR cycle-mean engine: the one Howard implementation production runs.
//
// Every throughput query in the methodology loop bottoms out in a maximum
// cycle ratio solve (Howard's policy iteration, paper Section 3), and the
// DSE/sweep/serve/incremental layers issue thousands of them on graphs that
// differ only in transition delays. Each policy iteration is O(V+E) and few
// are needed in practice, which is what makes the methodology scale to the
// 10,000-process synthetic benchmarks of Section 6. The engine's one input is
// the TMG itself (tmg::MarkedGraph: node = transition, arc = place, arc
// weight = the producer's delay, arc tokens = the initial marking), and this
// header splits the remaining cost by change frequency:
//
//  * CsrGraph — the slot-indexed adjacency Howard walks (row_ptr + slot
//    arrays, laid out exactly as the MarkedGraph's out-place arrays).
//    Compiled once per *structure*; the weight array is separately
//    swappable, so weight-only re-solves skip graph construction entirely.
//  * CycleMeanSolver — a reusable solver owning the CSR snapshot, a
//    structure-derived solve plan (SCC partition, the liveness verdict and
//    its token-free witness, trivial-SCC self-loops, canonical initial
//    policy), and one HowardWorkspace.
//
// Determinism contract: `solve()` is bit-identical to the reference oracle
// tmg::max_cycle_ratio_howard (tests/lp_oracle/howard.h, linked only by
// tests and benchmarks) on every graph, and `solve_component()` is
// bit-identical to max_cycle_ratio_howard_scc on live graphs — same
// ratio_num/ratio_den, same critical cycle under the existing tie-break, and
// the same double `ratio`.
// This holds because (a) CSR slots list each transition's out-places in
// ascending PlaceId order, which is Digraph::out_arcs order of the oracle's
// ratio graph (tmg::to_ratio_graph), (b) the canonical initial policy (first
// internal out-arc per node) is structure-only, so warm solves start from
// the same policy a cold solve would, and (c) every floating-point
// expression is evaluated in the same order with the same 1e-9 epsilon.
// Every solve starts from that canonical policy, so a result never depends
// on what the solver solved before. The differential harness enforces the
// contract (tests/test_differential.cpp).

#include <cstdint>
#include <vector>

#include "graph/digraph.h"
#include "graph/scc.h"
#include "tmg/cycle_ratio.h"
#include "tmg/marked_graph.h"
#include "tmg/workspace.h"

namespace ermes::tmg {

/// Flat CSR snapshot of a MarkedGraph. Arc ids are PlaceIds; "slots" are
/// positions in the packed adjacency, with transition u's out-places
/// occupying [row_ptr[u], row_ptr[u+1]) in ascending PlaceId order — the
/// graph's own out_offsets()/out_place_array() layout.
struct CsrGraph {
  std::int32_t num_nodes = 0;
  std::int32_t num_arcs = 0;

  std::vector<std::int32_t> arc_slot;  // place id -> adjacency slot

  // Slot-indexed adjacency (the hot arrays).
  std::vector<std::int32_t> row_ptr;  // num_nodes + 1 offsets
  std::vector<graph::ArcId> slot_arc;
  std::vector<graph::NodeId> slot_head;
  std::vector<std::int64_t> slot_weight;  // the swappable weight vector
  std::vector<std::int64_t> slot_tokens;

  void compile(const MarkedGraph& g);

  /// True iff this snapshot's structure (out-place layout, each place's
  /// consumer and tokens) matches `g` — i.e. a weight-only refresh is sound.
  bool matches(const MarkedGraph& g) const;

  /// Re-reads only the delays from `g` (structure must match).
  void refresh_weights(const MarkedGraph& g);

  void set_arc_weight(graph::ArcId a, std::int64_t weight) {
    slot_weight[static_cast<std::size_t>(
        arc_slot[static_cast<std::size_t>(a)])] = weight;
  }
  std::int64_t arc_weight(graph::ArcId a) const {
    return slot_weight[static_cast<std::size_t>(
        arc_slot[static_cast<std::size_t>(a)])];
  }
};

/// Reusable solver for repeated maximum-cycle-ratio queries.
///
/// Usage:
///   CycleMeanSolver solver;
///   solver.prepare(g);         // compiles the CSR (cold) ...
///   auto r0 = solver.solve();  // ... bit-identical to the oracle
///   solver.set_arc_weight(a, w);
///   auto r1 = solver.solve();  // weight-only re-solve: no construction
///
/// prepare() on an unchanged structure is a warm weight refresh; on a
/// changed structure it recompiles. The solver owns one workspace and is not
/// internally synchronized: one thread at a time.
class CycleMeanSolver {
 public:
  /// Lifetime totals. Every field accumulates for the life of the solver —
  /// prepare() never resets them, including on a structure recompile (a
  /// recompile invalidates the *plan*, not the traffic history; callers
  /// wanting per-phase deltas snapshot and subtract). Pinned by the
  /// StatsAreLifetimeTotals regression test.
  struct Stats {
    std::int64_t compiles = 0;          // structure (re)compilations
    std::int64_t weight_refreshes = 0;  // warm prepares (structure reused)
    std::int64_t solves = 0;            // full-graph solves
    std::int64_t iterations = 0;        // policy-improvement rounds, total
    std::int64_t cap_hits = 0;          // SCC solves that exhausted the cap
  };

  CycleMeanSolver() = default;
  CycleMeanSolver(CycleMeanSolver&&) = default;
  CycleMeanSolver& operator=(CycleMeanSolver&&) = default;
  CycleMeanSolver(const CycleMeanSolver&) = delete;
  CycleMeanSolver& operator=(const CycleMeanSolver&) = delete;

  /// Snapshots `g` (or re-reads its delays when the structure is
  /// unchanged). Returns true on a warm (weight-only) prepare, false when
  /// the structure was (re)compiled; a compile runs the zero-token search
  /// that decides live().
  bool prepare(const MarkedGraph& g);

  /// Whole-graph solve from the canonical initial policy; bit-identical to
  /// the max_cycle_ratio_howard oracle on the prepared graph. Requires
  /// prepared().
  CycleRatioResult solve();

  /// prepare + solve in one call.
  CycleRatioResult solve(const MarkedGraph& g);

  /// One component's solve on the solver's own workspace; bit-identical to
  /// the max_cycle_ratio_howard_scc oracle. Requires live(): a deadlocked
  /// graph has no per-component answer, only dead_cycle(). `capped`, when
  /// non-null, reports whether the defensive iteration cap was exhausted
  /// (result then reflects the last evaluated policy and may be suboptimal).
  CycleRatioResult solve_component(std::int32_t comp_id,
                                   int* iterations = nullptr,
                                   bool* capped = nullptr);

  /// Patches one arc's weight in place (structure untouched, stays warm).
  void set_arc_weight(graph::ArcId a, std::int64_t weight) {
    csr_.set_arc_weight(a, weight);
  }

  bool prepared() const { return prepared_; }
  /// SCC partition of the prepared graph; identical to
  /// graph::strongly_connected_components on the source Digraph.
  const graph::SccResult& sccs() const { return sccs_; }

  /// Liveness of the prepared graph, from the one zero-token search a
  /// compile runs: false iff some cycle carries no token.
  bool live() const { return dead_cycle_.empty(); }
  /// When !live(): the deadlock witness, the token-free cycle
  /// find_zero_token_cycle reports, as PlaceIds.
  const std::vector<PlaceId>& dead_cycle() const { return dead_cycle_; }

  const Stats& stats() const { return stats_; }

 private:
  // Self-loop slots of a trivial (single-node) SCC, as a range of
  // plan_slots_; multi-node SCCs run policy iteration instead.
  struct SccPlan {
    std::int32_t begin = 0;
    std::int32_t end = 0;
  };

  void compile_plan();

  CsrGraph csr_;
  graph::SccResult sccs_;
  bool prepared_ = false;

  // Structure-derived solve plan, compiled once per structure.
  std::vector<std::int32_t> init_slot_;  // canonical first internal out-slot
  std::vector<PlaceId> dead_cycle_;      // token-free cycle; empty iff live
  std::vector<SccPlan> plans_;
  std::vector<std::int32_t> plan_slots_;  // self-loop slots of trivial SCCs

  HowardWorkspace ws_;
  Stats stats_;
};

/// The one zero-token-cycle search (a deadlock witness for a TMG): a DFS
/// over the graph's out-place arrays following only token-free places, roots
/// in TransitionId order and each transition's out-places in slot order.
/// Returns true and fills `cycle` (if non-null) with the first token-free
/// cycle it closes, as places in traversal order. CycleMeanSolver::prepare
/// runs it on every compile; its witness is dead_cycle().
bool find_zero_token_cycle(const MarkedGraph& g, std::vector<PlaceId>* cycle);

/// Test-only override of the defensive policy-iteration cap. `cap` > 0
/// replaces the default 64 + 2*|SCC| bound for every subsequent solve; 0
/// restores the default. The legacy oracle (tests/lp_oracle) honors it too,
/// so the two stay bit-identical even when capped.
void set_howard_iteration_cap_for_testing(int cap);

namespace detail {
/// Effective cap for an SCC of `members` nodes (honors the test override).
int howard_iteration_cap(std::size_t members);
/// Publishes one solve's telemetry batch: howard.solves and the
/// howard.iterations_per_solve histogram. Policy-iteration rounds are
/// counted separately by each caller (tmg.solver.iterations for the engine),
/// so no round is counted twice.
void publish_howard_metrics(int iterations);
/// Logs the cap-exhaustion warning and bumps howard.cap_hits.
void note_iteration_cap_exhausted(int iterations, std::size_t members);
}  // namespace detail

}  // namespace ermes::tmg
