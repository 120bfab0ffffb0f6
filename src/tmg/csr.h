#pragma once
// Flat CSR cycle-mean engine: the one Howard implementation production runs.
//
// Every throughput query in the methodology loop bottoms out in a maximum
// cycle ratio solve (Howard's policy iteration, paper Section 3), and the
// DSE/sweep/serve/incremental layers issue thousands of them on graphs that
// differ only in arc weights. Each policy iteration is O(V+E) and few are
// needed in practice, which is what makes the methodology scale to the
// 10,000-process synthetic benchmarks of Section 6. This header splits the
// remaining cost by change frequency:
//
//  * CsrGraph — a flat, string-free snapshot of a ratio graph: SoA arrays for
//    arc tails/heads/tokens plus offset-indexed adjacency (row_ptr + slot
//    arrays). Compiled once per *structure*; the weight array is separately
//    swappable, so weight-only re-solves skip graph construction entirely.
//  * CycleMeanSolver — a reusable solver owning the CSR snapshot, a
//    structure-derived solve plan (SCC partition, zero-token witnesses,
//    trivial-SCC self-loops, canonical initial policy), one HowardWorkspace,
//    and the last optimal policy for warm-started re-solves.
//
// Determinism contract: `solve()` and `solve_component()` are bit-identical
// to the reference oracle tmg::max_cycle_ratio_howard /
// max_cycle_ratio_howard_scc (tmg/howard.h, used only by tests and
// benchmarks) — same ratio_num/ratio_den, same critical cycle under the
// existing tie-break, and the same double `ratio` value. This holds because
// (a) CSR slots preserve Digraph::out_arcs order exactly, (b) the canonical
// initial policy (first internal out-arc per node) is structure-only, so
// warm solves start from the same policy a cold solve would, and (c) every
// floating-point expression is evaluated in the same order with the same
// 1e-9 epsilon. `solve_seeded()` trades the witness guarantee for speed: it
// seeds policy iteration from the previous optimal policy, which converges
// to the *exact same maximum ratio* (compare_ratios == 0) but may report a
// different co-optimal critical cycle. The differential harness enforces
// both contracts (tests/test_differential.cpp).

#include <cstdint>
#include <vector>

#include "graph/digraph.h"
#include "graph/scc.h"
#include "tmg/cycle_ratio.h"
#include "tmg/workspace.h"

namespace ermes::tmg {

class MarkedGraph;

/// Flat CSR snapshot of a ratio graph. Arc ids equal the source graph's arc
/// ids (== PlaceIds when compiled from a MarkedGraph); "slots" are positions
/// in the packed adjacency, with node u's out-arcs occupying
/// [row_ptr[u], row_ptr[u+1]) in exactly Digraph::out_arcs order.
struct CsrGraph {
  std::int32_t num_nodes = 0;
  std::int32_t num_arcs = 0;

  // Arc-indexed structure mirror (used by matches() and arc-addressed
  // weight updates; the solver itself walks slots only).
  std::vector<graph::NodeId> arc_tail;
  std::vector<graph::NodeId> arc_head;
  std::vector<std::int64_t> arc_tokens;
  std::vector<std::int32_t> arc_slot;  // arc id -> adjacency slot

  // Slot-indexed adjacency (the hot arrays).
  std::vector<std::int32_t> row_ptr;  // num_nodes + 1 offsets
  std::vector<graph::ArcId> slot_arc;
  std::vector<graph::NodeId> slot_head;
  std::vector<std::int64_t> slot_weight;  // the swappable weight vector
  std::vector<std::int64_t> slot_tokens;

  void compile(const RatioGraph& rg);
  void compile(const MarkedGraph& g);

  /// True iff this snapshot's structure (nodes, arcs, tails, heads, tokens)
  /// matches the source — i.e. a weight-only refresh is sound.
  bool matches(const RatioGraph& rg) const;
  bool matches(const MarkedGraph& g) const;

  /// Re-reads only the weights from the source (structure must match).
  void refresh_weights(const RatioGraph& rg);
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
    std::int64_t solves = 0;            // canonical full-graph solves
    std::int64_t seeded_solves = 0;     // warm-policy full-graph solves
    std::int64_t iterations = 0;        // policy-improvement rounds, total
                                        // (solve/solve_seeded)
    std::int64_t cap_hits = 0;          // SCC solves that exhausted the cap
  };

  CycleMeanSolver() = default;
  CycleMeanSolver(CycleMeanSolver&&) = default;
  CycleMeanSolver& operator=(CycleMeanSolver&&) = default;
  CycleMeanSolver(const CycleMeanSolver&) = delete;
  CycleMeanSolver& operator=(const CycleMeanSolver&) = delete;

  /// Snapshots `rg` (or re-reads its weights when the structure is
  /// unchanged). Returns true on a warm (weight-only) prepare, false when
  /// the structure was (re)compiled.
  bool prepare(const RatioGraph& rg);
  bool prepare(const MarkedGraph& g);

  /// Whole-graph solve from the canonical initial policy; bit-identical to
  /// the max_cycle_ratio_howard oracle on the prepared graph. Requires
  /// prepared().
  CycleRatioResult solve();

  /// prepare + solve in one call.
  CycleRatioResult solve(const RatioGraph& rg);
  CycleRatioResult solve(const MarkedGraph& g);

  /// Whole-graph solve seeded from the previous solve's optimal policy
  /// (falls back to the canonical policy where no previous policy exists).
  /// Converges to the exact same maximum ratio as solve() — compare_ratios
  /// of the two results is always 0 — but may report a different co-optimal
  /// critical cycle, so it is opt-in rather than the default.
  CycleRatioResult solve_seeded();

  /// One component's solve on caller-provided scratch; bit-identical to the
  /// max_cycle_ratio_howard_scc oracle. `capped`, when non-null, reports
  /// whether the defensive iteration cap was exhausted (result then reflects
  /// the last evaluated policy and may be suboptimal).
  CycleRatioResult solve_component(std::int32_t comp_id, HowardWorkspace& ws,
                                   int* iterations = nullptr,
                                   bool* capped = nullptr) const;

  /// Patches one arc's weight in place (structure untouched, stays warm).
  void set_arc_weight(graph::ArcId a, std::int64_t weight) {
    csr_.set_arc_weight(a, weight);
  }

  bool prepared() const { return prepared_; }
  const CsrGraph& csr() const { return csr_; }
  /// SCC partition of the prepared graph; identical to
  /// graph::strongly_connected_components on the source Digraph.
  const graph::SccResult& sccs() const { return sccs_; }

  /// The solver's own scratch, for solve_component() callers.
  HowardWorkspace& workspace() { return ws_; }

  const Stats& stats() const { return stats_; }

 private:
  enum class SccKind : unsigned char {
    kTrivial,    // single node: self-loop scan (possibly none -> no cycle)
    kZeroToken,  // token-free internal cycle: infinite ratio, cached witness
    kHoward,     // multi-node: policy iteration
  };
  struct SccPlan {
    SccKind kind = SccKind::kTrivial;
    std::int32_t begin = 0;  // into plan_slots_ (trivial) / plan_arcs_ (zero)
    std::int32_t end = 0;
  };

  void compile_plan();
  CycleRatioResult run(bool seeded);
  CycleRatioResult solve_component_impl(std::int32_t comp_id,
                                        HowardWorkspace& ws, int* iterations,
                                        bool* capped, bool seeded) const;

  CsrGraph csr_;
  graph::SccResult sccs_;
  bool prepared_ = false;

  // Structure-derived solve plan, compiled once per structure.
  std::vector<std::int32_t> init_slot_;  // canonical first internal out-slot
  std::vector<graph::ArcId> zero_witness_;  // global zero-token cycle
  bool has_zero_witness_ = false;
  std::vector<SccPlan> plans_;
  std::vector<std::int32_t> plan_slots_;  // self-loop slots of trivial SCCs
  std::vector<graph::ArcId> plan_arcs_;   // per-SCC zero-token witnesses

  // Previous optimal policy (slot per node, -1 where unknown) for
  // solve_seeded(); invalidated by every recompile.
  std::vector<std::int32_t> last_policy_;
  bool have_last_policy_ = false;

  HowardWorkspace ws_;
  Stats stats_;
};

/// Test-only override of the defensive policy-iteration cap. `cap` > 0
/// replaces the default 64 + 2*|SCC| bound for every subsequent solve; 0
/// restores the default. The legacy oracle (tmg/howard.h) honors it too, so
/// the two stay bit-identical even when capped.
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
