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
//  * CycleMeanSolver — a reusable batch solver owning the CSR snapshot, a
//    structure-derived solve plan (SCC partition, zero-token witnesses,
//    trivial-SCC self-loops, canonical initial policy), caller-growable
//    HowardWorkspaces (one per pool worker), and the last optimal policy for
//    warm-started re-solves.
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
//
// solve_batch() sweeps k weight scenarios over the prepared structure in one
// pass and is bit-identical to k serial install+solve() calls. Each scenario
// replays the canonical-start trajectory (seeded starts could report a
// different co-optimal witness, which would break bit-identity), so the
// batch's speed comes from everything *around* policy iteration. The
// scenario span is already an SoA scenario-major weight block; one flat
// SIMD-friendly diff pass against the previous scenario stamps the SCCs
// whose internal arc weights actually moved. Because an SCC's solve is a
// pure function of the weights on its internal slots, every clean SCC
// replays its current result with no per-slot work, and dirty slices probe
// a per-batch hash memo before re-iterating — only a genuinely new slice
// installs its slots and runs Howard (DSE sweeps mutate a few processes per
// scenario, so most components stay clean).

#include <cstdint>
#include <memory>
#include <span>
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

/// One scenario's arc-indexed weight valuation for solve_batch. Index is the
/// ArcId of the prepared graph (== PlaceId when compiled from a
/// MarkedGraph); size must equal csr().num_arcs.
using WeightVector = std::vector<std::int64_t>;

/// Per-scenario outcome of CycleMeanSolver::solve_batch. `result` is
/// bit-identical to what install-weights + solve() would have returned at
/// the same point of the sweep.
struct BatchSolveReport {
  CycleRatioResult result;
  /// Policy-improvement rounds this scenario was charged. Replayed SCC
  /// results charge the rounds their original solve ran, mirroring what the
  /// serial path would have spent.
  int iterations = 0;
  /// True iff some SCC solve feeding this scenario (original or replayed)
  /// exhausted the defensive iteration cap; the result then reflects the
  /// last evaluated policy, exactly like the serial path.
  bool cap_hit = false;
  /// True iff every SCC result was replayed from an earlier scenario of the
  /// same batch (always false for the first scenario and for graphs with a
  /// zero-token witness, where no per-SCC solves run at all).
  bool reused = false;
};

/// Reusable batch solver for repeated maximum-cycle-ratio queries.
///
/// Usage:
///   CycleMeanSolver solver;
///   solver.prepare(g);         // compiles the CSR (cold) ...
///   auto r0 = solver.solve();  // ... bit-identical to the oracle
///   solver.set_arc_weight(a, w);
///   auto r1 = solver.solve();  // weight-only re-solve: no construction
///
/// prepare() on an unchanged structure is a warm weight refresh; on a
/// changed structure it recompiles. Workspaces are owned by the solver, one
/// per worker slot (see exec::current_worker_slot), so comp::partition can
/// run solve_component() from pool workers without locks. Not thread-safe
/// for concurrent prepare/solve; concurrent *const* solve_component calls
/// with distinct workspaces are safe.
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
                                        // (solve/solve_seeded/solve_batch)
    std::int64_t cap_hits = 0;          // SCC solves that exhausted the cap
    std::int64_t batch_solves = 0;      // non-empty solve_batch calls
    std::int64_t batch_scenarios = 0;   // scenarios swept by solve_batch
    std::int64_t batch_scc_solves = 0;  // scenario-SCC solves actually run
    std::int64_t batch_scc_reuses = 0;  // scenario-SCC results replayed
  };

  CycleMeanSolver() = default;
  CycleMeanSolver(CycleMeanSolver&&) = default;
  CycleMeanSolver& operator=(CycleMeanSolver&&) = default;
  CycleMeanSolver(const CycleMeanSolver&) = delete;
  CycleMeanSolver& operator=(const CycleMeanSolver&) = delete;

  /// Snapshots `rg` (or re-reads its weights when the structure is
  /// unchanged). Returns true on a warm (weight-only) prepare, false when
  /// the structure was (re)compiled. `workers` sizes the workspace bank
  /// (never shrinks it).
  bool prepare(const RatioGraph& rg, std::size_t workers = 1);
  bool prepare(const MarkedGraph& g, std::size_t workers = 1);

  /// Whole-graph solve from the canonical initial policy; bit-identical to
  /// the max_cycle_ratio_howard oracle on the prepared graph. Requires
  /// prepared().
  CycleRatioResult solve();

  /// prepare + solve in one call.
  CycleRatioResult solve(const RatioGraph& rg);
  CycleRatioResult solve(const MarkedGraph& g);

  /// Sweeps weights.size() scenarios over the prepared structure in one
  /// pass, writing one report per scenario into `out` (which must be at
  /// least as large). Bit-identical to installing each WeightVector and
  /// calling solve() in order: same ratio_num/ratio_den, same double bits,
  /// same critical cycle. Requires prepared(); every WeightVector must hold
  /// exactly csr().num_arcs entries, indexed by arc id. After the call the
  /// solver holds the last scenario's weights (as the serial loop would),
  /// and last_policy_ reflects the most recently *executed* SCC solves — a
  /// valid solve_seeded() seed, though not necessarily the serial
  /// end-state policy when slices were replayed. An empty batch is a no-op.
  void solve_batch(std::span<const WeightVector> weights,
                   std::span<BatchSolveReport> out);
  /// Convenience overload returning the reports.
  std::vector<BatchSolveReport> solve_batch(
      std::span<const WeightVector> weights);

  /// Whole-graph solve seeded from the previous solve's optimal policy
  /// (falls back to the canonical policy where no previous policy exists).
  /// Converges to the exact same maximum ratio as solve() — compare_ratios
  /// of the two results is always 0 — but may report a different co-optimal
  /// critical cycle, so it is opt-in rather than the default.
  CycleRatioResult solve_seeded();

  /// One component's solve on caller-provided scratch; bit-identical to the
  /// max_cycle_ratio_howard_scc oracle. Safe to call concurrently for
  /// different (comp_id, ws) pairs. `capped`, when non-null, reports whether
  /// the defensive iteration cap was exhausted (result then reflects the
  /// last evaluated policy and may be suboptimal).
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

  /// Grows the workspace bank to `count` slots (never shrinks). Must not be
  /// called concurrently with solve_component.
  void ensure_workspaces(std::size_t count);
  std::size_t num_workspaces() const { return workspaces_.size(); }
  /// Workspace for one worker slot; index with exec::current_worker_slot()
  /// inside pool workers. Each slot is owned by one thread at a time.
  HowardWorkspace& workspace(std::size_t slot) const {
    return *workspaces_[slot];
  }

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

  // Internal slots (tail and head in the SCC) grouped per component, in
  // member-row order: SCC c's slice is scc_slots_[scc_slot_ptr_[c] ..
  // scc_slot_ptr_[c+1]). An SCC solve reads exactly these weights, so two
  // scenarios agreeing on a slice produce bit-identical SCC results —
  // the foundation of solve_batch's replay.
  std::vector<std::int32_t> scc_slot_ptr_;
  std::vector<std::int32_t> scc_slots_;
  std::vector<graph::ArcId> scc_arcs_;  // slot_arc[scc_slots_[i]], precomputed
  // Arc -> owning SCC, -1 for inter-SCC arcs (whose weights no solve ever
  // reads): solve_batch's scenario-diff pass maps changed arcs to the SCCs
  // they dirty through this.
  std::vector<std::int32_t> arc_scc_;

  // Previous optimal policy (slot per node, -1 where unknown) for
  // solve_seeded(); invalidated by every recompile.
  std::vector<std::int32_t> last_policy_;
  bool have_last_policy_ = false;

  std::vector<std::unique_ptr<HowardWorkspace>> workspaces_;
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
