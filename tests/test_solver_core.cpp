// Unit tests of the flat CSR solver core (tmg/csr.h, tmg/workspace.h):
// compile/refresh/matches mechanics, workspace reuse across differently
// sized graphs, the canonical-start determinism contract on edge shapes
// (empty graphs, self-loops, zero-token cycles), per-component solves, and
// the Howard iteration-cap exhaustion path. Hand-built graphs with per-arc
// weights reach the engine through tests/ratio_graph_solver.h.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "graph/scc.h"
#include "lp_oracle/howard.h"
#include "obs/metrics.h"
#include "ratio_graph_solver.h"
#include "tmg/csr.h"
#include "tmg/cycle_ratio.h"
#include "tmg/marked_graph.h"
#include "tmg/workspace.h"

namespace ermes::tmg {
namespace {

bool bits_equal(double a, double b) {
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

void expect_bit_identical(const CycleRatioResult& got,
                          const CycleRatioResult& want) {
  EXPECT_EQ(got.has_cycle, want.has_cycle);
  EXPECT_EQ(got.ratio_num, want.ratio_num);
  EXPECT_EQ(got.ratio_den, want.ratio_den);
  EXPECT_TRUE(bits_equal(got.ratio, want.ratio));
  EXPECT_EQ(got.critical_cycle, want.critical_cycle);
}

// ring + one heavy self-loop + a cross chord: two nontrivial co-existing
// cycles, so policy iteration actually iterates.
RatioGraph sample_graph() {
  RatioGraph rg;
  rg.g.add_nodes(4);
  const auto arc = [&rg](graph::NodeId u, graph::NodeId v, std::int64_t w,
                         std::int64_t t) {
    rg.g.add_arc(u, v);
    rg.weight.push_back(w);
    rg.tokens.push_back(t);
  };
  arc(0, 1, 3, 1);
  arc(1, 2, 4, 0);
  arc(2, 3, 5, 1);
  arc(3, 0, 2, 0);
  arc(2, 2, 9, 1);   // heavy self-loop inside the SCC
  arc(1, 0, 1, 1);   // chord: short cycle 0->1->0
  return rg;
}

// --- HowardWorkspace ---------------------------------------------------------

TEST(HowardWorkspace, EnsureGrowsAndNeverShrinks) {
  HowardWorkspace ws;
  ws.ensure(4);
  EXPECT_EQ(ws.policy.size(), 4u);
  EXPECT_EQ(ws.seen.size(), 4u);
  ws.ensure(16);
  EXPECT_EQ(ws.lambda.size(), 16u);
  ws.ensure(2);  // no shrink
  EXPECT_EQ(ws.policy.size(), 16u);
}

TEST(HowardWorkspace, StampsAreFreshAcrossEnsureGrowth) {
  HowardWorkspace ws;
  ws.ensure(2);
  const std::int32_t s1 = ws.next_stamp();
  ws.seen[0] = s1;
  ws.ensure(8);  // new entries must not alias the current stamp
  for (std::size_t i = 2; i < 8; ++i) {
    EXPECT_NE(ws.seen[i], s1) << "stale stamp at " << i;
  }
  EXPECT_GT(ws.next_stamp(), s1);
}

// --- CsrGraph mechanics ------------------------------------------------------

TEST(CsrGraph, CompileMatchesAndRefreshesWeights) {
  MarkedGraph g = marked_graph_of(sample_graph());
  for (TransitionId t = 0; t < g.num_transitions(); ++t) {
    g.set_delay(t, 2 + 3 * t);
  }
  CsrGraph csr;
  csr.compile(g);
  EXPECT_EQ(csr.num_nodes, 4);
  EXPECT_EQ(csr.num_arcs, 6);
  EXPECT_TRUE(csr.matches(g));
  // Slots are the out-place layout, every place weighs its producer's
  // delay, and arc ids round-trip through arc_slot.
  EXPECT_EQ(csr.row_ptr, g.out_offsets());
  EXPECT_EQ(csr.slot_arc, g.out_place_array());
  for (graph::ArcId a = 0; a < csr.num_arcs; ++a) {
    EXPECT_EQ(csr.arc_weight(a), g.delay(g.producer(a)));
    EXPECT_EQ(csr.slot_arc[static_cast<std::size_t>(
                  csr.arc_slot[static_cast<std::size_t>(a)])],
              a);
  }
  g.set_delay(2, 42);
  EXPECT_TRUE(csr.matches(g));  // delays are not structure
  csr.refresh_weights(g);
  for (const PlaceId p : g.out_places(2)) {
    EXPECT_EQ(csr.arc_weight(p), 42);
  }
}

TEST(CsrGraph, StructureChangesAreDetected) {
  // The sample as flat arrays: place p runs producer[p] -> consumer[p].
  const std::vector<std::int64_t> delay{1, 1, 1, 1};
  const std::vector<TransitionId> producer{0, 1, 2, 3, 2, 1};
  const std::vector<TransitionId> consumer{1, 2, 3, 0, 2, 0};
  const std::vector<std::int64_t> tokens{1, 0, 1, 0, 1, 1};
  const MarkedGraph g(delay, producer, consumer, tokens);
  CsrGraph csr;
  csr.compile(g);
  ASSERT_TRUE(csr.matches(g));

  // Each variant keeps the counts of g; a solver prepared on g must
  // recompile rather than refresh weights.
  const auto expect_recompile = [&g, &csr](const MarkedGraph& changed,
                                           const char* what) {
    EXPECT_FALSE(csr.matches(changed)) << what;
    CycleMeanSolver solver;
    solver.prepare(g);
    EXPECT_FALSE(solver.prepare(changed)) << what;
    EXPECT_EQ(solver.stats().compiles, 2) << what;
  };

  MarkedGraph more = g;
  more.add_place(3, 1, 1);
  EXPECT_FALSE(csr.matches(more));

  MarkedGraph retok = g;
  retok.set_tokens(1, 2);  // tokens are structure (they gate liveness)
  expect_recompile(retok, "tokens");

  std::vector<TransitionId> moved = producer;
  moved[5] = 3;  // place 5 now leaves transition 3, not 1
  expect_recompile(MarkedGraph(delay, moved, consumer, tokens), "producer");

  std::vector<TransitionId> swapped = producer;
  swapped[3] = 1;  // places 3 and 5 trade producers: same out-degrees
  swapped[5] = 3;
  expect_recompile(MarkedGraph(delay, swapped, consumer, tokens),
                   "producer swap");

  std::vector<TransitionId> retargeted = consumer;
  retargeted[0] = 2;  // place 0 now feeds transition 2 (a channel retarget)
  expect_recompile(MarkedGraph(delay, producer, retargeted, tokens),
                   "consumer");
}

// --- CycleMeanSolver: prepare/warm/solve -------------------------------------

TEST(CycleMeanSolver, PrepareReportsWarmOnlyForUnchangedStructure) {
  RatioGraph rg = sample_graph();
  CycleMeanSolver solver;
  EXPECT_FALSE(prepare_ratio_graph(solver, rg));  // cold: first compile
  EXPECT_TRUE(prepare_ratio_graph(solver, rg));   // warm: nothing changed
  rg.weight[0] = 77;
  EXPECT_TRUE(prepare_ratio_graph(solver, rg));   // warm: weight-only
  rg.g.add_arc(0, 2);
  rg.weight.push_back(1);
  rg.tokens.push_back(1);
  EXPECT_FALSE(prepare_ratio_graph(solver, rg));  // cold: structure changed
  EXPECT_EQ(solver.stats().compiles, 2);
  EXPECT_EQ(solver.stats().weight_refreshes, 2);
}

TEST(CycleMeanSolver, SolveMatchesLegacyOnSample) {
  const RatioGraph rg = sample_graph();
  CycleMeanSolver solver;
  expect_bit_identical(solve_ratio_graph(solver, rg),
                       max_cycle_ratio_howard(rg));
}

TEST(CycleMeanSolver, SetArcWeightPatchesStayBitIdentical) {
  RatioGraph rg = sample_graph();
  CycleMeanSolver solver;
  prepare_ratio_graph(solver, rg);
  for (int step = 0; step < 8; ++step) {
    const auto a = static_cast<graph::ArcId>(step % 6);
    const std::int64_t w = 1 + (step * 5) % 11;
    rg.weight[static_cast<std::size_t>(a)] = w;
    solver.set_arc_weight(a, w);  // patch in place of a full prepare
    expect_bit_identical(solver.solve(), max_cycle_ratio_howard(rg));
  }
}

TEST(CycleMeanSolver, EmptyAndAcyclicGraphs) {
  RatioGraph empty;
  CycleMeanSolver solver;
  const CycleRatioResult r = solve_ratio_graph(solver, empty);
  EXPECT_FALSE(r.has_cycle);

  RatioGraph dag;
  dag.g.add_nodes(3);
  dag.g.add_arc(0, 1);
  dag.g.add_arc(1, 2);
  dag.weight = {5, 7};
  dag.tokens = {1, 1};
  expect_bit_identical(solve_ratio_graph(solver, dag),
                       max_cycle_ratio_howard(dag));
  EXPECT_FALSE(solve_ratio_graph(solver, dag).has_cycle);
}

TEST(CycleMeanSolver, SelfLoopTieBreakMatchesLegacy) {
  // Two self-loops with the equal ratio 4/2 == 2/1: the legacy trivial-SCC
  // scan keeps the *first* (exact compare, first wins) — the CSR plan must
  // report the same arc.
  RatioGraph rg;
  rg.g.add_nodes(1);
  rg.g.add_arc(0, 0);
  rg.g.add_arc(0, 0);
  rg.weight = {4, 2};
  rg.tokens = {2, 1};
  CycleMeanSolver solver;
  expect_bit_identical(solve_ratio_graph(solver, rg),
                       max_cycle_ratio_howard(rg));
}

TEST(CycleMeanSolver, ZeroTokenCycleIsInfiniteWithSameWitness) {
  RatioGraph rg;
  rg.g.add_nodes(3);
  rg.g.add_arc(0, 1);
  rg.g.add_arc(1, 0);  // zero-token 2-cycle
  rg.g.add_arc(1, 2);
  rg.g.add_arc(2, 1);
  rg.weight = {1, 1, 1, 1};
  rg.tokens = {0, 0, 1, 1};
  CycleMeanSolver solver;
  const CycleRatioResult r = solve_ratio_graph(solver, rg);
  EXPECT_TRUE(r.is_infinite());
  EXPECT_FALSE(solver.live());
  EXPECT_EQ(solver.dead_cycle(), r.critical_cycle);
  expect_bit_identical(r, max_cycle_ratio_howard(rg));
}

// --- per-component solves ---------------------------------------------------

TEST(CycleMeanSolver, SolveComponentMatchesLegacyPerScc) {
  // Two decoupled rings (no cross arcs back), so two nontrivial SCCs.
  RatioGraph rg;
  rg.g.add_nodes(5);
  const auto arc = [&rg](graph::NodeId u, graph::NodeId v, std::int64_t w,
                         std::int64_t t) {
    rg.g.add_arc(u, v);
    rg.weight.push_back(w);
    rg.tokens.push_back(t);
  };
  arc(0, 1, 3, 1);
  arc(1, 0, 2, 1);
  arc(1, 2, 1, 1);  // feed-forward into the second ring
  arc(2, 3, 6, 1);
  arc(3, 4, 4, 0);
  arc(4, 2, 5, 1);

  CycleMeanSolver solver;
  prepare_ratio_graph(solver, rg);
  ASSERT_TRUE(solver.live());
  const graph::SccResult& sccs = solver.sccs();
  const graph::SccResult legacy_sccs =
      graph::strongly_connected_components(rg.g);
  ASSERT_EQ(sccs.num_components, legacy_sccs.num_components);
  EXPECT_EQ(sccs.component, legacy_sccs.component);
  EXPECT_EQ(sccs.members, legacy_sccs.members);

  for (std::int32_t c = 0; c < sccs.num_components; ++c) {
    expect_bit_identical(
        solver.solve_component(c),
        max_cycle_ratio_howard_scc(rg, sccs.component, c,
                                   sccs.members[static_cast<std::size_t>(c)]));
  }
}

TEST(CycleMeanSolver, StatsAreLifetimeTotals) {
  // Regression: Stats fields are lifetime totals. prepare() must never
  // reset them — not on a warm weight refresh, and not on a structure
  // recompile (a recompile invalidates the solve *plan*, not the traffic
  // history; callers wanting per-phase deltas snapshot and subtract).
  MarkedGraph g;
  g.add_transition(3);
  g.add_transition(2);
  g.add_place(0, 1, 1);
  g.add_place(1, 0, 1);

  CycleMeanSolver solver;
  solver.prepare(g);
  solver.solve();
  EXPECT_EQ(solver.stats().compiles, 1);
  EXPECT_EQ(solver.stats().solves, 1);
  const std::int64_t iters_after_first = solver.stats().iterations;
  EXPECT_GT(iters_after_first, 0);

  g.set_delay(0, 9);  // weight-only change: warm refresh, nothing reset
  EXPECT_TRUE(solver.prepare(g));
  EXPECT_EQ(solver.stats().weight_refreshes, 1);
  EXPECT_EQ(solver.stats().iterations, iters_after_first);
  solver.solve();

  g.add_transition(4);  // structure change: recompile, nothing reset
  g.add_place(1, 2, 1);
  g.add_place(2, 1, 1);
  EXPECT_FALSE(solver.prepare(g));
  EXPECT_EQ(solver.stats().compiles, 2);
  EXPECT_EQ(solver.stats().solves, 2);
  EXPECT_GE(solver.stats().iterations, iters_after_first);
  EXPECT_EQ(solver.stats().weight_refreshes, 1);

  solver.solve();
  EXPECT_EQ(solver.stats().solves, 3);
  EXPECT_GT(solver.stats().iterations, iters_after_first);
}

// --- telemetry ---------------------------------------------------------------

TEST(CycleMeanSolver, EachPolicyIterationIsCountedOnce) {
  // howard.iterations and tmg.solver.iterations are summed into one
  // iteration figure downstream, so every round the engine runs must land in
  // exactly one of them. howard.solves and the per-solve histogram still see
  // every solve() call.
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& howard_iters = reg.counter("howard.iterations");
  obs::Counter& solver_iters = reg.counter("tmg.solver.iterations");
  obs::Counter& solves = reg.counter("howard.solves");
  obs::Histogram& per_solve = reg.histogram("howard.iterations_per_solve");
  obs::set_enabled(true);
  const std::int64_t howard_before = howard_iters.value();
  const std::int64_t solver_before = solver_iters.value();
  const std::int64_t solves_before = solves.value();
  const std::int64_t hist_count_before = per_solve.count();
  const std::int64_t hist_sum_before = per_solve.sum();

  const RatioGraph rg = sample_graph();
  CycleMeanSolver solver;
  prepare_ratio_graph(solver, rg);
  solver.solve();
  // The self-loop stops dominating: a warm re-solve to a different optimum.
  solver.set_arc_weight(4, 1);
  solver.solve();
  obs::set_enabled(false);

  const std::int64_t iterations = solver.stats().iterations;
  ASSERT_GT(iterations, 0);
  EXPECT_EQ((howard_iters.value() - howard_before) +
                (solver_iters.value() - solver_before),
            iterations);
  EXPECT_EQ(solves.value() - solves_before, 2);
  EXPECT_EQ(per_solve.count() - hist_count_before, 2);
  EXPECT_EQ(per_solve.sum() - hist_sum_before, iterations);
}

// --- iteration-cap exhaustion ------------------------------------------------

TEST(HowardCap, ExhaustionIsReportedAndPathsAgree) {
  // The canonical initial policy picks each node's first out-arc: the 1-1
  // ring (ratio 2/2). The heavy self-loop 9/1 is only reachable through
  // policy improvement, so cap=1 stops after evaluating the initial policy.
  RatioGraph rg;
  rg.g.add_nodes(2);
  rg.g.add_arc(0, 1);
  rg.g.add_arc(1, 0);
  rg.g.add_arc(1, 1);
  rg.weight = {1, 1, 9};
  rg.tokens = {1, 1, 1};
  const graph::SccResult sccs = graph::strongly_connected_components(rg.g);
  ASSERT_EQ(sccs.num_components, 1);

  set_howard_iteration_cap_for_testing(1);
  int iterations = 0;
  bool capped = false;
  const CycleRatioResult legacy = max_cycle_ratio_howard_scc(
      rg, sccs.component, 0, sccs.members[0], &iterations, &capped);
  EXPECT_TRUE(capped) << "cap=1 must be exhausted on this graph";
  EXPECT_EQ(iterations, 1);
  EXPECT_EQ(legacy.ratio_num, 2);  // the initial policy's cycle, suboptimal
  EXPECT_EQ(legacy.ratio_den, 2);

  // The CSR path shares the cap plumbing and must cap identically.
  CycleMeanSolver solver;
  prepare_ratio_graph(solver, rg);
  int csr_iterations = 0;
  bool csr_capped = false;
  expect_bit_identical(
      solver.solve_component(0, &csr_iterations, &csr_capped), legacy);
  EXPECT_TRUE(csr_capped);
  EXPECT_EQ(csr_iterations, iterations);

  // Back to the default cap: both converge to the self-loop optimum.
  set_howard_iteration_cap_for_testing(0);
  capped = true;
  const CycleRatioResult full = max_cycle_ratio_howard_scc(
      rg, sccs.component, 0, sccs.members[0], &iterations, &capped);
  EXPECT_FALSE(capped);
  EXPECT_EQ(full.ratio_num, 9);
  EXPECT_EQ(full.ratio_den, 1);
  expect_bit_identical(solver.solve(), full);
}

}  // namespace
}  // namespace ermes::tmg
