// Cross-validation of the maximum-cycle-ratio solvers: Howard (production)
// vs Lawler binary search vs brute-force enumeration (Definition 3 applied
// literally), plus Karp's max cycle mean, plus agreement with the timed
// token-game simulation.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "graph/scc.h"
#include "lp_oracle/brute_force.h"
#include "lp_oracle/howard.h"
#include "lp_oracle/token_game.h"
#include "tmg/karp.h"
#include "tmg/liveness.h"
#include "tmg/marked_graph.h"
#include "util/rng.h"

namespace ermes::tmg {
namespace {

RatioGraph ring_graph(std::vector<std::int64_t> delays,
                      std::vector<std::int64_t> tokens) {
  // Simple ring over n nodes; arc i: i -> (i+1)%n with weight delays[i].
  RatioGraph rg;
  const auto n = static_cast<std::int32_t>(delays.size());
  rg.g.add_nodes(n);
  for (std::int32_t i = 0; i < n; ++i) {
    rg.g.add_arc(i, (i + 1) % n);
    rg.weight.push_back(delays[static_cast<std::size_t>(i)]);
    rg.tokens.push_back(tokens[static_cast<std::size_t>(i)]);
  }
  return rg;
}

// ---- compare_ratios --------------------------------------------------------

TEST(CompareRatiosTest, Basic) {
  EXPECT_EQ(compare_ratios(1, 2, 2, 3), -1);  // 0.5 < 0.667
  EXPECT_EQ(compare_ratios(2, 3, 1, 2), 1);
  EXPECT_EQ(compare_ratios(2, 4, 1, 2), 0);
}

TEST(CompareRatiosTest, InfinityHandling) {
  EXPECT_EQ(compare_ratios(5, 0, 100, 1), 1);   // inf > 100
  EXPECT_EQ(compare_ratios(100, 1, 5, 0), -1);
  EXPECT_EQ(compare_ratios(1, 0, 2, 0), 0);
}

TEST(CompareRatiosTest, LargeValuesNoOverflow) {
  const std::int64_t big = 2'000'000'000'000LL;
  EXPECT_EQ(compare_ratios(big, big - 1, big, big), 1);
}

// ---- fixed cases, all solvers ---------------------------------------------

TEST(CycleRatioTest, SingleRing) {
  const RatioGraph rg = ring_graph({3, 5}, {0, 1});  // ratio 8/1
  const auto howard = max_cycle_ratio_howard(rg);
  const auto lawler = max_cycle_ratio_lawler(rg);
  const auto brute = max_cycle_ratio_brute_force(rg);
  EXPECT_TRUE(howard.has_cycle);
  EXPECT_DOUBLE_EQ(howard.ratio, 8.0);
  EXPECT_DOUBLE_EQ(lawler.ratio, 8.0);
  EXPECT_DOUBLE_EQ(brute.ratio, 8.0);
}

TEST(CycleRatioTest, AcyclicGraph) {
  RatioGraph rg;
  rg.g.add_nodes(3);
  rg.g.add_arc(0, 1);
  rg.g.add_arc(1, 2);
  rg.weight = {5, 7};
  rg.tokens = {1, 1};
  EXPECT_FALSE(max_cycle_ratio_howard(rg).has_cycle);
  EXPECT_FALSE(max_cycle_ratio_lawler(rg).has_cycle);
  EXPECT_FALSE(max_cycle_ratio_brute_force(rg).has_cycle);
}

TEST(CycleRatioTest, ZeroTokenCycleIsInfinite) {
  const RatioGraph rg = ring_graph({3, 5}, {0, 0});
  const auto howard = max_cycle_ratio_howard(rg);
  EXPECT_TRUE(howard.is_infinite());
  EXPECT_TRUE(max_cycle_ratio_lawler(rg).is_infinite());
  EXPECT_TRUE(max_cycle_ratio_brute_force(rg).is_infinite());
}

TEST(CycleRatioTest, PicksWorstOfTwoRings) {
  // Rings 0<->1 (ratio 6) and 2<->3 (ratio 9).
  RatioGraph rg;
  rg.g.add_nodes(4);
  rg.g.add_arc(0, 1);
  rg.g.add_arc(1, 0);
  rg.g.add_arc(2, 3);
  rg.g.add_arc(3, 2);
  rg.weight = {2, 4, 4, 5};
  rg.tokens = {1, 0, 1, 0};
  const auto howard = max_cycle_ratio_howard(rg);
  EXPECT_DOUBLE_EQ(howard.ratio, 9.0);
  EXPECT_EQ(howard.ratio_num, 9);
  EXPECT_EQ(howard.ratio_den, 1);
}

TEST(CycleRatioTest, RationalRatio) {
  const RatioGraph rg = ring_graph({3, 4, 5}, {1, 1, 0});  // 12/2 = 6
  const auto howard = max_cycle_ratio_howard(rg);
  EXPECT_DOUBLE_EQ(howard.ratio, 6.0);
  EXPECT_EQ(howard.ratio_num, 12);
  EXPECT_EQ(howard.ratio_den, 2);
}

TEST(CycleRatioTest, CriticalCycleIsValidCycle) {
  RatioGraph rg;
  rg.g.add_nodes(3);
  rg.g.add_arc(0, 1);
  rg.g.add_arc(1, 0);
  rg.g.add_arc(1, 2);
  rg.g.add_arc(2, 0);
  rg.weight = {7, 2, 3, 4};
  rg.tokens = {1, 1, 1, 1};
  const auto result = max_cycle_ratio_howard(rg);
  ASSERT_TRUE(result.has_cycle);
  // Verify closure and exact ratio of the returned cycle.
  std::int64_t w = 0, t = 0;
  for (std::size_t i = 0; i < result.critical_cycle.size(); ++i) {
    const auto a = result.critical_cycle[i];
    const auto b = result.critical_cycle[(i + 1) % result.critical_cycle.size()];
    EXPECT_EQ(rg.g.head(a), rg.g.tail(b));
    w += rg.arc_weight(a);
    t += rg.arc_tokens(a);
  }
  EXPECT_EQ(w, result.ratio_num);
  EXPECT_EQ(t, result.ratio_den);
}

TEST(CycleRatioTest, SelfLoop) {
  RatioGraph rg;
  rg.g.add_nodes(1);
  rg.g.add_arc(0, 0);
  rg.weight = {5};
  rg.tokens = {2};
  const auto howard = max_cycle_ratio_howard(rg);
  EXPECT_TRUE(howard.has_cycle);
  EXPECT_DOUBLE_EQ(howard.ratio, 2.5);
}

TEST(CycleRatioTest, ParallelArcsPickWorse) {
  RatioGraph rg;
  rg.g.add_nodes(2);
  rg.g.add_arc(0, 1);
  rg.g.add_arc(1, 0);
  rg.g.add_arc(1, 0);
  rg.weight = {1, 1, 9};
  rg.tokens = {1, 1, 1};
  EXPECT_DOUBLE_EQ(max_cycle_ratio_howard(rg).ratio, 5.0);  // (1+9)/2
}

// ---- Karp ------------------------------------------------------------------

TEST(KarpTest, MaxCycleMeanSimple) {
  // Cycle of means: ring 0<->1 with weights 2,6 -> mean 4.
  RatioGraph rg = ring_graph({2, 6}, {1, 1});
  const auto karp = max_cycle_mean_karp(rg);
  EXPECT_TRUE(karp.has_cycle);
  EXPECT_DOUBLE_EQ(karp.ratio, 4.0);
}

TEST(KarpTest, AcyclicHasNoCycle) {
  RatioGraph rg;
  rg.g.add_nodes(2);
  rg.g.add_arc(0, 1);
  rg.weight = {10};
  rg.tokens = {1};
  EXPECT_FALSE(max_cycle_mean_karp(rg).has_cycle);
}

TEST(KarpTest, MatchesHowardOnUnitTokenGraphs) {
  util::Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    RatioGraph rg;
    const auto n = static_cast<std::int32_t>(rng.uniform_int(2, 12));
    rg.g.add_nodes(n);
    // Hamiltonian cycle ensures strong connectivity.
    for (std::int32_t i = 0; i < n; ++i) {
      rg.g.add_arc(i, (i + 1) % n);
      rg.weight.push_back(rng.uniform_int(0, 20));
      rg.tokens.push_back(1);
    }
    const auto extra = rng.uniform_int(0, 2 * n);
    for (std::int64_t e = 0; e < extra; ++e) {
      const auto u = static_cast<graph::NodeId>(rng.index(static_cast<std::size_t>(n)));
      const auto v = static_cast<graph::NodeId>(rng.index(static_cast<std::size_t>(n)));
      rg.g.add_arc(u, v);
      rg.weight.push_back(rng.uniform_int(0, 20));
      rg.tokens.push_back(1);
    }
    const auto karp = max_cycle_mean_karp(rg);
    const auto howard = max_cycle_ratio_howard(rg);
    ASSERT_TRUE(karp.has_cycle);
    ASSERT_TRUE(howard.has_cycle);
    EXPECT_NEAR(karp.ratio, howard.ratio, 1e-6) << "trial " << trial;
  }
}

// ---- randomized cross-validation (parameterized over seeds) ----------------

class SolverAgreementTest : public ::testing::TestWithParam<std::uint64_t> {};

RatioGraph random_live_graph(util::Rng& rng) {
  RatioGraph rg;
  const auto n = static_cast<std::int32_t>(rng.uniform_int(2, 10));
  rg.g.add_nodes(n);
  // Hamiltonian backbone with tokens to guarantee liveness of that cycle.
  for (std::int32_t i = 0; i < n; ++i) {
    rg.g.add_arc(i, (i + 1) % n);
    rg.weight.push_back(rng.uniform_int(0, 30));
    rg.tokens.push_back(rng.uniform_int(0, 2));
  }
  rg.tokens[0] = std::max<std::int64_t>(rg.tokens[0], 1);
  const auto extra = rng.uniform_int(0, 2 * n);
  for (std::int64_t e = 0; e < extra; ++e) {
    const auto u = static_cast<graph::NodeId>(rng.index(static_cast<std::size_t>(n)));
    const auto v = static_cast<graph::NodeId>(rng.index(static_cast<std::size_t>(n)));
    rg.g.add_arc(u, v);
    rg.weight.push_back(rng.uniform_int(0, 30));
    // Bias toward tokens so most graphs stay finite.
    rg.tokens.push_back(rng.uniform_int(0, 3) == 0 ? 0 : 1);
  }
  return rg;
}

TEST_P(SolverAgreementTest, HowardMatchesBruteForceAndLawler) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const RatioGraph rg = random_live_graph(rng);
    const auto howard = max_cycle_ratio_howard(rg);
    const auto brute = max_cycle_ratio_brute_force(rg);
    const auto lawler = max_cycle_ratio_lawler(rg);
    ASSERT_EQ(howard.has_cycle, brute.has_cycle);
    if (!howard.has_cycle) continue;
    EXPECT_EQ(howard.is_infinite(), brute.is_infinite());
    if (brute.is_infinite()) {
      EXPECT_TRUE(lawler.is_infinite());
      continue;
    }
    EXPECT_EQ(compare_ratios(howard.ratio_num, howard.ratio_den,
                             brute.ratio_num, brute.ratio_den),
              0)
        << "howard " << howard.ratio_num << "/" << howard.ratio_den
        << " vs brute " << brute.ratio_num << "/" << brute.ratio_den;
    EXPECT_NEAR(lawler.ratio, brute.ratio, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverAgreementTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---- agreement with the timed token game -----------------------------------

class SimulationAgreementTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulationAgreementTest, AsapPeriodEqualsHowardRatio) {
  util::Rng rng(GetParam() * 977);
  // Build a random strongly-connected marked graph with a live marking.
  MarkedGraph g;
  const auto n = static_cast<std::int32_t>(rng.uniform_int(2, 8));
  for (std::int32_t i = 0; i < n; ++i) {
    g.add_transition(rng.uniform_int(1, 12));
  }
  for (std::int32_t i = 0; i < n; ++i) {
    g.add_place(i, (i + 1) % n, i == 0 ? 1 : rng.uniform_int(0, 1));
  }
  const auto extra = rng.uniform_int(0, n);
  for (std::int64_t e = 0; e < extra; ++e) {
    const auto u = static_cast<TransitionId>(rng.index(static_cast<std::size_t>(n)));
    const auto v = static_cast<TransitionId>(rng.index(static_cast<std::size_t>(n)));
    g.add_place(u, v, 1);  // tokened extras keep the graph live
  }
  ASSERT_TRUE(is_live(g));
  const auto howard = max_cycle_ratio_howard(to_ratio_graph(g));
  ASSERT_TRUE(howard.has_cycle);
  ASSERT_FALSE(howard.is_infinite());
  const TimedSimResult sim = simulate_asap(g, 0, 400);
  ASSERT_FALSE(sim.deadlocked);
  EXPECT_NEAR(sim.measured_cycle_time, howard.ratio, 1e-6)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulationAgreementTest,
                         ::testing::Range<std::uint64_t>(1, 16));

// ---- per-SCC solves and the fold (the partitioned engine's primitives) -----

TEST(HowardSccTest, TrivialComponentWithoutSelfLoopHasNoCycle) {
  RatioGraph rg;
  rg.g.add_nodes(2);
  rg.g.add_arc(0, 1);
  rg.weight = {3};
  rg.tokens = {1};
  const auto sccs = graph::strongly_connected_components(rg.g);
  ASSERT_EQ(sccs.num_components, 2);
  for (std::int32_t c = 0; c < 2; ++c) {
    int iterations = -1;
    const CycleRatioResult r = max_cycle_ratio_howard_scc(
        rg, sccs.component, c, sccs.members[static_cast<std::size_t>(c)],
        &iterations);
    EXPECT_FALSE(r.has_cycle);
    EXPECT_EQ(iterations, 0) << "fast path must not run policy iteration";
  }
}

TEST(HowardSccTest, TrivialSelfLoopFastPathMatchesTheGeneralSolver) {
  // One node, several self-loops: the closed-form fast path must pick the
  // same ratio AND the same critical arc as whole-graph Howard (which takes
  // the iterative path) — including first-wins on an exact tie.
  RatioGraph rg;
  rg.g.add_nodes(1);
  rg.g.add_arc(0, 0);
  rg.g.add_arc(0, 0);
  rg.g.add_arc(0, 0);
  rg.weight = {6, 9, 12};   // ratios 3, 9, 6
  rg.tokens = {2, 1, 2};
  const auto sccs = graph::strongly_connected_components(rg.g);
  ASSERT_EQ(sccs.num_components, 1);
  int iterations = -1;
  const CycleRatioResult fast = max_cycle_ratio_howard_scc(
      rg, sccs.component, 0, sccs.members[0], &iterations);
  EXPECT_EQ(iterations, 0);
  const CycleRatioResult full = max_cycle_ratio_howard(rg);
  EXPECT_EQ(fast.has_cycle, full.has_cycle);
  EXPECT_EQ(fast.ratio_num, full.ratio_num);
  EXPECT_EQ(fast.ratio_den, full.ratio_den);
  EXPECT_EQ(fast.ratio, full.ratio);
  EXPECT_EQ(fast.critical_cycle, full.critical_cycle);
  EXPECT_EQ(fast.ratio, 9.0);

  // Exact tie between two self-loops: the earlier arc wins on both paths.
  RatioGraph tie;
  tie.g.add_nodes(1);
  tie.g.add_arc(0, 0);
  tie.g.add_arc(0, 0);
  tie.weight = {4, 8};  // both ratio 4
  tie.tokens = {1, 2};
  const auto tie_sccs = graph::strongly_connected_components(tie.g);
  const CycleRatioResult tie_fast = max_cycle_ratio_howard_scc(
      tie, tie_sccs.component, 0, tie_sccs.members[0]);
  const CycleRatioResult tie_full = max_cycle_ratio_howard(tie);
  ASSERT_EQ(tie_fast.critical_cycle.size(), 1u);
  EXPECT_EQ(tie_fast.critical_cycle, tie_full.critical_cycle);
  EXPECT_EQ(tie_fast.critical_cycle[0], 0);
}

TEST(HowardSccTest, TrivialZeroTokenSelfLoopIsInfinite) {
  RatioGraph rg;
  rg.g.add_nodes(1);
  rg.g.add_arc(0, 0);
  rg.weight = {5};
  rg.tokens = {0};
  const auto sccs = graph::strongly_connected_components(rg.g);
  const CycleRatioResult r =
      max_cycle_ratio_howard_scc(rg, sccs.component, 0, sccs.members[0]);
  EXPECT_TRUE(r.is_infinite());
}

TEST(HowardSccTest, FoldPrefersLargerAndKeepsInfiniteSticky) {
  CycleRatioResult acc;  // empty accumulator
  CycleRatioResult small;
  small.has_cycle = true;
  small.ratio_num = 3;
  small.ratio_den = 2;
  small.ratio = 1.5;
  small.critical_cycle = {7};
  fold_cycle_ratio(small, &acc);
  EXPECT_EQ(acc.ratio_num, 3);

  CycleRatioResult tie = small;  // equal ratio: earlier result sticks
  tie.critical_cycle = {9};
  fold_cycle_ratio(tie, &acc);
  EXPECT_EQ(acc.critical_cycle, std::vector<graph::ArcId>{7});

  CycleRatioResult bigger;
  bigger.has_cycle = true;
  bigger.ratio_num = 4;
  bigger.ratio_den = 2;
  bigger.ratio = 2.0;
  bigger.critical_cycle = {1};
  fold_cycle_ratio(bigger, &acc);
  EXPECT_EQ(acc.ratio_num, 4);

  CycleRatioResult infinite;
  infinite.has_cycle = true;
  infinite.ratio_num = 1;
  infinite.ratio_den = 0;
  infinite.ratio = std::numeric_limits<double>::infinity();
  infinite.critical_cycle = {2};
  fold_cycle_ratio(infinite, &acc);
  EXPECT_TRUE(acc.is_infinite());
  fold_cycle_ratio(bigger, &acc);  // finite never displaces infinite
  EXPECT_TRUE(acc.is_infinite());
  EXPECT_EQ(acc.critical_cycle, std::vector<graph::ArcId>{2});

  CycleRatioResult no_cycle;  // trivial components never displace anything
  CycleRatioResult acc2 = small;
  fold_cycle_ratio(no_cycle, &acc2);
  EXPECT_EQ(acc2.ratio_num, 3);
}

TEST(HowardSccPropertyTest, FoldOfPerSccSolvesReproducesGlobalHoward) {
  // The exact contract the partitioned engine is built on: solving each
  // component independently and folding in ascending component index is
  // bit-identical to whole-graph Howard — including the critical cycle.
  for (std::uint64_t iter = 0; iter < 40; ++iter) {
    util::Rng rng = util::Rng::for_shard(0xf01d, iter);
    RatioGraph rg;
    const auto n = static_cast<std::int32_t>(rng.uniform_int(1, 12));
    rg.g.add_nodes(n);
    const auto arcs = rng.uniform_int(0, 3 * n);
    for (std::int64_t a = 0; a < arcs; ++a) {
      const auto u =
          static_cast<graph::NodeId>(rng.index(static_cast<std::size_t>(n)));
      const auto v =
          static_cast<graph::NodeId>(rng.index(static_cast<std::size_t>(n)));
      rg.g.add_arc(u, v);
      rg.weight.push_back(rng.uniform_int(0, 9));
      // Mostly positive tokens; occasional zeros make some components
      // infinite so the sticky-infinite fold rule is exercised too.
      rg.tokens.push_back(rng.flip(0.15) ? 0 : rng.uniform_int(1, 2));
    }
    const CycleRatioResult global = max_cycle_ratio_howard(rg);
    const auto sccs = graph::strongly_connected_components(rg.g);
    CycleRatioResult folded;
    for (std::int32_t c = 0; c < sccs.num_components; ++c) {
      fold_cycle_ratio(
          max_cycle_ratio_howard_scc(rg, sccs.component, c,
                                     sccs.members[static_cast<std::size_t>(c)]),
          &folded);
    }
    EXPECT_EQ(folded.has_cycle, global.has_cycle) << "iter " << iter;
    EXPECT_EQ(folded.is_infinite(), global.is_infinite()) << "iter " << iter;
    if (global.is_infinite()) {
      // Both must report deadlock, but the witness cycle may differ: the
      // global entry screens the whole graph while the fold surfaces the
      // first infinite component. Each witness must still be token-free.
      for (const graph::ArcId a : folded.critical_cycle) {
        EXPECT_EQ(rg.arc_tokens(a), 0) << "iter " << iter;
      }
      continue;
    }
    // Finite results are bit-identical, critical cycle included.
    EXPECT_EQ(folded.ratio_num, global.ratio_num) << "iter " << iter;
    EXPECT_EQ(folded.ratio_den, global.ratio_den) << "iter " << iter;
    EXPECT_EQ(folded.ratio, global.ratio) << "iter " << iter;
    EXPECT_EQ(folded.critical_cycle, global.critical_cycle)
        << "iter " << iter;
  }
}

}  // namespace
}  // namespace ermes::tmg
