// Unit tests for the TMG module: structure, token game, ASAP timed
// simulation, liveness.

#include <gtest/gtest.h>

#include "lp_oracle/token_game.h"
#include "tmg/dot.h"
#include "tmg/liveness.h"
#include "tmg/marked_graph.h"

namespace ermes::tmg {
namespace {

// A two-transition producer/consumer ring: t0 -> p01 -> t1 -> p10 -> t0,
// token on p10 (t0 may fire first).
struct Ring2 {
  MarkedGraph g;
  TransitionId t0, t1;
  PlaceId p01, p10;
  Ring2(std::int64_t d0 = 1, std::int64_t d1 = 1) {
    t0 = g.add_transition(d0);
    t1 = g.add_transition(d1);
    p01 = g.add_place(t0, t1, 0);
    p10 = g.add_place(t1, t0, 1);
  }
};

// ---- structure -------------------------------------------------------------

TEST(MarkedGraphTest, BasicAccessors) {
  Ring2 ring(3, 5);
  EXPECT_EQ(ring.g.num_transitions(), 2);
  EXPECT_EQ(ring.g.num_places(), 2);
  EXPECT_EQ(ring.g.delay(ring.t0), 3);
  EXPECT_EQ(ring.g.delay(ring.t1), 5);
  EXPECT_EQ(ring.g.tokens(ring.p01), 0);
  EXPECT_EQ(ring.g.tokens(ring.p10), 1);
  EXPECT_EQ(ring.g.producer(ring.p01), ring.t0);
  EXPECT_EQ(ring.g.consumer(ring.p01), ring.t1);
}

TEST(MarkedGraphTest, PlaceDegreeInvariant) {
  // Every place has exactly one producer and one consumer by construction;
  // transition adjacency reflects that.
  Ring2 ring;
  EXPECT_EQ(ring.g.in_places(ring.t0).size(), 1u);
  EXPECT_EQ(ring.g.out_places(ring.t0).size(), 1u);
}

TEST(MarkedGraphTest, TotalTokens) {
  Ring2 ring;
  EXPECT_EQ(ring.g.total_tokens(), 1);
  ring.g.set_tokens(ring.p01, 4);
  EXPECT_EQ(ring.g.total_tokens(), 5);
}

TEST(MarkedGraphTest, SettersUpdate) {
  Ring2 ring;
  ring.g.set_delay(ring.t0, 9);
  EXPECT_EQ(ring.g.delay(ring.t0), 9);
}

TEST(MarkedGraphTest, TransitionGraphMirrorsPlaces) {
  Ring2 ring;
  const graph::Digraph tg = ring.g.transition_graph();
  EXPECT_EQ(tg.num_nodes(), 2);
  EXPECT_EQ(tg.num_arcs(), 2);
  EXPECT_EQ(tg.tail(ring.p01), ring.t0);
  EXPECT_EQ(tg.head(ring.p01), ring.t1);
}

TEST(MarkedGraphTest, DotExportBipartite) {
  Ring2 ring(3, 5);
  TmgDotOptions options;
  options.graph_name = "ring";
  const std::string dot = to_dot(ring.g, options);
  EXPECT_NE(dot.find("digraph \"ring\""), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);     // transitions
  EXPECT_NE(dot.find("shape=circle"), std::string::npos);  // places
  EXPECT_NE(dot.find("d=3"), std::string::npos);
  EXPECT_NE(dot.find("(1)"), std::string::npos);  // the token
  EXPECT_NE(dot.find("t0 -> p0"), std::string::npos);
}

// ---- token game ------------------------------------------------------------

TEST(TokenGameTest, InitialEnabling) {
  Ring2 ring;
  TokenGame game(ring.g);
  EXPECT_TRUE(game.is_enabled(ring.t0));
  EXPECT_FALSE(game.is_enabled(ring.t1));
  EXPECT_EQ(game.enabled(), (std::vector<TransitionId>{ring.t0}));
}

TEST(TokenGameTest, FireMovesTokens) {
  Ring2 ring;
  TokenGame game(ring.g);
  game.fire(ring.t0);
  EXPECT_EQ(game.tokens(ring.p01), 1);
  EXPECT_EQ(game.tokens(ring.p10), 0);
  EXPECT_TRUE(game.is_enabled(ring.t1));
  EXPECT_FALSE(game.is_enabled(ring.t0));
}

TEST(TokenGameTest, FiringSequenceReturnsToInitialMarking) {
  Ring2 ring;
  TokenGame game(ring.g);
  game.fire(ring.t0);
  game.fire(ring.t1);
  EXPECT_EQ(game.marking(), ring.g.initial_marking());
  EXPECT_EQ(game.fire_count(ring.t0), 1);
  EXPECT_EQ(game.fire_count(ring.t1), 1);
}

TEST(TokenGameTest, CycleTokenCountInvariant) {
  Ring2 ring;
  TokenGame game(ring.g);
  const std::vector<PlaceId> cycle{ring.p01, ring.p10};
  const std::int64_t before = game.tokens_on(cycle);
  game.fire(ring.t0);
  EXPECT_EQ(game.tokens_on(cycle), before);
  game.fire(ring.t1);
  EXPECT_EQ(game.tokens_on(cycle), before);
}

TEST(TokenGameTest, DeadlockedWhenNoTokens) {
  MarkedGraph g;
  const TransitionId t0 = g.add_transition(1);
  const TransitionId t1 = g.add_transition(1);
  g.add_place(t0, t1, 0);
  g.add_place(t1, t0, 0);
  TokenGame game(g);
  EXPECT_TRUE(game.is_deadlocked());
}

TEST(TokenGameTest, ResetRestoresInitialState) {
  Ring2 ring;
  TokenGame game(ring.g);
  game.fire(ring.t0);
  game.reset();
  EXPECT_EQ(game.marking(), ring.g.initial_marking());
  EXPECT_EQ(game.fire_count(ring.t0), 0);
}

TEST(TokenGameTest, MultiTokenPlaceEnablesRepeatedFiring) {
  MarkedGraph g;
  const TransitionId t0 = g.add_transition(1);
  const TransitionId t1 = g.add_transition(1);
  g.add_place(t0, t1, 0);
  const PlaceId p10 = g.add_place(t1, t0, 3);
  TokenGame game(g);
  game.fire(t0);
  game.fire(t0);
  game.fire(t0);
  EXPECT_EQ(game.tokens(p10), 0);
  EXPECT_FALSE(game.is_enabled(t0));
}

// ---- liveness --------------------------------------------------------------

TEST(LivenessTest, MarkedRingIsLive) {
  Ring2 ring;
  EXPECT_TRUE(is_live(ring.g));
}

TEST(LivenessTest, TokenFreeCycleIsDead) {
  MarkedGraph g;
  const TransitionId t0 = g.add_transition(1);
  const TransitionId t1 = g.add_transition(1);
  const PlaceId p01 = g.add_place(t0, t1, 0);
  const PlaceId p10 = g.add_place(t1, t0, 0);
  const LivenessResult result = check_liveness(g);
  EXPECT_FALSE(result.live);
  ASSERT_EQ(result.dead_cycle.size(), 2u);
  // The witness is a closed chain of places.
  const PlaceId a = result.dead_cycle[0];
  const PlaceId b = result.dead_cycle[1];
  EXPECT_EQ(g.consumer(a), g.producer(b));
  EXPECT_EQ(g.consumer(b), g.producer(a));
  (void)p01;
  (void)p10;
}

TEST(LivenessTest, TokenOnEveryCycleIsLive) {
  // Two nested cycles; both get a token.
  MarkedGraph g;
  const TransitionId a = g.add_transition(1);
  const TransitionId b = g.add_transition(1);
  const TransitionId c = g.add_transition(1);
  g.add_place(a, b, 1);  // on both cycles: every cycle holds >= 1 token
  g.add_place(b, c, 0);
  g.add_place(c, a, 0);
  g.add_place(b, a, 0);  // short cycle a->b->a
  EXPECT_TRUE(is_live(g));
}

TEST(LivenessTest, WitnessCycleIsTokenFree) {
  MarkedGraph g;
  const TransitionId a = g.add_transition(1);
  const TransitionId b = g.add_transition(1);
  const TransitionId c = g.add_transition(1);
  g.add_place(a, b, 1);
  g.add_place(b, c, 0);
  g.add_place(c, b, 0);  // dead 2-cycle b<->c
  const LivenessResult result = check_liveness(g);
  ASSERT_FALSE(result.live);
  for (PlaceId p : result.dead_cycle) {
    EXPECT_EQ(g.tokens(p), 0);
  }
}

TEST(LivenessTest, SelfLoopPlaceWithTokenLive) {
  MarkedGraph g;
  const TransitionId t = g.add_transition(1);
  g.add_place(t, t, 1);
  EXPECT_TRUE(is_live(g));
}

TEST(LivenessTest, SelfLoopPlaceWithoutTokenDead) {
  MarkedGraph g;
  const TransitionId t = g.add_transition(1);
  g.add_place(t, t, 0);
  const LivenessResult result = check_liveness(g);
  EXPECT_FALSE(result.live);
  EXPECT_EQ(result.dead_cycle.size(), 1u);
}

// ---- timed simulation ------------------------------------------------------

TEST(TimedSimTest, RingPeriodEqualsDelaySum) {
  Ring2 ring(3, 5);  // single token: period = 3 + 5 = 8
  const TimedSimResult result = simulate_asap(ring.g, ring.t0, 50);
  EXPECT_FALSE(result.deadlocked);
  EXPECT_NEAR(result.measured_cycle_time, 8.0, 1e-9);
}

TEST(TimedSimTest, TwoTokensHalveThePeriod) {
  MarkedGraph g;
  const TransitionId t0 = g.add_transition(3);
  const TransitionId t1 = g.add_transition(5);
  g.add_place(t0, t1, 0);
  g.add_place(t1, t0, 2);  // two tokens in flight
  const TimedSimResult result = simulate_asap(g, t0, 64);
  EXPECT_NEAR(result.measured_cycle_time, 4.0, 1e-9);
}

TEST(TimedSimTest, DeadlockDetected) {
  MarkedGraph g;
  const TransitionId t0 = g.add_transition(1);
  const TransitionId t1 = g.add_transition(1);
  g.add_place(t0, t1, 0);
  g.add_place(t1, t0, 0);
  const TimedSimResult result = simulate_asap(g, t0, 10);
  EXPECT_TRUE(result.deadlocked);
}

TEST(TimedSimTest, StartTimesMonotone) {
  Ring2 ring(2, 2);
  const TimedSimResult result = simulate_asap(ring.g, ring.t1, 20);
  for (std::size_t i = 1; i < result.observed_starts.size(); ++i) {
    EXPECT_GE(result.observed_starts[i], result.observed_starts[i - 1]);
  }
}

TEST(TimedSimTest, BottleneckRingDominates) {
  // Two rings sharing transition s: ring A period 4, ring B period 10.
  MarkedGraph g;
  const TransitionId s = g.add_transition(1);
  const TransitionId a = g.add_transition(3);
  const TransitionId b = g.add_transition(9);
  g.add_place(s, a, 0);
  g.add_place(a, s, 1);
  g.add_place(s, b, 0);
  g.add_place(b, s, 1);
  const TimedSimResult result = simulate_asap(g, s, 50);
  EXPECT_NEAR(result.measured_cycle_time, 10.0, 1e-9);
}

TEST(TimedSimTest, ZeroDelayTransitionsAllowed) {
  Ring2 ring(0, 4);
  const TimedSimResult result = simulate_asap(ring.g, ring.t0, 30);
  EXPECT_NEAR(result.measured_cycle_time, 4.0, 1e-9);
}

}  // namespace
}  // namespace ermes::tmg
