// Unit tests for the analysis module: TMG elaboration, performance report,
// deadlock diagnosis.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/deadlock.h"
#include "analysis/performance.h"
#include "analysis/tmg_builder.h"
#include "lp_oracle/token_game.h"
#include "sysmodel/builder.h"
#include "tmg/liveness.h"

namespace ermes::analysis {
namespace {

using sysmodel::ChannelId;
using sysmodel::ProcessId;
using sysmodel::SystemModel;
using sysmodel::make_dac14_motivating_example;

SystemModel two_stage() {
  SystemModel sys;
  const ProcessId src = sys.add_process("src", 1);
  const ProcessId p = sys.add_process("p", 4);
  const ProcessId snk = sys.add_process("snk", 1);
  sys.add_channel("a", src, p, 2);
  sys.add_channel("b", p, snk, 3);
  return sys;
}

// ---- TMG structure ---------------------------------------------------------

TEST(TmgBuilderTest, TransitionCounts) {
  const SystemTmg stmg = build_tmg(two_stage());
  // One transition per channel + one compute transition per process.
  EXPECT_EQ(stmg.graph.num_transitions(), 2 + 3);
  // Ring places: src has 2 elements, p has 3, snk has 2 -> 7 places.
  EXPECT_EQ(stmg.graph.num_places(), 7);
}

TEST(TmgBuilderTest, ChannelTransitionDelays) {
  const SystemModel sys = two_stage();
  const SystemTmg stmg = build_tmg(sys);
  EXPECT_EQ(stmg.graph.delay(stmg.channel_transition[0]), 2);
  EXPECT_EQ(stmg.graph.delay(stmg.channel_transition[1]), 3);
  EXPECT_EQ(stmg.graph.delay(stmg.compute_transition[1]), 4);
}

TEST(TmgBuilderTest, OneTokenPerProcessRing) {
  const SystemModel sys = make_dac14_motivating_example();
  const SystemTmg stmg = build_tmg(sys);
  EXPECT_EQ(stmg.graph.total_tokens(), sys.num_processes());
}

TEST(TmgBuilderTest, TokenOnFirstGetPlace) {
  const SystemModel sys = two_stage();
  const SystemTmg stmg = build_tmg(sys);
  for (tmg::PlaceId pl = 0; pl < stmg.graph.num_places(); ++pl) {
    if (stmg.graph.tokens(pl) == 0) continue;
    const PlaceRole& role = stmg.place_role[static_cast<std::size_t>(pl)];
    if (role.process == 0) {
      // Source: token on its first put-place.
      EXPECT_EQ(role.kind, PlaceRole::Kind::kPut);
    } else {
      EXPECT_EQ(role.kind, PlaceRole::Kind::kGet);
    }
  }
}

TEST(TmgBuilderTest, PrimedProcessTokenOnPutPlace) {
  SystemModel sys;
  const ProcessId a = sys.add_process("a", 1);
  const ProcessId b = sys.add_process("b", 1);
  const ProcessId c = sys.add_process("c", 1);
  sys.add_channel("ab", a, b, 1);
  sys.add_channel("bc", b, c, 1);
  sys.set_primed(b, true);
  const SystemTmg stmg = build_tmg(sys);
  bool found = false;
  for (tmg::PlaceId pl = 0; pl < stmg.graph.num_places(); ++pl) {
    const PlaceRole& role = stmg.place_role[static_cast<std::size_t>(pl)];
    if (role.process == b && stmg.graph.tokens(pl) == 1) {
      EXPECT_EQ(role.kind, PlaceRole::Kind::kPut);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TmgBuilderTest, ChannelTransitionSharedBetweenRings) {
  const SystemModel sys = two_stage();
  const SystemTmg stmg = build_tmg(sys);
  // Channel transition "a" has exactly two input places: the put-place of
  // src and the get-place of p (Fig. 3 of the paper).
  const tmg::TransitionId t = stmg.channel_transition[0];
  ASSERT_EQ(stmg.graph.in_places(t).size(), 2u);
  const auto role0 =
      stmg.place_role[static_cast<std::size_t>(stmg.graph.in_places(t)[0])];
  const auto role1 =
      stmg.place_role[static_cast<std::size_t>(stmg.graph.in_places(t)[1])];
  EXPECT_NE(role0.kind == PlaceRole::Kind::kPut,
            role1.kind == PlaceRole::Kind::kPut);
}

TEST(TmgBuilderTest, RingOrderFollowsIOOrders) {
  // In the motivating example P2 puts b then d then f; the TMG must chain
  // ch_b -> ch_d -> ch_f through P2's put-places.
  const SystemModel sys = make_dac14_motivating_example();
  const SystemTmg stmg = build_tmg(sys);
  const ProcessId p2 = sys.find_process("P2");
  const tmg::TransitionId tb =
      stmg.channel_transition[static_cast<std::size_t>(sys.find_channel("b"))];
  const tmg::TransitionId td =
      stmg.channel_transition[static_cast<std::size_t>(sys.find_channel("d"))];
  bool found = false;
  for (tmg::PlaceId pl : stmg.graph.out_places(tb)) {
    if (stmg.graph.consumer(pl) == td &&
        stmg.place_role[static_cast<std::size_t>(pl)].process == p2) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TmgBuilderTest, NamesFollowTheNamingContract) {
  // The graph stores no names; transition_name/place_name derive them from
  // the origins and roles. A FIFO (capacity 2) and an unbounded channel
  // cover the rd_/data_/space_ forms.
  SystemModel sys = two_stage();
  sys.set_channel_capacity(0, 2);
  sys.set_channel_capacity(1, sysmodel::kUnboundedCapacity);
  const SystemTmg stmg = build_tmg(sys);
  std::vector<std::string> transitions;
  for (tmg::TransitionId t = 0; t < stmg.graph.num_transitions(); ++t) {
    transitions.push_back(transition_name(sys, stmg, t));
  }
  EXPECT_EQ(transitions,
            (std::vector<std::string>{"ch_a", "rd_a", "ch_b", "rd_b", "L_src",
                                      "L_p", "L_snk"}));
  std::vector<std::string> places;
  for (tmg::PlaceId p = 0; p < stmg.graph.num_places(); ++p) {
    places.push_back(place_name(sys, stmg, p));
  }
  EXPECT_EQ(places, (std::vector<std::string>{
                        "cin_src", "put_src_a", "get_p_a", "cin_p",
                        "put_p_b", "get_snk_b", "cin_snk", "data_a",
                        "space_a", "data_b"}));
}

// ---- performance -----------------------------------------------------------

TEST(PerformanceTest, TwoStageCycleTime) {
  // p's ring: ch_a(2) + L_p(4) + ch_b(3) = 9; src ring: 1+2=3; snk: 3+1=4.
  const PerformanceReport report = analyze_system(two_stage());
  ASSERT_TRUE(report.live);
  EXPECT_DOUBLE_EQ(report.cycle_time, 9.0);
  EXPECT_DOUBLE_EQ(report.throughput, 1.0 / 9.0);
  EXPECT_EQ(report.ct_num, 9);
  EXPECT_EQ(report.ct_den, 1);
}

TEST(PerformanceTest, CriticalCycleNamesBottleneckProcess) {
  const PerformanceReport report = analyze_system(two_stage());
  ASSERT_TRUE(report.live);
  EXPECT_EQ(report.critical_processes, (std::vector<ProcessId>{1}));
  // Both channels of p's ring are on the critical cycle.
  EXPECT_EQ(report.critical_channels.size(), 2u);
}

TEST(PerformanceTest, LatencyChangeMovesCriticalCycle) {
  SystemModel sys = two_stage();
  sys.set_latency(1, 1);   // p's ring: 2+1+3 = 6
  sys.set_latency(2, 20);  // snk ring: 3+20 = 23 dominates
  const PerformanceReport report = analyze_system(sys);
  EXPECT_DOUBLE_EQ(report.cycle_time, 23.0);
  EXPECT_EQ(report.critical_processes, (std::vector<ProcessId>{2}));
}

TEST(PerformanceTest, SummarizeMentionsProcesses) {
  const SystemModel sys = two_stage();
  const PerformanceReport report = analyze_system(sys);
  const std::string text = summarize(report, sys);
  EXPECT_NE(text.find("cycle time 9"), std::string::npos);
  EXPECT_NE(text.find("p"), std::string::npos);
}

TEST(PerformanceTest, AnalysisMatchesTokenGameSimulation) {
  const SystemModel sys = make_dac14_motivating_example();
  const SystemTmg stmg = build_tmg(sys);
  const PerformanceReport report = analyze(stmg);
  ASSERT_TRUE(report.live);
  const tmg::TimedSimResult sim =
      tmg::simulate_asap(stmg.graph, stmg.compute_transition[0], 300);
  ASSERT_FALSE(sim.deadlocked);
  EXPECT_NEAR(sim.measured_cycle_time, report.cycle_time, 1e-9);
}

// ---- deadlock --------------------------------------------------------------

TEST(DeadlockTest, MotivatingDeadlockOrderIsDead) {
  SystemModel sys = make_dac14_motivating_example();
  // Section 2: P2 puts (b,d,f) with P6 gets (g,d,e) deadlocks.
  sysmodel::apply_motivating_orders(sys, {"b", "d", "f"}, {"g", "d", "e"});
  const SystemTmg stmg = build_tmg(sys);
  const PerformanceReport report = analyze(stmg);
  ASSERT_FALSE(report.live);
  const DeadlockDiagnosis diag =
      diagnose_deadlock(stmg, sys, report.dead_cycle);
  ASSERT_TRUE(diag.deadlocked);
  // The circular wait is exactly the one narrated in the paper:
  // P2 blocked at put(d) -> P6 blocked at get(g) -> P5 blocked at get(f).
  const std::string text = to_string(diag, sys);
  EXPECT_NE(text.find("P2 blocked at put(d)"), std::string::npos);
  EXPECT_NE(text.find("P6 blocked at get(g)"), std::string::npos);
  EXPECT_NE(text.find("P5 blocked at get(f)"), std::string::npos);
}

TEST(DeadlockTest, LiveSystemYieldsNoDiagnosis) {
  const DeadlockDiagnosis diag =
      diagnose_system(make_dac14_motivating_example());
  EXPECT_FALSE(diag.deadlocked);
  EXPECT_EQ(to_string(diag, make_dac14_motivating_example()), "no deadlock");
}

TEST(DeadlockTest, WaitCycleAlternatesPutsAndGets) {
  SystemModel sys = make_dac14_motivating_example();
  sysmodel::apply_motivating_orders(sys, {"b", "d", "f"}, {"g", "d", "e"});
  const DeadlockDiagnosis diag = diagnose_system(sys);
  ASSERT_TRUE(diag.deadlocked);
  ASSERT_FALSE(diag.wait_cycle.empty());
  // Every blocked statement involves a distinct process.
  std::set<ProcessId> procs;
  for (const BlockedStatement& blocked : diag.wait_cycle) {
    procs.insert(blocked.process);
  }
  EXPECT_EQ(procs.size(), diag.wait_cycle.size());
}

}  // namespace
}  // namespace ermes::analysis
