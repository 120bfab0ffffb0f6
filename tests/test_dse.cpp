// Unit tests for the DSE methodology: candidate gains, area recovery,
// timing optimization, and the ERMES exploration loop.

#include <gtest/gtest.h>

#include "analysis/performance.h"
#include "apps/mpeg2/characterization.h"
#include "dse/area_recovery.h"
#include "dse/explorer.h"
#include "dse/selection.h"
#include "dse/timing_opt.h"
#include "sysmodel/system.h"

namespace ermes::dse {
namespace {

using sysmodel::ParetoSet;
using sysmodel::ProcessId;
using sysmodel::SystemModel;

// src -> a -> b -> snk; a and b have 3-point frontiers.
struct Fixture {
  SystemModel sys;
  ProcessId a, b;
  Fixture() {
    const ProcessId src = sys.add_process("src", 1);
    a = sys.add_process("a", 0);
    b = sys.add_process("b", 0);
    const ProcessId snk = sys.add_process("snk", 1);
    sys.add_channel("sa", src, a, 1);
    sys.add_channel("ab", a, b, 1);
    sys.add_channel("bs", b, snk, 1);
    ParetoSet set_a;
    set_a.add({"fast", 4, 8.0});
    set_a.add({"mid", 8, 4.0});
    set_a.add({"slow", 16, 2.0});
    sys.set_implementations(a, set_a, 2);  // slow selected
    ParetoSet set_b;
    set_b.add({"fast", 5, 6.0});
    set_b.add({"mid", 10, 3.0});
    set_b.add({"slow", 20, 1.5});
    sys.set_implementations(b, set_b, 2);
  }
};

// ---- selection --------------------------------------------------------------

TEST(SelectionTest, CandidatesIncludeNoOpWithZeroGains) {
  Fixture f;
  const auto cands = candidates_of(f.sys, f.a);
  ASSERT_EQ(cands.size(), 3u);
  EXPECT_EQ(cands[2].latency_gain, 0);
  EXPECT_DOUBLE_EQ(cands[2].area_gain, 0.0);
}

TEST(SelectionTest, GainSignsFollowParetoStructure) {
  Fixture f;
  const auto cands = candidates_of(f.sys, f.a);
  // Fastest candidate: positive latency gain (16 -> 4), negative area gain.
  EXPECT_EQ(cands[0].latency_gain, 12);
  EXPECT_DOUBLE_EQ(cands[0].area_gain, 2.0 - 8.0);
}

TEST(SelectionTest, ProcessWithoutImplementationsYieldsNoOp) {
  Fixture f;
  const auto cands = candidates_of(f.sys, 0);  // src
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].latency_gain, 0);
}

TEST(SelectionTest, ApplySelectionRoundTrip) {
  Fixture f;
  SelectionVector sel = current_selection(f.sys);
  EXPECT_EQ(sel[static_cast<std::size_t>(f.a)], 2u);
  sel[static_cast<std::size_t>(f.a)] = 0;
  EXPECT_TRUE(apply_selection(f.sys, sel));
  EXPECT_EQ(f.sys.latency(f.a), 4);
  EXPECT_FALSE(apply_selection(f.sys, sel));  // idempotent
}

// ---- area recovery ------------------------------------------------------------

TEST(AreaRecoveryTest, NoSlackMeansNoMove) {
  Fixture f;
  const AreaRecoveryResult result = area_recovery(f.sys, {f.a, f.b}, 0);
  EXPECT_FALSE(result.feasible);
}

TEST(AreaRecoveryTest, RespectsLatencyBudgetOnCriticalCycle) {
  Fixture f;
  // Start from the fastest implementations.
  f.sys.select_implementation(f.a, 0);
  f.sys.select_implementation(f.b, 0);
  // Slack 13 (budget 12 after the strict margin): can afford a: 4->8 (+4)
  // and b: 5->10 (+5) but not both slowest (12 + 15).
  const AreaRecoveryResult result = area_recovery(f.sys, {f.a, f.b}, 13);
  ASSERT_TRUE(result.feasible);
  EXPECT_LE(result.latency_spent, 12);
  EXPECT_GT(result.area_gain, 0.0);
}

TEST(AreaRecoveryTest, NonCriticalProcessesUnconstrained) {
  Fixture f;
  f.sys.select_implementation(f.a, 0);
  f.sys.select_implementation(f.b, 0);
  // Only a is critical; b may take its smallest implementation outright.
  const AreaRecoveryResult result = area_recovery(f.sys, {f.a}, 2);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.selection[static_cast<std::size_t>(f.b)], 2u);
}

TEST(AreaRecoveryTest, PicksMaximalAreaGainWithinBudget) {
  Fixture f;
  f.sys.select_implementation(f.a, 0);
  f.sys.select_implementation(f.b, 0);
  // Generous slack: everything can go slowest.
  const AreaRecoveryResult result = area_recovery(f.sys, {f.a, f.b}, 1000);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.selection[static_cast<std::size_t>(f.a)], 2u);
  EXPECT_EQ(result.selection[static_cast<std::size_t>(f.b)], 2u);
  EXPECT_NEAR(result.area_gain, (8.0 - 2.0) + (6.0 - 1.5), 1e-9);
}

// ---- timing optimization -------------------------------------------------------

TEST(TimingOptTest, SelectsFasterImplementationsOnCriticalCycle) {
  Fixture f;  // slow everywhere
  const TimingOptResult result = timing_optimization(f.sys, {f.a, f.b}, 100);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.selection[static_cast<std::size_t>(f.a)], 0u);
  EXPECT_EQ(result.selection[static_cast<std::size_t>(f.b)], 0u);
  EXPECT_EQ(result.latency_gain, 12 + 15);
}

TEST(TimingOptTest, StageBOnlySpendsWhatIsNeeded) {
  Fixture f;
  // Need only 9 cycles of gain: a: 16->8 (+8) is not enough alone; the
  // optimizer must reach >= 9 but may then recover area (not everything
  // fastest).
  const TimingOptResult result = timing_optimization(f.sys, {f.a, f.b}, 9);
  ASSERT_TRUE(result.feasible);
  EXPECT_GE(result.latency_gain, 9);
  // Area gain must be strictly better than the all-fastest selection
  // (which costs (8-2)+(6-1.5) = -10.5 of area gain).
  EXPECT_GT(result.area_gain, -10.5);
}

TEST(TimingOptTest, AreaBudgetRespected) {
  Fixture f;
  // Current area = 2 + 1.5 = 3.5. Budget 8.0 allows a->mid (4.0) + b->mid
  // (3.0) = 7, or a->fast(8)+b stays(1.5) = 9.5 > 8.
  const TimingOptResult result =
      timing_optimization(f.sys, {f.a, f.b}, 100, 8.0);
  ASSERT_TRUE(result.feasible);
  double area = 0.0;
  for (ProcessId p = 0; p < f.sys.num_processes(); ++p) {
    if (!f.sys.has_implementations(p)) continue;
    area += f.sys.implementations(p)
                .at(result.selection[static_cast<std::size_t>(p)])
                .area;
  }
  EXPECT_LE(area, 8.0 + 1e-9);
  EXPECT_GT(result.latency_gain, 0);
}

TEST(TimingOptTest, NonCriticalProcessesRecoverArea) {
  Fixture f;
  f.sys.select_implementation(f.b, 0);  // b fast (area 6) but not critical
  const TimingOptResult result = timing_optimization(f.sys, {f.a}, 100);
  ASSERT_TRUE(result.feasible);
  // b should fall back to its smallest implementation.
  EXPECT_EQ(result.selection[static_cast<std::size_t>(f.b)], 2u);
}

// ---- explorer -------------------------------------------------------------------

TEST(ExplorerTest, MeetsTargetOnFixture) {
  Fixture f;
  ExplorerOptions options;
  options.target_cycle_time = 12;  // b's ring slow: 1+20+1 = 22 > 12
  const ExplorationResult result = explore(f.sys, options);
  ASSERT_FALSE(result.history.empty());
  EXPECT_TRUE(result.met_target);
  EXPECT_LT(result.history.back().cycle_time,
            result.history.front().cycle_time);
}

TEST(ExplorerTest, HistoryStartsWithInitAction) {
  Fixture f;
  ExplorerOptions options;
  options.target_cycle_time = 12;
  const ExplorationResult result = explore(f.sys, options);
  EXPECT_EQ(result.history.front().action, Action::kInit);
  EXPECT_EQ(result.history.front().iteration, 0);
}

TEST(ExplorerTest, AreaRecoveryWhenTargetAlreadyMet) {
  Fixture f;
  f.sys.select_implementation(f.a, 0);
  f.sys.select_implementation(f.b, 0);
  ExplorerOptions options;
  options.target_cycle_time = 100;  // loose: CT ~ 12ish
  const ExplorationResult result = explore(f.sys, options);
  ASSERT_GE(result.history.size(), 2u);
  EXPECT_EQ(result.history[1].action, Action::kAreaRecovery);
  EXPECT_LT(result.history.back().area, result.history.front().area);
  EXPECT_TRUE(result.met_target);
}

TEST(ExplorerTest, TerminatesAtFixpoint) {
  Fixture f;
  ExplorerOptions options;
  options.target_cycle_time = 1;  // unattainable
  options.max_iterations = 10;
  const ExplorationResult result = explore(f.sys, options);
  EXPECT_TRUE(result.converged);
  EXPECT_FALSE(result.met_target);
  // After picking the fastest implementations nothing else can improve.
  EXPECT_LE(result.history.size(), 4u);
}

TEST(ExplorerTest, ActionStringsStable) {
  EXPECT_STREQ(to_string(Action::kInit), "init");
  EXPECT_STREQ(to_string(Action::kTimingOpt), "timing-opt");
  EXPECT_STREQ(to_string(Action::kAreaRecovery), "area-recovery");
}

// ---- explorer on the MPEG-2 model ------------------------------------------------

TEST(ExplorerMpeg2Test, TimingExplorationImprovesM2) {
  sysmodel::SystemModel sys = mpeg2::make_characterized_mpeg2_encoder();
  const double ct0 = analysis::analyze_system(sys).cycle_time;
  ExplorerOptions options;
  options.target_cycle_time = static_cast<std::int64_t>(ct0 * 0.55);
  options.max_iterations = 12;
  const ExplorationResult result = explore(sys, options);
  ASSERT_FALSE(result.history.empty());
  EXPECT_LT(result.history.back().cycle_time, ct0);
  EXPECT_TRUE(result.history.back().live);
}

TEST(ExplorerMpeg2Test, AreaRecoveryReducesAreaUnderLooseTarget) {
  sysmodel::SystemModel sys = mpeg2::make_characterized_mpeg2_encoder();
  mpeg2::select_m1(sys);  // fastest/largest start
  const double area0 = sys.total_area();
  const double ct0 = analysis::analyze_system(sys).cycle_time;
  ExplorerOptions options;
  options.target_cycle_time = static_cast<std::int64_t>(ct0 * 2.0);
  options.max_iterations = 12;
  const ExplorationResult result = explore(sys, options);
  EXPECT_LT(result.history.back().area, area0);
  EXPECT_TRUE(result.met_target);
}

// ---- dual (area-constrained) explorer ---------------------------------------

TEST(DualExplorerTest, ImprovesCtWithinBudgetOnFixture) {
  Fixture f;  // slow/small everywhere: area 3.5, CT 22
  const ExplorationResult result = explore_area_constrained(f.sys, 8.0, {});
  ASSERT_FALSE(result.history.empty());
  EXPECT_TRUE(result.met_target);  // area stays under budget
  EXPECT_LT(result.history.back().cycle_time,
            result.history.front().cycle_time);
  EXPECT_LE(result.history.back().area, 8.0 + 1e-9);
}

TEST(DualExplorerTest, TightBudgetLimitsSpeedup) {
  Fixture f;
  const ExplorationResult fast = explore_area_constrained(f.sys, 100.0, {});
  const ExplorationResult slow = explore_area_constrained(f.sys, 5.0, {});
  EXPECT_LE(fast.history.back().cycle_time,
            slow.history.back().cycle_time);
  EXPECT_LE(slow.history.back().area, 5.0 + 1e-9);
}

TEST(DualExplorerTest, Mpeg2UnderBudget) {
  sysmodel::SystemModel sys = mpeg2::make_characterized_mpeg2_encoder();
  const double area0 = sys.total_area();
  const double ct0 = analysis::analyze_system(sys).cycle_time;
  ExplorerOptions options;
  options.max_iterations = 8;
  const ExplorationResult result =
      explore_area_constrained(sys, area0 * 1.15, options);
  EXPECT_TRUE(result.met_target);
  EXPECT_LT(result.history.back().cycle_time, ct0);
  EXPECT_LE(result.history.back().area, area0 * 1.15 + 1e-9);
}

}  // namespace
}  // namespace ermes::dse
