// Unit tests for the DSE methodology: candidate gains, area recovery,
// timing optimization, and the ERMES exploration loop.

#include <gtest/gtest.h>

#include <vector>

#include "analysis/performance.h"
#include "apps/mpeg2/characterization.h"
#include "dse/area_recovery.h"
#include "dse/explorer.h"
#include "dse/selection.h"
#include "dse/timing_opt.h"
#include "ordering/channel_ordering.h"
#include "synth/generator.h"
#include "synth/pareto_gen.h"
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

// ---- sweep -----------------------------------------------------------------------

TEST(SweepTest, SkipsTheTargetsAfterACancelledOne) {
  Fixture f;
  ExplorerOptions options;
  options.should_stop = [] { return true; };
  const std::vector<ExplorationResult> results =
      sweep(f.sys, {12, 30, 100}, options);
  ASSERT_EQ(results.size(), 3u);
  // The first exploration stops after its init record; the rest never run.
  EXPECT_TRUE(results[0].cancelled);
  EXPECT_EQ(results[0].history.size(), 1u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].cancelled);
    EXPECT_TRUE(results[i].history.empty());
  }
}

// Targets running on different threads reach the same candidates at the
// same time; the shared memo computes each one once (in-flight dedup), so a
// 4-job sweep misses exactly as often as a serial one, once per entry.
TEST(SweepTest, ConcurrentTargetsComputeEachCandidateOnce) {
  synth::GeneratorConfig config;
  config.num_processes = 256;
  config.num_channels = 448;
  config.feedback_fraction = 0.15;
  config.seed = 3;
  SystemModel generated = synth::generate_soc(config);
  synth::attach_pareto_sets(generated, 4);
  const SystemModel sys =
      ordering::with_optimal_ordering(std::move(generated));
  std::vector<std::int64_t> targets;
  for (std::int64_t tct = 800; tct <= 2000; tct += 50) targets.push_back(tct);

  analysis::EvalCache serial_cache;
  ExplorerOptions serial;
  serial.cache = &serial_cache;
  const std::vector<ExplorationResult> want = sweep(sys, targets, serial);
  ASSERT_EQ(serial_cache.misses(),
            static_cast<std::int64_t>(serial_cache.size()));

  for (int run = 0; run < 3; ++run) {
    analysis::EvalCache cache;
    ExplorerOptions options;
    options.cache = &cache;
    options.jobs = 4;
    const std::vector<ExplorationResult> got = sweep(sys, targets, options);
    EXPECT_EQ(cache.misses(), serial_cache.misses()) << "run " << run;
    EXPECT_EQ(cache.size(), serial_cache.size()) << "run " << run;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].history.size(), want[i].history.size());
      EXPECT_EQ(got[i].history.back().cycle_time,
                want[i].history.back().cycle_time);
    }
  }
}

TEST(SweepTest, EmptyTargetListIsEmpty) {
  Fixture f;
  ExplorerOptions options;
  options.jobs = 4;
  EXPECT_TRUE(sweep(f.sys, {}, options).empty());
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

}  // namespace
}  // namespace ermes::dse
