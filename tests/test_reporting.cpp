// Unit tests for latency sensitivity analysis.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "analysis/eval_cache.h"
#include "analysis/performance.h"
#include "analysis/sensitivity.h"
#include "apps/mpeg2/characterization.h"
#include "ordering/channel_ordering.h"
#include "ordering/repair.h"
#include "synth/generator.h"
#include "sysmodel/builder.h"

namespace ermes {
namespace {

using sysmodel::ProcessId;
using sysmodel::SystemModel;

// ---- sensitivity -----------------------------------------------------------

TEST(SensitivityTest, MotivatingExampleOnlyP2Matters) {
  // At the optimum the critical cycle is P2's own ring: only P2's latency
  // moves the cycle time; everyone else has zero marginal effect.
  SystemModel sys = ordering::with_optimal_ordering(
      sysmodel::make_dac14_motivating_example());
  const analysis::SensitivityReport report =
      analysis::latency_sensitivity(sys);
  EXPECT_DOUBLE_EQ(report.base_cycle_time, 12.0);
  ASSERT_FALSE(report.processes.empty());
  // Sorted descending: P2 first with gain 1 CT-cycle per latency cycle.
  EXPECT_EQ(sys.process_name(report.processes[0].process), "P2");
  EXPECT_DOUBLE_EQ(report.processes[0].ct_gain_per_cycle, 1.0);
  EXPECT_TRUE(report.processes[0].on_critical_cycle);
  for (std::size_t i = 1; i < report.processes.size(); ++i) {
    EXPECT_DOUBLE_EQ(report.processes[i].ct_gain_per_cycle, 0.0)
        << sys.process_name(report.processes[i].process);
  }
}

TEST(SensitivityTest, GainBoundedByOneOverTokens) {
  // On any live system the marginal gain per latency cycle is at most 1
  // (critical cycle with a single token) and never negative.
  SystemModel sys = ordering::with_optimal_ordering(
      mpeg2::make_characterized_mpeg2_encoder());
  const analysis::SensitivityReport report =
      analysis::latency_sensitivity(sys, 1000);
  for (const auto& entry : report.processes) {
    EXPECT_GE(entry.ct_gain_per_cycle, -1e-12);
    EXPECT_LE(entry.ct_gain_per_cycle, 1.0 + 1e-12);
  }
}

TEST(SensitivityTest, CriticalProcessesCarryTheGain) {
  SystemModel sys = ordering::with_optimal_ordering(
      mpeg2::make_characterized_mpeg2_encoder());
  const analysis::SensitivityReport report =
      analysis::latency_sensitivity(sys, 1000);
  // Every process with positive gain must be on the critical cycle.
  for (const auto& entry : report.processes) {
    if (entry.ct_gain_per_cycle > 1e-9) {
      EXPECT_TRUE(entry.on_critical_cycle)
          << sys.process_name(entry.process);
    }
  }
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_sensitivity(const analysis::SensitivityReport& got,
                             const analysis::SensitivityReport& want,
                             const std::string& what) {
  EXPECT_TRUE(bits_equal(got.base_cycle_time, want.base_cycle_time)) << what;
  ASSERT_EQ(got.processes.size(), want.processes.size()) << what;
  for (std::size_t i = 0; i < want.processes.size(); ++i) {
    const analysis::ProcessSensitivity& g = got.processes[i];
    const analysis::ProcessSensitivity& w = want.processes[i];
    EXPECT_EQ(g.process, w.process) << what << ", entry " << i;
    EXPECT_TRUE(bits_equal(g.ct_gain_per_cycle, w.ct_gain_per_cycle))
        << what << ", entry " << i;
    EXPECT_TRUE(bits_equal(g.ct_after_step, w.ct_after_step))
        << what << ", entry " << i;
    EXPECT_EQ(g.on_critical_cycle, w.on_critical_cycle)
        << what << ", entry " << i;
  }
}

TEST(SensitivityTest, EveryExecutionPathGivesTheSameReport) {
  // The serial uncached path, the serial cached path and four threads
  // (per-slot scratch models and warm solvers, cached and uncached) must
  // agree bit for bit. Each call gets its own cache so no path is served
  // from another's memo.
  struct Case {
    std::string name;
    SystemModel sys;
    std::int64_t step;
  };
  std::vector<Case> cases;
  cases.push_back({"mpeg2",
                   ordering::with_optimal_ordering(
                       mpeg2::make_characterized_mpeg2_encoder()),
                   1000});
  for (const std::uint64_t seed : {31ULL, 47ULL}) {
    synth::GeneratorConfig config;
    config.num_processes = 48;
    config.num_channels = 72;
    config.feedback_fraction = 0.3;
    config.seed = seed;
    SystemModel sys =
        ordering::with_optimal_ordering(synth::generate_soc(config));
    ASSERT_TRUE(ordering::ensure_live(sys).live) << "seed " << seed;
    cases.push_back({"synthetic seed " + std::to_string(seed), std::move(sys),
                     5});
  }
  for (const Case& c : cases) {
    const analysis::SensitivityReport plain =
        analysis::latency_sensitivity(c.sys, c.step);
    ASSERT_FALSE(plain.processes.empty()) << c.name;
    EXPECT_GT(plain.processes.front().ct_gain_per_cycle, 0.0) << c.name;

    expect_same_sensitivity(analysis::latency_sensitivity(c.sys, c.step, 4),
                            plain, c.name + ": jobs 4");

    analysis::EvalCache pooled_cache;
    expect_same_sensitivity(
        analysis::latency_sensitivity(c.sys, c.step, 4, &pooled_cache), plain,
        c.name + ": jobs 4 + cache");

    analysis::EvalCache serial_cache;
    expect_same_sensitivity(
        analysis::latency_sensitivity(c.sys, c.step, 1, &serial_cache), plain,
        c.name + ": jobs 1 + cache");
  }
}

TEST(SensitivityTest, DeadSystemYieldsEmptyReport) {
  SystemModel sys = sysmodel::make_dac14_motivating_example();
  sysmodel::apply_motivating_orders(sys, {"b", "d", "f"}, {"g", "d", "e"});
  const analysis::SensitivityReport report =
      analysis::latency_sensitivity(sys);
  EXPECT_TRUE(report.processes.empty());
}

TEST(SensitivityTest, SortedDescending) {
  SystemModel sys = ordering::with_optimal_ordering(
      mpeg2::make_characterized_mpeg2_encoder());
  const analysis::SensitivityReport report =
      analysis::latency_sensitivity(sys, 1000);
  for (std::size_t i = 1; i < report.processes.size(); ++i) {
    EXPECT_GE(report.processes[i - 1].ct_gain_per_cycle,
              report.processes[i].ct_gain_per_cycle);
  }
}

}  // namespace
}  // namespace ermes
