// Unit tests for the synthetic SoC generator and the Pareto-set generator.

#include <gtest/gtest.h>

#include "analysis/performance.h"
#include "graph/traversal.h"
#include "ordering/baselines.h"
#include "synth/generator.h"
#include "synth/pareto_gen.h"
#include "sysmodel/validate.h"

namespace ermes::synth {
namespace {

using sysmodel::ChannelId;
using sysmodel::ProcessId;
using sysmodel::SystemModel;

class GeneratorInvariants : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  GeneratorConfig config_for_seed() const {
    GeneratorConfig config;
    util::Rng rng(GetParam() * 31ULL);
    config.num_processes = static_cast<std::int32_t>(rng.uniform_int(5, 120));
    config.num_channels = static_cast<std::int32_t>(
        config.num_processes + rng.uniform_int(0, 2 * config.num_processes));
    config.feedback_fraction = rng.uniform_real(0.0, 0.4);
    config.seed = GetParam();
    return config;
  }
};

TEST_P(GeneratorInvariants, ValidatesCleanly) {
  const SystemModel sys = generate_soc(config_for_seed());
  const sysmodel::ValidationReport report = sysmodel::validate(sys);
  EXPECT_TRUE(report.ok());
  for (const std::string& warning : report.warnings) {
    ADD_FAILURE() << warning;
  }
}

TEST_P(GeneratorInvariants, ProcessCountRespected) {
  const GeneratorConfig config = config_for_seed();
  const SystemModel sys = generate_soc(config);
  // Relays may add processes beyond the request only when feedback demands;
  // the generator budgets them from the request, so the count matches.
  EXPECT_EQ(sys.num_processes(), config.num_processes);
}

TEST_P(GeneratorInvariants, EveryProcessOnSourceToSinkPath) {
  const SystemModel sys = generate_soc(config_for_seed());
  const graph::Digraph topo = sys.topology();
  const ProcessId src = sys.find_process("src");
  const ProcessId snk = sys.find_process("snk");
  const auto from_src = graph::reachable_from(topo, src);
  const auto to_snk = graph::reaches(topo, snk);
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    EXPECT_TRUE(from_src[static_cast<std::size_t>(p)])
        << sys.process_name(p);
    EXPECT_TRUE(to_snk[static_cast<std::size_t>(p)]) << sys.process_name(p);
  }
}

TEST_P(GeneratorInvariants, LatenciesWithinConfiguredRange) {
  GeneratorConfig config = config_for_seed();
  config.min_channel_latency = 3;
  config.max_channel_latency = 9;
  const SystemModel sys = generate_soc(config);
  for (ChannelId c = 0; c < sys.num_channels(); ++c) {
    EXPECT_GE(sys.channel_latency(c), 3);
    EXPECT_LE(sys.channel_latency(c), 9);
  }
}

TEST_P(GeneratorInvariants, DeterministicForSeed) {
  const GeneratorConfig config = config_for_seed();
  const SystemModel a = generate_soc(config);
  const SystemModel b = generate_soc(config);
  ASSERT_EQ(a.num_processes(), b.num_processes());
  ASSERT_EQ(a.num_channels(), b.num_channels());
  for (ChannelId c = 0; c < a.num_channels(); ++c) {
    EXPECT_EQ(a.channel_source(c), b.channel_source(c));
    EXPECT_EQ(a.channel_target(c), b.channel_target(c));
    EXPECT_EQ(a.channel_latency(c), b.channel_latency(c));
  }
}

TEST_P(GeneratorInvariants, FeedbackLoopsGoThroughPrimedRelays) {
  GeneratorConfig config = config_for_seed();
  config.feedback_fraction = 0.3;
  const SystemModel sys = generate_soc(config);
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    const std::string& name = sys.process_name(p);
    if (name.rfind("relay", 0) == 0) {
      // Double-buffered pair: the downstream half (_b) is primed.
      EXPECT_EQ(sys.primed(p), name.back() == 'b') << name;
      EXPECT_EQ(sys.input_order(p).size(), 1u);
      EXPECT_EQ(sys.output_order(p).size(), 1u);
    }
  }
}

TEST_P(GeneratorInvariants, LiveOrderingExists) {
  // Insertion order alone can deadlock (reconvergent paths — exactly the
  // hazard the paper opens with), but the relay tokens guarantee that a
  // live ordering exists: the conservative ordering must find one.
  SystemModel sys = generate_soc(config_for_seed());
  ordering::apply_conservative_ordering(sys);
  EXPECT_TRUE(analysis::analyze_system(sys).live);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorInvariants,
                         ::testing::Range<std::uint64_t>(1, 16));

TEST(GeneratorTest, ZeroFeedbackYieldsDag) {
  GeneratorConfig config;
  config.num_processes = 40;
  config.num_channels = 80;
  config.feedback_fraction = 0.0;
  config.seed = 5;
  const SystemModel sys = generate_soc(config);
  EXPECT_TRUE(graph::is_acyclic(sys.topology()));
}

TEST(GeneratorTest, LargeGraphGeneratesQuickly) {
  GeneratorConfig config;
  config.num_processes = 10'000;
  config.num_channels = 15'000;
  config.feedback_fraction = 0.1;
  config.seed = 7;
  const SystemModel sys = generate_soc(config);
  EXPECT_EQ(sys.num_processes(), 10'000);
  EXPECT_GE(sys.num_channels(), 10'000);
}

// ---- pareto generation -----------------------------------------------------

TEST(ParetoGenTest, FrontierIsParetoOptimal) {
  util::Rng rng(9);
  const sysmodel::ParetoSet set = generate_pareto_set(1000, 0.5, 6, rng);
  EXPECT_GE(set.size(), 2u);
  EXPECT_TRUE(set.is_pareto_optimal());
}

TEST(ParetoGenTest, SpansSpeedupRange) {
  util::Rng rng(10);
  const sysmodel::ParetoSet set = generate_pareto_set(1024, 1.0, 5, rng);
  EXPECT_LT(set.at(0).latency, set.at(set.size() - 1).latency);
  EXPECT_GT(set.at(0).area, set.at(set.size() - 1).area);
}

TEST(ParetoGenTest, AttachKeepsCurrentLatency) {
  GeneratorConfig config;
  config.num_processes = 20;
  config.num_channels = 30;
  config.seed = 11;
  SystemModel sys = generate_soc(config);
  std::vector<std::int64_t> latencies;
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    latencies.push_back(sys.latency(p));
  }
  attach_pareto_sets(sys, 13);
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    if (!sys.has_implementations(p)) continue;
    // The selected (base) point is the slowest of the frontier, which is at
    // most the original latency (jitter can only speed it up slightly).
    EXPECT_LE(sys.latency(p),
              latencies[static_cast<std::size_t>(p)] + 1);
  }
}

TEST(ParetoGenTest, AttachSkipsTestbenchAndRelays) {
  GeneratorConfig config;
  config.num_processes = 30;
  config.num_channels = 60;
  config.feedback_fraction = 0.3;
  config.seed = 17;
  SystemModel sys = generate_soc(config);
  attach_pareto_sets(sys, 19);
  EXPECT_FALSE(sys.has_implementations(sys.find_process("src")));
  EXPECT_FALSE(sys.has_implementations(sys.find_process("snk")));
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    if (sys.primed(p)) {
      EXPECT_FALSE(sys.has_implementations(p));
    }
  }
}

TEST(ParetoGenTest, TotalPointsReported) {
  GeneratorConfig config;
  config.num_processes = 25;
  config.num_channels = 40;
  config.seed = 23;
  SystemModel sys = generate_soc(config);
  const std::size_t total = attach_pareto_sets(sys, 29);
  EXPECT_EQ(total, sys.total_pareto_points());
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace ermes::synth
