// Golden DSE trajectories. Each case pins every iteration's action, exact
// cycle time and exact area, the met/converged flags and a digest of the
// final selection vector, for the paper's MPEG-2 explorations (Fig. 6 left
// and right, the Table 1 targets, the area-constrained dual) and for 20
// seeded synthetic SoCs with generated Pareto sets.
//
// A change to the selection solvers or the exploration loop that moves any
// of these strings changed a DSE answer, not only its speed. When a move is
// intended (e.g. a different tie-break among equal optima), the failure
// message prints the new string to paste here.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>

#include "analysis/performance.h"
#include "apps/mpeg2/characterization.h"
#include "dse/explorer.h"
#include "dse/selection.h"
#include "ordering/channel_ordering.h"
#include "ordering/repair.h"
#include "synth/generator.h"
#include "synth/pareto_gen.h"

namespace ermes::dse {
namespace {

std::uint64_t selection_digest(const sysmodel::SystemModel& sys) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (std::size_t choice : current_selection(sys)) {
    h = (h ^ static_cast<std::uint64_t>(choice)) * 1099511628211ull;
  }
  return h;
}

// "<action> <CT> <area>;" per iteration, %.17g so doubles round-trip
// exactly, then the flags and the final selection digest.
std::string trajectory(const ExplorationResult& result) {
  std::string out;
  char buf[128];
  for (const IterationRecord& rec : result.history) {
    std::snprintf(buf, sizeof buf, "%s %.17g %.17g;", to_string(rec.action),
                  rec.cycle_time, rec.area);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "met=%d conv=%d sel=%016" PRIx64,
                result.met_target ? 1 : 0, result.converged ? 1 : 0,
                selection_digest(result.final_system));
  out += buf;
  return out;
}

const std::map<std::string, std::string>& golden() {
  static const std::map<std::string, std::string> table = {
      {"fig6-left",
       "init 2921924 1.4481815192509768;"
       "timing-opt 2485337 1.6623254753930019;"
       "timing-opt 1667536 1.7419084451121944;"
       "timing-opt 1633575 1.7494463853700279;"
       "timing-opt 1628098 1.753736182684037;"
       "timing-opt 1623635 1.7583069518470207;"
       "met=1 conv=1 sel=93ca075806494427"},
      // Iteration 2's stage-B optimum is tied: processes 4 and 8 offer
      // equal-area implementations, and the lexicographic tie-break takes
      // process 4's.
      {"fig6-right",
       "init 2921924 1.4481815192509768;"
       "area-recovery 3431761 1.2343385531414111;"
       "timing-opt 3245486 1.2439804496589804;"
       "met=1 conv=1 sel=0d3dda60dccbf1d3"},
      {"table1-m1-from-m2",
       "init 2921924 1.4481815192509768;"
       "timing-opt 2356167 1.7880000000000003;"
       "timing-opt 1468968 1.8873787539582318;"
       "timing-opt 1396835 1.8994874633790491;"
       "timing-opt 1395453 1.9037772606930583;"
       "timing-opt 1390453 1.9082237366599417;"
       "met=1 conv=1 sel=5ebe9436521c8481"},
      {"table1-m2-from-m1",
       "init 1390421 2.25;"
       "area-recovery 3249804 1.2897642234169815;"
       "timing-opt 2921219 1.3067195628282959;"
       "met=1 conv=1 sel=9c962b0ddc14ec40"},
      {"dual-mpeg2-1.15",
       "init 2921924 1.4481815192509768;"
       "timing-opt 2501312 1.6650880287539942;"
       "met=1 conv=1 sel=86e1f32ed747263b"},
      {"syn-7000",
       "init 343 9.7301502758871834;"
       "timing-opt 302 10.403856971477044;"
       "met=1 conv=1 sel=65f25853caa44670"},
      {"syn-7001",
       "init 346 13.336561847184484;"
       "timing-opt 338.5 13.648772807702047;"
       "met=0 conv=1 sel=a1a6c761e4ccfa32"},
      {"syn-7002",
       "init 433 18.687948109296773;"
       "timing-opt 415 19.520047311340345;"
       "met=0 conv=1 sel=3d24bca2c1da5793"},
      {"syn-7003",
       "init 402 8.2145909725034976;"
       "timing-opt 344 9.1930268528844685;"
       "met=1 conv=1 sel=0d0d78e1f6fccf4e"},
      {"syn-7004",
       "init 343.5 12.703518178332693;"
       "timing-opt 338.5 13.642698858782177;"
       "timing-opt 337 21.92959674783965;"
       "timing-opt 327 23.842652424784063;"
       "met=0 conv=1 sel=584c32e83f0055f3"},
      {"syn-7005",
       "init 600 18.575552831163218;"
       "timing-opt 538 19.77056686620913;"
       "met=1 conv=1 sel=53b0c2eb83c27d7c"},
      {"syn-7006",
       "init 424 8.2743377132945835;"
       "timing-opt 379 9.0491349107474512;"
       "met=1 conv=1 sel=9815909f84e6e529"},
      {"syn-7007",
       "init 622 13.406712485546224;"
       "timing-opt 583 14.667598829944092;"
       "timing-opt 565 15.461236314567996;"
       "timing-opt 565 15.822124938835076;"
       "met=0 conv=1 sel=346953effa5283c8"},
      {"syn-7008",
       "init 527 17.547984057369888;"
       "timing-opt 519 19.227867587203175;"
       "timing-opt 512 18.432324336267726;"
       "timing-opt 511.5 19.218130383745404;"
       "timing-opt 507 19.84933187212598;"
       "timing-opt 503.5 20.287578682956102;"
       "met=0 conv=1 sel=86d3bfeda74d7d76"},
      {"syn-7009",
       "init 427 9.5015240327588444;"
       "timing-opt 376 10.18560970434987;"
       "met=1 conv=1 sel=d97375e7be22021a"},
      {"syn-7010",
       "init 286 14.513423694738243;"
       "met=0 conv=1 sel=dd9872ca9d94cbf1"},
      {"syn-7011",
       "init 451.5 18.270188636579814;"
       "timing-opt 428.5 18.938828919677867;"
       "timing-opt 423 19.479356533764648;"
       "timing-opt 422 19.806425173111425;"
       "timing-opt 417 20.102553096418802;"
       "timing-opt 412.5 20.327728425917321;"
       "timing-opt 410 20.555110465071117;"
       "timing-opt 406.5 20.714636543203643;"
       "timing-opt 406 20.940334423991924;"
       "timing-opt 404.5 42.334922536830256;"
       "area-recovery 451.5 18.909707158911417;"
       "none 404.5 42.334922536830256;"
       "met=1 conv=1 sel=0f49d870299e5eeb"},
      {"syn-7012",
       "init 318 7.491964216343133;"
       "timing-opt 310 8.0020891456388732;"
       "met=0 conv=1 sel=76adb69ecd9b2bda"},
      {"syn-7013",
       "init 423 16.093284933866173;"
       "timing-opt 376 17.183011386110159;"
       "met=1 conv=1 sel=9f16bf7c8c01a05a"},
      {"syn-7014",
       "init 494 15.791119601594406;"
       "timing-opt 475 17.29516898324615;"
       "timing-opt 457 28.097014093700903;"
       "met=0 conv=1 sel=16a52bf0d8e9cc7a"},
      {"syn-7015",
       "init 401 8.9365218342738046;"
       "timing-opt 352 9.6494994487258072;"
       "met=1 conv=1 sel=d9f9c83fafcdb1fe"},
      {"syn-7016",
       "init 293.5 14.242757987585129;"
       "timing-opt 280 14.951861627901383;"
       "met=0 conv=1 sel=e619e63fb878aee8"},
      {"syn-7017",
       "init 335 16.590145269112465;"
       "timing-opt 318 17.163355331196904;"
       "timing-opt 302.5 17.671845031442071;"
       "timing-opt 300 17.851273987690053;"
       "met=1 conv=1 sel=69f2577212a01d26"},
      {"syn-7018",
       "init 315 7.932743468746728;"
       "timing-opt 313 7.9802870715667851;"
       "met=0 conv=1 sel=c2baa9db94e5f86a"},
      {"syn-7019",
       "init 386 14.539592928713081;"
       "timing-opt 346 15.405056996446369;"
       "met=1 conv=1 sel=e6a233894b4646a7"},
  };
  return table;
}

void expect_golden(const std::string& name, const ExplorationResult& result) {
  const std::string actual = trajectory(result);
  const auto it = golden().find(name);
  const std::string expected = it == golden().end() ? "" : it->second;
  EXPECT_EQ(expected, actual) << "golden trajectory moved; new entry:\n"
                              << "      {\"" << name << "\",\n       \""
                              << actual << "\"},";
}

std::int64_t m2_cycle_time() {
  return static_cast<std::int64_t>(
      analysis::analyze_system(mpeg2::make_characterized_mpeg2_encoder())
          .cycle_time);
}

std::int64_t m1_cycle_time() {
  sysmodel::SystemModel m1 = mpeg2::make_characterized_mpeg2_encoder();
  mpeg2::select_m1(m1);
  return static_cast<std::int64_t>(analysis::analyze_system(m1).cycle_time);
}

ExplorationResult explore_from_m2(std::int64_t tct) {
  ExplorerOptions options;
  options.target_cycle_time = tct;
  return explore(mpeg2::make_characterized_mpeg2_encoder(), options);
}

// Fig. 6 left: the paper's TCT 2,000 KCycles from M2's 3,597, applied as a
// ratio to this model's M2 cycle time (as bench_fig6_explorations does).
TEST(DseGoldenTest, Fig6LeftTimingOptimization) {
  expect_golden("fig6-left",
                explore_from_m2(static_cast<std::int64_t>(
                    static_cast<double>(m2_cycle_time()) * (2000.0 / 3597.0))));
}

// Fig. 6 right: TCT 4,000 KCycles, i.e. a loose target from M2.
TEST(DseGoldenTest, Fig6RightAreaRecovery) {
  expect_golden("fig6-right",
                explore_from_m2(static_cast<std::int64_t>(
                    static_cast<double>(m2_cycle_time()) * (4000.0 / 3597.0))));
}

// Table 1's two implementations as targets: reach M1's cycle time from M2,
// and recover area from M1 down to M2's cycle time.
TEST(DseGoldenTest, Table1M1TargetFromM2) {
  expect_golden("table1-m1-from-m2", explore_from_m2(m1_cycle_time()));
}

TEST(DseGoldenTest, Table1M2TargetFromM1) {
  sysmodel::SystemModel m1 = mpeg2::make_characterized_mpeg2_encoder();
  mpeg2::select_m1(m1);
  ExplorerOptions options;
  options.target_cycle_time = m2_cycle_time();
  expect_golden("table1-m2-from-m1", explore(std::move(m1), options));
}

TEST(DseGoldenTest, DualMpeg2UnderBudget) {
  sysmodel::SystemModel sys = mpeg2::make_characterized_mpeg2_encoder();
  const double area_budget = sys.total_area() * 1.15;
  expect_golden("dual-mpeg2-1.15",
                explore_area_constrained(std::move(sys), area_budget, {}));
}

// Synthetic SoCs of 32/48/64 processes with generated Pareto sets, explored
// at 0.9x of their ordered cycle time.
class DseGoldenSynthetic : public ::testing::TestWithParam<int> {};

TEST_P(DseGoldenSynthetic, Explore) {
  const int i = GetParam();
  const std::int32_t sizes[] = {32, 48, 64};
  synth::GeneratorConfig config;
  config.num_processes = sizes[i % 3];
  config.num_channels = config.num_processes * 3 / 2;
  config.seed = 7000 + static_cast<std::uint64_t>(i);
  sysmodel::SystemModel sys = synth::generate_soc(config);
  synth::attach_pareto_sets(sys, config.seed + 500);
  sysmodel::SystemModel ordered = ordering::with_optimal_ordering(sys);
  ordering::ensure_live(ordered);
  const double ct = analysis::analyze_system(ordered).cycle_time;
  ExplorerOptions options;
  options.target_cycle_time = std::llround(ct) * 9 / 10;
  expect_golden("syn-" + std::to_string(config.seed),
                explore(std::move(sys), options));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DseGoldenSynthetic, ::testing::Range(0, 20));

}  // namespace
}  // namespace ermes::dse
