// Randomized differential testing of every TMG analysis path.
//
// A generator builds random strongly connected timed marked graphs (a
// permutation-cycle backbone guarantees strong connectivity; extra arcs add
// cycle structure), then independent oracles must agree on every instance:
//
//  D1. Unit-token graphs: Howard's policy iteration == Karp's cycle mean ==
//      brute-force cycle enumeration (on unit-token graphs the maximum cycle
//      ratio *is* the maximum cycle mean), exactly as rationals and within
//      1e-9 as doubles.
//  D2. General markings: Howard == Lawler's binary search == brute force,
//      including agreement on infinite ratios (zero-token cycles).
//  D3. Every solver's reported critical cycle reproduces its claimed ratio.
//  D4. The structural liveness check (token-free cycle search) agrees with
//      actually playing the token game: a strongly connected TMG with a dead
//      cycle deadlocks after finitely many firings, a live one never does.
//  D5. The CSR solver core (tmg/csr.h), prepared from the MarkedGraph, is
//      bit-identical to the legacy Howard path on to_ratio_graph — same
//      rationals, same critical cycle, same double bits — cold, re-solved,
//      component by component on live graphs, and after any sequence of warm
//      weight-only re-prepares.
//  D6. One CycleMeanSolver reused across differently-shaped graphs (its
//      workspaces only ever grow) never contaminates a later solve.
//  D8. Every production entry point that reaches the CSR engine — analyze,
//      the partitioned engine (IncrementalAnalyzer: cold, clean and after a
//      warm rebuild, and under random patch streams), and EvalCache::analyze
//      over latency variants with a warm and a fresh solver — reports
//      bit-identically to the legacy Howard oracle on seeded synthetic SoCs.
//      Production never runs the oracle itself.
//  D9. Deadlock witnesses: on seeded deadlocking SoCs (rendezvous, bounded
//      FIFO and unbounded channels, shuffled I/O orders) analyze(),
//      check_liveness() and the solver plan report exactly the token-free
//      cycle of the named-graph DFS oracle (tests/liveness_oracle.h), and
//      ensure_live takes the repair path the oracle dictates.
//
// Failures shrink the offending instance (dropping extra arcs, zeroing
// delays, trimming tokens) while the disagreement persists, then print the
// seed and a compact reconstruction of the minimized graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/eval_cache.h"
#include "analysis/performance.h"
#include "analysis/tmg_builder.h"
#include "comp/incremental.h"
#include "comp/partition.h"
#include "graph/scc.h"
#include "liveness_oracle.h"
#include "lp_oracle/brute_force.h"
#include "lp_oracle/howard.h"
#include "lp_oracle/token_game.h"
#include "ordering/channel_ordering.h"
#include "ordering/repair.h"
#include "synth/generator.h"
#include "sysmodel/system.h"
#include "tmg/csr.h"
#include "tmg/cycle_ratio.h"
#include "tmg/karp.h"
#include "tmg/liveness.h"
#include "tmg/marked_graph.h"
#include "util/rng.h"

namespace ermes::tmg {
namespace {

constexpr std::uint64_t kBaseSeed = 0xd1ffe7e57ULL;

// A value-type recipe for a random TMG, kept separate from MarkedGraph so
// the shrinker can edit and rebuild it.
struct TmgSpec {
  std::vector<std::int64_t> delays;  // one per transition
  std::vector<int> backbone;         // permutation cycle (strong connectivity)
  std::vector<std::int64_t> backbone_tokens;
  struct Arc {
    int src = 0;
    int dst = 0;
    std::int64_t tokens = 0;
  };
  std::vector<Arc> extras;

  int num_transitions() const { return static_cast<int>(delays.size()); }

  MarkedGraph build() const {
    MarkedGraph g;
    for (std::size_t t = 0; t < delays.size(); ++t) {
      g.add_transition(delays[t]);
    }
    for (std::size_t i = 0; i < backbone.size(); ++i) {
      g.add_place(backbone[i], backbone[(i + 1) % backbone.size()],
                  backbone_tokens[i]);
    }
    for (const Arc& arc : extras) {
      g.add_place(arc.src, arc.dst, arc.tokens);
    }
    return g;
  }
};

TmgSpec random_spec(util::Rng& rng, bool unit_tokens) {
  TmgSpec spec;
  const int n = static_cast<int>(rng.uniform_int(3, 10));
  spec.delays.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    spec.delays.push_back(rng.uniform_int(0, 20));
  }
  for (std::size_t i : rng.permutation(static_cast<std::size_t>(n))) {
    spec.backbone.push_back(static_cast<int>(i));
    spec.backbone_tokens.push_back(unit_tokens ? 1 : rng.uniform_int(0, 2));
  }
  const std::int64_t extra = rng.uniform_int(0, 2 * n);
  for (std::int64_t e = 0; e < extra; ++e) {
    TmgSpec::Arc arc;
    arc.src = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
    arc.dst = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
    arc.tokens = unit_tokens ? 1 : rng.uniform_int(0, 2);
    spec.extras.push_back(arc);
  }
  return spec;
}

std::string describe(const TmgSpec& spec) {
  std::ostringstream os;
  os << "transitions (delay):";
  for (std::size_t t = 0; t < spec.delays.size(); ++t) {
    os << " t" << t << "(" << spec.delays[t] << ")";
  }
  os << "\nbackbone:";
  for (std::size_t i = 0; i < spec.backbone.size(); ++i) {
    os << " " << spec.backbone[i] << "->"
       << spec.backbone[(i + 1) % spec.backbone.size()] << "["
       << spec.backbone_tokens[i] << "]";
  }
  os << "\nextras:";
  for (const TmgSpec::Arc& arc : spec.extras) {
    os << " " << arc.src << "->" << arc.dst << "[" << arc.tokens << "]";
  }
  return os.str();
}

// Greedy shrink: keep any edit under which the failure persists, until no
// edit helps. Edits: drop an extra arc, zero a delay, drop a token.
using FailurePredicate = std::function<bool(const TmgSpec&)>;

TmgSpec shrink(TmgSpec spec, const FailurePredicate& fails) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < spec.extras.size(); ++i) {
      TmgSpec cand = spec;
      cand.extras.erase(cand.extras.begin() +
                        static_cast<std::ptrdiff_t>(i));
      if (fails(cand)) {
        spec = std::move(cand);
        progress = true;
        break;
      }
    }
    if (progress) continue;
    for (std::size_t t = 0; t < spec.delays.size(); ++t) {
      if (spec.delays[t] == 0) continue;
      TmgSpec cand = spec;
      cand.delays[t] = 0;
      if (fails(cand)) {
        spec = std::move(cand);
        progress = true;
        break;
      }
    }
    if (progress) continue;
    for (std::size_t i = 0; i < spec.backbone_tokens.size(); ++i) {
      if (spec.backbone_tokens[i] <= 1) continue;
      TmgSpec cand = spec;
      cand.backbone_tokens[i] -= 1;
      if (fails(cand)) {
        spec = std::move(cand);
        progress = true;
        break;
      }
    }
  }
  return spec;
}

void report_failure(std::uint64_t seed, const TmgSpec& original,
                    const FailurePredicate& fails, const char* what) {
  const TmgSpec minimal = shrink(original, fails);
  ADD_FAILURE() << what << " (shard seed " << seed << ")\n"
                << "minimized instance:\n"
                << describe(minimal);
}

// Ratio of the cycle claimed by a result, recomputed from its arcs.
bool critical_cycle_consistent(const RatioGraph& rg,
                               const CycleRatioResult& result) {
  if (!result.has_cycle || result.is_infinite()) return true;
  if (result.critical_cycle.empty()) return false;
  std::int64_t w = 0, t = 0;
  for (graph::ArcId a : result.critical_cycle) {
    w += rg.arc_weight(a);
    t += rg.arc_tokens(a);
  }
  return t > 0 && compare_ratios(w, t, result.ratio_num, result.ratio_den) == 0;
}

bool results_agree(const CycleRatioResult& a, const CycleRatioResult& b) {
  if (a.has_cycle != b.has_cycle) return false;
  if (!a.has_cycle) return true;
  if (a.is_infinite() || b.is_infinite()) {
    return a.is_infinite() == b.is_infinite();
  }
  return compare_ratios(a.ratio_num, a.ratio_den, b.ratio_num, b.ratio_den) ==
             0 &&
         std::abs(a.ratio - b.ratio) <= 1e-9;
}

// --- D1 + D3 (unit tokens) --------------------------------------------------

bool unit_token_solvers_disagree(const TmgSpec& spec) {
  const MarkedGraph g = spec.build();
  const RatioGraph rg = to_ratio_graph(g);
  const CycleRatioResult howard = max_cycle_ratio_howard(rg);
  const CycleRatioResult karp = max_cycle_mean_karp(rg);
  const CycleRatioResult brute = max_cycle_ratio_brute_force(rg);
  // Every unit-token arc carries one token, so ratio denominators equal arc
  // counts and the max cycle ratio equals Karp's max cycle mean.
  return !results_agree(howard, brute) || !results_agree(karp, brute) ||
         !critical_cycle_consistent(rg, howard) ||
         !critical_cycle_consistent(rg, karp) ||
         !critical_cycle_consistent(rg, brute);
}

TEST(DifferentialCycleRatio, UnitTokensHowardKarpBruteForceAgree) {
  for (std::uint64_t shard = 0; shard < 120; ++shard) {
    util::Rng rng = util::Rng::for_shard(kBaseSeed, shard);
    const TmgSpec spec = random_spec(rng, /*unit_tokens=*/true);
    if (unit_token_solvers_disagree(spec)) {
      report_failure(shard, spec, unit_token_solvers_disagree,
                     "Howard/Karp/brute-force disagree on a unit-token TMG");
      return;
    }
  }
}

// --- D2 + D3 (general markings) ---------------------------------------------

bool general_token_solvers_disagree(const TmgSpec& spec) {
  const MarkedGraph g = spec.build();
  const RatioGraph rg = to_ratio_graph(g);
  const CycleRatioResult howard = max_cycle_ratio_howard(rg);
  const CycleRatioResult lawler = max_cycle_ratio_lawler(rg);
  const CycleRatioResult brute = max_cycle_ratio_brute_force(rg);
  return !results_agree(howard, brute) || !results_agree(lawler, brute) ||
         !critical_cycle_consistent(rg, howard) ||
         !critical_cycle_consistent(rg, lawler) ||
         !critical_cycle_consistent(rg, brute);
}

TEST(DifferentialCycleRatio, GeneralMarkingsHowardLawlerBruteForceAgree) {
  for (std::uint64_t shard = 0; shard < 120; ++shard) {
    util::Rng rng = util::Rng::for_shard(kBaseSeed ^ 0xa5a5a5a5ULL, shard);
    const TmgSpec spec = random_spec(rng, /*unit_tokens=*/false);
    if (general_token_solvers_disagree(spec)) {
      report_failure(shard, spec, general_token_solvers_disagree,
                     "Howard/Lawler/brute-force disagree on a general TMG");
      return;
    }
  }
}

// --- D4 (liveness vs token game) --------------------------------------------

// Round-robin fair play. Marked graphs are conflict-free (every place has
// one consumer), so firing one enabled transition never disables another;
// a strongly connected TMG with a token-free cycle starves every transition
// after finitely many firings (tokens on any path out of the dead cycle are
// never replenished), while a live one runs forever.
bool token_game_deadlocks(const MarkedGraph& g, std::int64_t max_firings) {
  TokenGame game(g);
  std::int64_t fired = 0;
  while (fired < max_firings) {
    const std::vector<TransitionId> enabled = game.enabled();
    if (enabled.empty()) return true;
    for (TransitionId t : enabled) {
      game.fire(t);
      ++fired;
    }
  }
  return false;
}

bool liveness_disagrees_with_token_game(const TmgSpec& spec) {
  const MarkedGraph g = spec.build();
  const LivenessResult liveness = check_liveness(g);
  // Firings before deadlock are bounded by (#transitions x total tokens);
  // the corpus tops out near 10 x ~60, so 20000 is far beyond the bound.
  const bool deadlocked = token_game_deadlocks(g, 20'000);
  if (liveness.live == deadlocked) return true;
  if (!liveness.live) {
    // The witness must be a real token-free cycle.
    if (liveness.dead_cycle.empty()) return true;
    for (std::size_t i = 0; i < liveness.dead_cycle.size(); ++i) {
      const PlaceId p = liveness.dead_cycle[i];
      const PlaceId q =
          liveness.dead_cycle[(i + 1) % liveness.dead_cycle.size()];
      if (g.tokens(p) != 0 || g.consumer(p) != g.producer(q)) return true;
    }
  }
  return false;
}

TEST(DifferentialLiveness, StructuralCheckAgreesWithTokenGame) {
  for (std::uint64_t shard = 0; shard < 120; ++shard) {
    util::Rng rng = util::Rng::for_shard(kBaseSeed ^ 0x11feULL, shard);
    const TmgSpec spec = random_spec(rng, /*unit_tokens=*/false);
    if (liveness_disagrees_with_token_game(spec)) {
      report_failure(shard, spec, liveness_disagrees_with_token_game,
                     "liveness check disagrees with the token game");
      return;
    }
  }
}

// --- D5 (CSR solver core, cold + warm) ---------------------------------------

bool bits_equal(double a, double b) {
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

// Stricter than results_agree: the determinism contract of tmg/csr.h
// promises the same rationals, the same critical cycle, and the same raw
// double — not just agreement up to ties and epsilon.
bool results_bit_identical(const CycleRatioResult& a,
                           const CycleRatioResult& b) {
  return a.has_cycle == b.has_cycle && bits_equal(a.ratio, b.ratio) &&
         a.ratio_num == b.ratio_num && a.ratio_den == b.ratio_den &&
         a.critical_cycle == b.critical_cycle;
}

bool csr_cold_diverges(const TmgSpec& spec) {
  const MarkedGraph g = spec.build();
  const RatioGraph rg = to_ratio_graph(g);
  const CycleRatioResult legacy = max_cycle_ratio_howard(rg);
  CycleMeanSolver solver;
  solver.prepare(g);
  if (!results_bit_identical(solver.solve(), legacy)) return true;
  // Re-solving on the already-used workspaces must not drift.
  if (!results_bit_identical(solver.solve(), legacy)) return true;
  // On live graphs each component's solve equals the oracle's, over the
  // oracle's own Tarjan partition.
  if (!solver.live()) return false;
  const graph::SccResult sccs = graph::strongly_connected_components(rg.g);
  if (sccs.component != solver.sccs().component) return true;
  for (std::int32_t c = 0; c < sccs.num_components; ++c) {
    if (!results_bit_identical(
            solver.solve_component(c),
            max_cycle_ratio_howard_scc(
                rg, sccs.component, c,
                sccs.members[static_cast<std::size_t>(c)]))) {
      return true;
    }
  }
  return false;
}

TEST(DifferentialCsrSolver, ColdSolveBitIdenticalToHoward) {
  for (std::uint64_t shard = 0; shard < 120; ++shard) {
    util::Rng rng = util::Rng::for_shard(kBaseSeed ^ 0xc5cULL, shard);
    const TmgSpec spec = random_spec(rng, /*unit_tokens=*/shard % 2 == 0);
    if (csr_cold_diverges(spec)) {
      report_failure(shard, spec, csr_cold_diverges,
                     "CSR solve is not bit-identical to legacy Howard");
      return;
    }
  }
}

bool csr_warm_mutations_diverge(const TmgSpec& spec) {
  MarkedGraph g = spec.build();
  CycleMeanSolver solver;
  solver.prepare(g);
  // Deterministic per spec shape, so the shrinker can replay it.
  util::Rng rng(kBaseSeed ^ 0x3a7bULL ^
                (static_cast<std::uint64_t>(spec.delays.size()) * 131));
  for (int s = 0; s < 24; ++s) {
    const auto t =
        static_cast<TransitionId>(rng.index(spec.delays.size()));
    g.set_delay(t, rng.uniform_int(0, 20));
    if (!solver.prepare(g)) return true;  // must stay warm: weights only
    const CycleRatioResult legacy = max_cycle_ratio_howard(to_ratio_graph(g));
    if (!results_bit_identical(solver.solve(), legacy)) return true;
  }
  return false;
}

TEST(DifferentialCsrSolver, WarmWeightMutationsStayBitIdentical) {
  for (std::uint64_t shard = 0; shard < 60; ++shard) {
    util::Rng rng = util::Rng::for_shard(kBaseSeed ^ 0x3a7bULL, shard);
    const TmgSpec spec = random_spec(rng, /*unit_tokens=*/shard % 2 == 0);
    if (csr_warm_mutations_diverge(spec)) {
      report_failure(shard, spec, csr_warm_mutations_diverge,
                     "warm CSR re-solve diverged from cold legacy Howard");
      return;
    }
  }
}

// --- D6 (one solver across differently-sized graphs) -------------------------

TEST(DifferentialCsrSolver, SolverReusedAcrossGraphsStaysBitIdentical) {
  // One solver absorbs a stream of unrelated graphs; its workspaces only
  // grow, so a large graph followed by a small one exercises stale tails.
  CycleMeanSolver solver;
  for (std::uint64_t shard = 0; shard < 60; ++shard) {
    util::Rng rng = util::Rng::for_shard(kBaseSeed ^ 0x5eedULL, shard);
    const TmgSpec spec = random_spec(rng, /*unit_tokens=*/shard % 2 == 0);
    const MarkedGraph g = spec.build();
    const CycleRatioResult legacy =
        max_cycle_ratio_howard(to_ratio_graph(g));
    solver.prepare(g);
    if (!results_bit_identical(solver.solve(), legacy)) {
      const auto fails = [&](const TmgSpec& cand) {
        // Re-create the cross-graph state: a fresh solver first sized by the
        // *previous* shard's graph, then fed the candidate.
        CycleMeanSolver s2;
        if (shard > 0) {
          util::Rng prev_rng = util::Rng::for_shard(kBaseSeed ^ 0x5eedULL,
                                                    shard - 1);
          s2.solve(random_spec(prev_rng, (shard - 1) % 2 == 0).build());
        }
        const MarkedGraph cg = cand.build();
        return !results_bit_identical(
            s2.solve(cg), max_cycle_ratio_howard(to_ratio_graph(cg)));
      };
      report_failure(shard, spec, fails,
                     "reused solver diverged after a differently-sized graph");
      return;
    }
  }
}

// --- D8 (production entry points vs the legacy oracle) ---------------------

using analysis::PerformanceReport;
using analysis::reports_bit_identical;
using sysmodel::SystemModel;

// The analysis every production entry point must reproduce: the liveness
// gate they all apply, then the legacy oracle on the ratio graph.
PerformanceReport oracle_report(const analysis::SystemTmg& stmg) {
  const LivenessResult liveness = check_liveness(stmg.graph);
  if (!liveness.live) {
    PerformanceReport dead;
    dead.dead_cycle = liveness.dead_cycle;
    return dead;
  }
  return analysis::report_from_ratio(
      stmg, max_cycle_ratio_howard(to_ratio_graph(stmg.graph)));
}

PerformanceReport oracle_report(const SystemModel& sys) {
  return oracle_report(analysis::build_tmg(sys));
}

// Seeded synthetic SoCs of 16-256 processes with feedback loops, ordered by
// Algorithm 1 and repaired to liveness. Two channels in three are unbounded
// (they split the TMG into many SCCs, as decoupled subsystems do), the rest
// two-deep FIFOs (places holding more than one token) on odd seeds and
// rendezvous on even ones.
struct OracleModel {
  std::uint64_t seed = 0;
  SystemModel sys;
};

const std::vector<OracleModel>& oracle_models() {
  static const std::vector<OracleModel> models = [] {
    const std::int32_t sizes[] = {16, 24, 32, 48, 64, 96, 128, 192, 256};
    std::vector<OracleModel> out;
    for (std::size_t i = 0; i < std::size(sizes); ++i) {
      synth::GeneratorConfig config;
      config.num_processes = sizes[i];
      config.num_channels = sizes[i] * 3 / 2;
      config.feedback_fraction = 0.3;
      config.seed = 9100 + i;
      SystemModel generated = synth::generate_soc(config);
      for (sysmodel::ChannelId c = 0; c < generated.num_channels(); ++c) {
        if (c % 3 != 0) {
          generated.set_channel_capacity(c, sysmodel::kUnboundedCapacity);
        } else if (i % 2 == 1) {
          generated.set_channel_capacity(c, 2);
        }
      }
      SystemModel sys = ordering::with_optimal_ordering(std::move(generated));
      ordering::ensure_live(sys);
      out.push_back(OracleModel{config.seed, std::move(sys)});
    }
    return out;
  }();
  return models;
}

std::string model_tag(const OracleModel& model) {
  return "seed " + std::to_string(model.seed) + " (" +
         std::to_string(model.sys.num_processes()) + " processes)";
}

TEST(DifferentialProduction, AnalyzeMatchesOracle) {
  CycleMeanSolver reused;  // one solver across every model, in turn
  for (const OracleModel& model : oracle_models()) {
    const analysis::SystemTmg stmg = analysis::build_tmg(model.sys);
    const PerformanceReport want = oracle_report(stmg);
    ASSERT_TRUE(want.live) << model_tag(model);
    EXPECT_TRUE(reports_bit_identical(analysis::analyze(stmg), want))
        << "analyze(stmg), " << model_tag(model);
    EXPECT_TRUE(reports_bit_identical(analysis::analyze(stmg, reused), want))
        << "analyze(stmg, solver), " << model_tag(model);
  }
}

TEST(DifferentialProduction, PartitionedMatchesOracle) {
  for (const OracleModel& model : oracle_models()) {
    const PerformanceReport want = oracle_report(model.sys);
    comp::IncrementalAnalyzer inc(model.sys);
    EXPECT_TRUE(reports_bit_identical(inc.analyze().report, want))
        << "cold, " << model_tag(model);
    EXPECT_TRUE(reports_bit_identical(inc.analyze().report, want))
        << "clean, " << model_tag(model);
    // Retargeting a channel to its own consumer rebuilds the elaboration
    // with an unchanged structure: the solver re-prepares warm.
    ASSERT_TRUE(inc.retarget_channel(0, model.sys.channel_target(0)));
    EXPECT_TRUE(reports_bit_identical(inc.analyze().report, want))
        << "rebuilt warm, " << model_tag(model);
    EXPECT_EQ(inc.solver_stats().compiles, 1) << model_tag(model);
  }
}

TEST(DifferentialProduction, CachedAnalyzeMatchesOracle) {
  util::Rng rng(kBaseSeed ^ 0xba7cULL);
  for (const OracleModel& model : oracle_models()) {
    // Latency variants share the model's structure, so the warm solver
    // re-solves them without recompiling; the repeated base is a memo hit.
    std::vector<SystemModel> variants(4, model.sys);
    for (SystemModel& variant : variants) {
      for (int k = 0; k < 3; ++k) {
        const auto p = static_cast<sysmodel::ProcessId>(
            rng.index(static_cast<std::size_t>(variant.num_processes())));
        variant.set_latency(p, rng.uniform_int(1, 80));
      }
    }
    std::vector<const SystemModel*> sequence = {&model.sys};
    for (const SystemModel& variant : variants) sequence.push_back(&variant);
    sequence.push_back(&model.sys);

    analysis::EvalCache cache;
    CycleMeanSolver solver;
    analysis::EvalCache fresh;
    for (std::size_t i = 0; i < sequence.size(); ++i) {
      const PerformanceReport want = oracle_report(*sequence[i]);
      EXPECT_TRUE(
          reports_bit_identical(cache.analyze(*sequence[i], solver), want))
          << "entry " << i << " with a solver, " << model_tag(model);
      CycleMeanSolver call_local;
      EXPECT_TRUE(
          reports_bit_identical(fresh.analyze(*sequence[i], call_local), want))
          << "entry " << i << " with a fresh solver, " << model_tag(model);
    }
  }
}

TEST(DifferentialProduction, IncrementalPatchStreamMatchesOracle) {
  constexpr int kPatches = 24;
  util::Rng rng(kBaseSeed ^ 0x1dc7ULL);
  for (const OracleModel& model : oracle_models()) {
    comp::IncrementalAnalyzer inc(model.sys);
    SystemModel mirror = model.sys;
    EXPECT_TRUE(reports_bit_identical(inc.analyze().report,
                                      oracle_report(mirror)))
        << "cold, " << model_tag(model);
    for (int k = 0; k < kPatches; ++k) {
      const auto p = static_cast<sysmodel::ProcessId>(
          rng.index(static_cast<std::size_t>(mirror.num_processes())));
      const auto c = static_cast<sysmodel::ChannelId>(
          rng.index(static_cast<std::size_t>(mirror.num_channels())));
      const std::int64_t roll = rng.uniform_int(0, 5);
      if (roll <= 2) {
        const std::int64_t latency = rng.uniform_int(1, 80);
        ASSERT_TRUE(inc.set_latency(p, latency));
        mirror.set_latency(p, latency);
      } else if (roll <= 4) {
        const std::int64_t latency = rng.uniform_int(0, 40);
        ASSERT_TRUE(inc.set_channel_latency(c, latency));
        mirror.set_channel_latency(c, latency);
      } else {
        ASSERT_TRUE(inc.retarget_channel(c, p));
        mirror.retarget_channel(c, p);
      }
      EXPECT_TRUE(reports_bit_identical(inc.analyze().report,
                                        oracle_report(mirror)))
          << "patch " << k << " (roll " << roll << "), " << model_tag(model);
    }
  }
}

// --- D9 (deadlock witnesses vs the named-graph DFS oracle) ------------------

// Synthetic SoCs whose shuffled I/O orders deadlock, by the oracle. Channel
// c of model k is rendezvous, a FIFO of depth 1-2 or unbounded by
// (k + c) % 3, so every kind sits on some witness. Odd models also lose
// their primed feedback relays, so the feedback-safe ordering cannot always
// save them and ensure_live falls through to witness-guided moves and
// random restarts.
struct DeadModel {
  std::uint64_t seed = 0;
  SystemModel sys;
};

const std::vector<DeadModel>& deadlocking_models() {
  static const std::vector<DeadModel> models = [] {
    std::vector<DeadModel> out;
    for (std::uint64_t k = 0; out.size() < 240 && k < 4000; ++k) {
      synth::GeneratorConfig config;
      config.num_processes = 6 + static_cast<std::int32_t>(k % 27);
      config.num_channels = config.num_processes * 3 / 2;
      config.feedback_fraction = 0.3;
      config.seed = 7700 + k;
      SystemModel sys = synth::generate_soc(config);
      util::Rng rng(kBaseSeed ^ (0xdead0000ULL + k));
      for (sysmodel::ChannelId c = 0; c < sys.num_channels(); ++c) {
        switch ((k + static_cast<std::uint64_t>(c)) % 3) {
          case 0:
            break;  // rendezvous
          case 1:
            sys.set_channel_capacity(c, rng.uniform_int(1, 2));
            break;
          default:
            sys.set_channel_capacity(c, sysmodel::kUnboundedCapacity);
        }
      }
      for (sysmodel::ProcessId p = 0; p < sys.num_processes(); ++p) {
        std::vector<sysmodel::ChannelId> ins = sys.input_order(p);
        std::vector<sysmodel::ChannelId> outs = sys.output_order(p);
        rng.shuffle(ins);
        rng.shuffle(outs);
        sys.set_input_order(p, std::move(ins));
        sys.set_output_order(p, std::move(outs));
        if (k % 2 == 1) sys.set_primed(p, false);
      }
      if (oracle::check_liveness(analysis::build_tmg(sys).graph).live) continue;
      out.push_back(DeadModel{config.seed, std::move(sys)});
    }
    return out;
  }();
  return models;
}

std::vector<sysmodel::ChannelId> orders_key(const SystemModel& sys) {
  std::vector<sysmodel::ChannelId> key;
  for (sysmodel::ProcessId p = 0; p < sys.num_processes(); ++p) {
    key.insert(key.end(), sys.input_order(p).begin(),
               sys.input_order(p).end());
    key.push_back(sysmodel::kInvalidChannel);
    key.insert(key.end(), sys.output_order(p).begin(),
               sys.output_order(p).end());
    key.push_back(sysmodel::kInvalidChannel);
  }
  return key;
}

bool oracle_live(const SystemModel& sys) {
  return oracle::check_liveness(analysis::build_tmg(sys).graph).live;
}

// ordering::ensure_live's algorithm (src/ordering/repair.cpp, default budget
// and seed) with every liveness verdict and witness taken from the oracle.
ordering::RepairResult oracle_ensure_live(SystemModel& sys) {
  constexpr int kMaxIterations = 256;
  ordering::RepairResult result;
  util::Rng rng(0x11f3);
  if (oracle_live(sys)) {
    result.live = true;
    return result;
  }
  {
    SystemModel candidate = sys;
    ordering::apply_ordering(
        candidate, ordering::channel_ordering_feedback_safe(candidate));
    if (oracle_live(candidate)) {
      sys = std::move(candidate);
      result.live = true;
      result.iterations = 1;
      return result;
    }
  }
  std::set<std::vector<sysmodel::ChannelId>> visited;
  visited.insert(orders_key(sys));
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    const analysis::SystemTmg stmg = analysis::build_tmg(sys);
    const LivenessResult liveness = oracle::check_liveness(stmg.graph);
    if (liveness.live) {
      result.live = true;
      result.iterations = iter;
      return result;
    }
    bool moved = false;
    const std::size_t n = liveness.dead_cycle.size();
    for (std::size_t k = 0; k < n && !moved; ++k) {
      const PlaceId pl =
          liveness.dead_cycle[(k + static_cast<std::size_t>(iter)) % n];
      const analysis::PlaceRole& role =
          stmg.place_role[static_cast<std::size_t>(pl)];
      if (role.kind != analysis::PlaceRole::Kind::kGet &&
          role.kind != analysis::PlaceRole::Kind::kPut) {
        continue;
      }
      const bool is_put = role.kind == analysis::PlaceRole::Kind::kPut;
      std::vector<sysmodel::ChannelId> order =
          is_put ? sys.output_order(role.process)
                 : sys.input_order(role.process);
      if (order.size() < 2 || order.front() == role.channel) continue;
      const auto it = std::find(order.begin(), order.end(), role.channel);
      if (it == order.end()) continue;
      order.erase(it);
      order.insert(order.begin(), role.channel);
      if (is_put) {
        sys.set_output_order(role.process, std::move(order));
      } else {
        sys.set_input_order(role.process, std::move(order));
      }
      moved = true;
    }
    if (!moved || !visited.insert(orders_key(sys)).second) {
      ++result.random_restarts;
      for (sysmodel::ProcessId p = 0; p < sys.num_processes(); ++p) {
        std::vector<sysmodel::ChannelId> ins = sys.input_order(p);
        std::vector<sysmodel::ChannelId> outs = sys.output_order(p);
        rng.shuffle(ins);
        rng.shuffle(outs);
        sys.set_input_order(p, std::move(ins));
        sys.set_output_order(p, std::move(outs));
      }
      visited.insert(orders_key(sys));
    }
  }
  result.iterations = kMaxIterations;
  result.live = oracle_live(sys);
  return result;
}

std::string dead_tag(const DeadModel& model) {
  return "seed " + std::to_string(model.seed) + " (" +
         std::to_string(model.sys.num_processes()) + " processes)";
}

TEST(DifferentialWitness, CorpusDeadlocksThroughEveryChannelKind) {
  const std::vector<DeadModel>& models = deadlocking_models();
  ASSERT_GE(models.size(), 200u);
  // Channel transitions on the witnesses, by channel kind: dead cycles run
  // through rendezvous, bounded-FIFO and unbounded channels alike. (A space
  // place always holds its capacity, so FIFOs enter through data places
  // and their read transitions.)
  int rendezvous = 0, bounded = 0, unbounded = 0;
  for (const DeadModel& model : models) {
    const analysis::SystemTmg stmg = analysis::build_tmg(model.sys);
    for (const PlaceId p : oracle::check_liveness(stmg.graph).dead_cycle) {
      const analysis::TransitionOrigin& origin =
          stmg.transition_origin[static_cast<std::size_t>(
              stmg.graph.consumer(p))];
      if (origin.kind != analysis::TransitionOrigin::Kind::kChannel) continue;
      const std::int64_t capacity = model.sys.channel_capacity(origin.channel);
      ++(capacity == 0   ? rendezvous
         : capacity > 0 ? bounded
                        : unbounded);
    }
  }
  EXPECT_GT(rendezvous, 0);
  EXPECT_GT(bounded, 0);
  EXPECT_GT(unbounded, 0);
}

TEST(DifferentialWitness, AnalyzeAndCheckLivenessReportTheOracleWitness) {
  CycleMeanSolver reused;  // one solver across the corpus
  for (const DeadModel& model : deadlocking_models()) {
    const analysis::SystemTmg stmg = analysis::build_tmg(model.sys);
    const LivenessResult want = oracle::check_liveness(stmg.graph);
    ASSERT_FALSE(want.live) << dead_tag(model);
    const LivenessResult got = check_liveness(stmg.graph);
    EXPECT_FALSE(got.live) << dead_tag(model);
    EXPECT_EQ(got.dead_cycle, want.dead_cycle)
        << "check_liveness, " << dead_tag(model);
    const PerformanceReport report = analysis::analyze(stmg);
    EXPECT_FALSE(report.live) << dead_tag(model);
    EXPECT_EQ(report.dead_cycle, want.dead_cycle)
        << "analyze, " << dead_tag(model);
    EXPECT_EQ(analysis::analyze(stmg, reused).dead_cycle, want.dead_cycle)
        << "analyze with a reused solver, " << dead_tag(model);
  }
}

TEST(DifferentialWitness, EnsureLiveFollowsTheOracleRepairPath) {
  int guided = 0, restarted = 0;
  for (const DeadModel& model : deadlocking_models()) {
    SystemModel got = model.sys;
    SystemModel want = model.sys;
    const ordering::RepairResult repaired = ordering::ensure_live(got);
    const ordering::RepairResult expected = oracle_ensure_live(want);
    EXPECT_EQ(repaired.live, expected.live) << dead_tag(model);
    EXPECT_EQ(repaired.iterations, expected.iterations) << dead_tag(model);
    EXPECT_EQ(repaired.random_restarts, expected.random_restarts)
        << dead_tag(model);
    EXPECT_EQ(orders_key(got), orders_key(want)) << dead_tag(model);
    guided += repaired.iterations > 1 ? 1 : 0;
    restarted += repaired.random_restarts > 0 ? 1 : 0;
  }
  // The corpus exercises the witness-guided loop and its restarts, not only
  // the feedback-safe fallback.
  EXPECT_GT(guided, 0);
  EXPECT_GT(restarted, 0);
  std::printf("ensure_live: %d models entered the witness-guided loop, %d "
              "restarted\n", guided, restarted);
}

// --- generator sanity --------------------------------------------------------

TEST(DifferentialGenerator, ShardsProduceDistinctStreams) {
  // for_shard must give unrelated streams: the first samples of 64
  // consecutive shards should not collide en masse.
  std::vector<std::int64_t> firsts;
  for (std::uint64_t shard = 0; shard < 64; ++shard) {
    util::Rng rng = util::Rng::for_shard(kBaseSeed, shard);
    firsts.push_back(rng.uniform_int(0, 1'000'000'000));
  }
  std::sort(firsts.begin(), firsts.end());
  EXPECT_EQ(std::unique(firsts.begin(), firsts.end()), firsts.end());
}

TEST(DifferentialGenerator, UnitTokenGraphsAreAlwaysLive) {
  for (std::uint64_t shard = 0; shard < 32; ++shard) {
    util::Rng rng = util::Rng::for_shard(kBaseSeed + 7, shard);
    const MarkedGraph g = random_spec(rng, /*unit_tokens=*/true).build();
    EXPECT_TRUE(is_live(g)) << "shard " << shard;
  }
}

}  // namespace
}  // namespace ermes::tmg
