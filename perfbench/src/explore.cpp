// Workload `explore`: cold design-space exploration, closed loop, one
// thread, ExplorerOptions.jobs = 1 (the CLI default) and a fresh EvalCache
// per op. Each op is io::parse_soc -> dse::explore -> svc::explore_text.
//
// The corpus is fixed by --corpus-seed: the mpeg2 encoder at 0.5x and 0.95x
// of its ordered cycle time plus 75 synthetic 32/48/64-process SoCs with
// generated Pareto sets at 0.9x. --seed only permutes the order of each
// pass. Explore cost across generator seeds spans 3 ms to 4.4 s, so a
// corpus drawn per run seed would measure the draw, not the program; the
// corpus is held fixed and runs are compared on identical work.

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "apps/mpeg2/characterization.h"
#include "checks.h"
#include "common.h"
#include "dse/explorer.h"
#include "io/soc_format.h"
#include "svc/render.h"
#include "synth/generator.h"
#include "synth/pareto_gen.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace ermes;

constexpr std::uint64_t kDefaultCorpusSeed = 1;
constexpr int kSmokeModels = 4;

// The default corpus: generator seeds 1000 + i for these i. Of seeds
// 1000-1119, these are the 71 models whose cold explore took 3-100 ms on the
// reference host (4 cores, RelWithDebInfo) plus four that took 127, 201, 317
// and 469 ms: 35, 24 and 16 models of 32, 48 and 64 processes, 3.3 s in
// all. Explore cost is roughly log-uniform over generator seeds, so a
// percentile is only steady where the corpus is dense. This corpus puts p50
// and p90 in the dense band; the two mpeg2 ops and the heaviest synthetic
// models form the tail.
constexpr int kDefaultModels[] = {
    0, 1, 3, 5, 6, 9, 10, 11, 12, 15, 16, 17, 19, 21, 22, 24, 25, 27, 33, 36,
    37, 39, 40, 42, 43, 44, 45, 46, 47, 48, 54, 55, 56, 57, 58, 60, 62, 63,
    64, 65, 66, 67, 68, 69, 70, 72, 73, 75, 77, 78, 80, 82, 83, 84, 85, 87,
    89, 90, 93, 94, 95, 96, 97, 99, 100, 102, 103, 106, 108, 111, 114, 116,
    117, 118, 119};
constexpr int kSyntheticModels = static_cast<int>(std::size(kDefaultModels));

struct ExploreRequest {
  std::string label;
  std::string soc;
  std::int64_t tct = 0;
};

std::vector<ExploreRequest> make_corpus(const Options& options) {
  const std::uint64_t corpus =
      options.corpus_seed != 0 ? options.corpus_seed : kDefaultCorpusSeed;
  std::vector<ExploreRequest> corpus_list;
  if (!options.smoke) {
    const sysmodel::SystemModel mpeg2 = mpeg2::make_characterized_mpeg2_encoder();
    const std::int64_t ct = ordered_cycle_time(mpeg2);
    const std::string soc = io::write_soc(mpeg2, "mpeg2_encoder");
    corpus_list.push_back({"mpeg2@0.5", soc, ct / 2});
    corpus_list.push_back({"mpeg2@0.95", soc, ct * 95 / 100});
  }
  const int models = options.smoke ? kSmokeModels : kSyntheticModels;
  for (int k = 0; k < models; ++k) {
    // Other corpus seeds take the first generator seeds unfiltered.
    const int i = !options.smoke && corpus == kDefaultCorpusSeed
                      ? kDefaultModels[k]
                      : k;
    const std::int32_t sizes[] = {32, 48, 64};
    synth::GeneratorConfig config;
    config.num_processes = options.smoke ? 32 : sizes[i % 3];
    config.num_channels = config.num_processes * 3 / 2;
    config.seed = corpus * 1000 + static_cast<std::uint64_t>(i);
    sysmodel::SystemModel sys = synth::generate_soc(config);
    synth::attach_pareto_sets(sys, config.seed + 500);
    const std::int64_t ct = ordered_cycle_time(sys);
    corpus_list.push_back({"syn" + std::to_string(config.num_processes) + "/" +
                               std::to_string(config.seed),
                           io::write_soc(sys, "syn"), ct * 9 / 10});
  }
  return corpus_list;
}

struct OpTimes {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  double parse_ms = 0.0;
  double explore_ms = 0.0;
  double render_ms = 0.0;
  std::int64_t minor_faults = 0;
};

// One op: parse -> explore -> render, timed per layer; the answer check runs
// after the clock stops.
OpTimes run_op(const ExploreRequest& request, std::string* error) {
  OpTimes t;
  const double cpu0 = self_cpu_ms();
  util::Stopwatch wall;
  LayerCall parse("bench.io.parse_soc");
  io::ParseResult parsed = io::parse_soc(request.soc);
  t.parse_ms = parse.stop();
  if (!parsed.ok) {
    *error = request.label + ": parse: " + parsed.error;
    return t;
  }
  dse::ExplorerOptions explorer;
  explorer.target_cycle_time = request.tct;
  explorer.jobs = 1;
  const std::int64_t faults0 = self_minor_faults();
  LayerCall explore("bench.dse.explore");
  const dse::ExplorationResult result =
      dse::explore(std::move(parsed.system), explorer);
  t.explore_ms = explore.stop();
  t.minor_faults = self_minor_faults() - faults0;
  LayerCall render("bench.svc.explore_text");
  const std::string text = svc::explore_text(result);
  t.render_ms = render.stop();
  t.wall_ms = wall.elapsed_ms();
  t.cpu_ms = self_cpu_ms() - cpu0;
  const std::string why = check_explore(result, request.tct, text);
  if (!why.empty()) *error = request.label + ": " + why;
  return t;
}

// Runs whole shuffled passes over the corpus for about `budget_s`. With
// `totals`, the spans each op recorded are drained into it after the op.
Phase<OpTimes> measure(const std::vector<ExploreRequest>& corpus,
                       std::uint64_t seed, double budget_s, Report& report,
                       TraceTotals* totals) {
  Phase<OpTimes> phase;
  phase.passes = run_passes(budget_s, [&](int pass) {
    std::vector<std::size_t> order(corpus.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    util::Rng rng = util::Rng::for_shard(seed, static_cast<std::uint64_t>(pass));
    rng.shuffle(order);
    for (const std::size_t i : order) {
      std::string error;
      const OpTimes t = run_op(corpus[i], &error);
      report.op(error);
      phase.wall_ms += t.wall_ms;
      if (totals != nullptr && !drain_spans(*totals)) phase.spans_dropped = true;
      if (error.empty()) phase.ops.push_back(t);
    }
  });
  return phase;
}

}  // namespace

bool run_explore(const Options& options, Report& report) {
  const std::vector<ExploreRequest> corpus = make_corpus(options);
  std::size_t corpus_bytes = 0;
  for (const ExploreRequest& r : corpus) corpus_bytes += r.soc.size();
  report.note("explore: " + std::to_string(corpus.size()) +
              " requests per pass, " + std::to_string(corpus_bytes) +
              " bytes of .soc text");

  // Set-up: parse every input plus one untimed warm-up op (the first
  // synthetic request), repeated; the median is reported. One repetition
  // takes ~60 ms and single ones ranged 44-85 ms within a run, so it takes
  // 15 of them for the median to hold still.
  const ExploreRequest& warmup = corpus[options.smoke ? 0 : 2];
  std::vector<double> setups;
  for (int rep = 0; rep < 15; ++rep) {
    util::Stopwatch setup;
    for (const ExploreRequest& r : corpus) {
      if (!io::parse_soc(r.soc).ok) {
        std::fprintf(stderr, "explore: corpus input %s does not parse\n",
                     r.label.c_str());
        return false;
      }
    }
    std::string error;
    run_op(warmup, &error);
    if (!error.empty()) {
      std::fprintf(stderr, "explore: warm-up failed: %s\n", error.c_str());
      return false;
    }
    setups.push_back(setup.elapsed_seconds());
  }

  if (!options.trace) {
    const Phase<OpTimes> phase =
        measure(corpus, options.seed, options.seconds, report, nullptr);
    report.note(sample_note("explore latency", phase.walls()) + " passes=" +
                std::to_string(phase.passes));
    emit_closed_loop(report, phase, setups);
    return true;
  }

  // Traced run: half the budget untraced (the overhead baseline and the
  // page-fault count), half with obs spans and counters on.
  const Phase<OpTimes> plain =
      measure(corpus, options.seed, options.seconds / 2, report, nullptr);
  start_tracing(1 << 20);
  TraceTotals totals;
  const Phase<OpTimes> traced =
      measure(corpus, options.seed, options.seconds / 2, report, &totals);
  stop_tracing();
  if (traced.spans_dropped) {
    std::fprintf(stderr, "explore: span recorder dropped spans\n");
    return false;
  }

  const auto n = static_cast<double>(traced.ops.size());
  double wall = 0.0, parse = 0.0, explore = 0.0, render = 0.0;
  std::size_t parsed_bytes = 0;
  for (const OpTimes& t : traced.ops) {
    wall += t.wall_ms;
    parse += t.parse_ms;
    explore += t.explore_ms;
    render += t.render_ms;
  }
  for (const ExploreRequest& r : corpus) parsed_bytes += r.soc.size();
  parsed_bytes *= static_cast<std::size_t>(traced.passes);
  double faults = 0.0;
  for (const OpTimes& t : plain.ops) faults += static_cast<double>(t.minor_faults);
  const double plain_p50 = median(plain.walls());
  const double traced_p50 = median(traced.walls());
  const auto per_op = [&](std::string_view name) {
    return ratio(static_cast<double>(counter(name)), n);
  };
  const auto span_per_op = [&](const std::string& name) {
    return ratio(totals.span_ms[name], n);
  };
  const double cache_hits = static_cast<double>(counter("analysis.eval_cache.hits"));
  const double aux_hits = static_cast<double>(counter("analysis.eval_cache.aux_hits"));
  report.note("explore traced: " + std::to_string(totals.spans) +
              " spans, 0 dropped, passes untraced=" +
              std::to_string(plain.passes) +
              " traced=" + std::to_string(traced.passes));
  emit(report, kPerLayer,
       {{"io.parse_ms", ratio(parse, n)},
        {"io.parse_mb_per_s", ratio(static_cast<double>(parsed_bytes) / 1e6, parse / 1e3)},
        {"ordering.order_ms", span_per_op("ordering.final_ordering")},
        {"tmg.solve_ms",
         span_per_op("howard.solve") + span_per_op("howard.solve_batch")},
        {"tmg.howard_iterations",
         per_op("howard.iterations") + per_op("tmg.solver.iterations")},
        {"tmg.batch_scc_reuse_ratio",
         ratio(static_cast<double>(counter("tmg.solver.batch_scc_reuses")),
               static_cast<double>(counter("tmg.solver.batch_scc_reuses") +
                                   counter("tmg.solver.batch_scc_solves")))},
        {"dse.explore_ms", ratio(explore, n)},
        {"dse.iterations", per_op("dse.iterations")},
        {"dse.candidates", per_op("dse.candidates_evaluated")},
        {"dse.select_ms", span_per_op("dse.select")},
        {"dse.reorder_ms", span_per_op("dse.reorder")},
        {"dse.analyze_ms", span_per_op("dse.analyze")},
        {"dse.self_ms", ratio(totals.self_ms["dse"], n)},
        {"dse.minor_faults", ratio(faults, static_cast<double>(plain.ops.size()))},
        {"ilp.solve_ms", span_per_op("ilp.solve")},
        {"ilp.solves", per_op("ilp.solves")},
        {"ilp.bnb_nodes", per_op("ilp.bnb_nodes")},
        {"ilp.simplex_pivots", per_op("ilp.simplex_pivots")},
        {"analysis.eval_cache.hit_ratio",
         ratio(cache_hits, cache_hits + static_cast<double>(counter("analysis.eval_cache.misses")))},
        {"analysis.eval_cache.aux_hit_ratio",
         ratio(aux_hits, aux_hits + static_cast<double>(counter("analysis.eval_cache.aux_misses")))},
        {"comp.sccs_reused_ratio",
         ratio(static_cast<double>(counter("comp.sccs_reused")),
               static_cast<double>(counter("comp.sccs_reused") + counter("comp.sccs_solved")))},
        {"other_ms", ratio(wall - parse - explore - render, n)},
        {"bench.trace_overhead_pct", 100.0 * ratio(traced_p50 - plain_p50, plain_p50)}});
  return true;
}

}  // namespace perfbench
