// Parallel, memoized evaluation engine benchmark.
//
// Three experiments on the MPEG-2 DSE workload (the paper's case study):
//
//  B1. Multi-TCT sweep: every target explored serially in sequence vs all
//      targets fanned across the pool sharing one EvalCache — the `ermes
//      sweep` hot path. Checks that the parallel histories are bit-identical
//      to the sequential ones, then reports speedup and warm-cache hit rate
//      (every analysis of the warm re-run is a report-memo hit; channel
//      ordering and the selection solves still run).
//  B2. Within-run parallel DSE: dse::explore at jobs=1 vs jobs=N (candidate
//      evaluations of each iteration fan out), bit-identical trajectories.
//  B3. Sensitivity fan-out: per-process perturbation analyses of a synthetic
//      SoC, serial vs pooled.
//
// Flags: --jobs N (default: all cores), --smoke (tiny sizes, used as the
// bench-smoke CTest entry).

#include <cstdio>
#include <cstring>
#include <vector>

#include "analysis/eval_cache.h"
#include "analysis/performance.h"
#include "analysis/sensitivity.h"
#include "apps/mpeg2/characterization.h"
#include "dse/explorer.h"
#include "exec/thread_pool.h"
#include "synth/generator.h"
#include "synth/pareto_gen.h"
#include "util/stopwatch.h"
#include "util/table.h"

using namespace ermes;

namespace {

bool histories_identical(const dse::ExplorationResult& a,
                         const dse::ExplorationResult& b) {
  if (a.history.size() != b.history.size()) return false;
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const dse::IterationRecord& x = a.history[i];
    const dse::IterationRecord& y = b.history[i];
    if (x.iteration != y.iteration || x.action != y.action ||
        x.cycle_time != y.cycle_time || x.area != y.area ||
        x.slack != y.slack || x.meets_target != y.meets_target ||
        x.live != y.live || x.critical_processes != y.critical_processes) {
      return false;
    }
  }
  return a.converged == b.converged && a.met_target == b.met_target;
}

std::vector<dse::ExplorationResult> run_sweep(
    const sysmodel::SystemModel& sys, const std::vector<std::int64_t>& targets,
    exec::ThreadPool* pool, analysis::EvalCache* cache) {
  const auto run_one = [&](std::size_t i) {
    dse::ExplorerOptions options;
    options.target_cycle_time = targets[i];
    options.jobs = 1;
    options.cache = cache;
    return dse::explore(sys, options);
  };
  if (pool != nullptr) {
    return pool->parallel_map<dse::ExplorationResult>(targets.size(), run_one,
                                                      /*grain=*/1);
  }
  std::vector<dse::ExplorationResult> results;
  results.reserve(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    results.push_back(run_one(i));
  }
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t jobs = exec::hardware_jobs();
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = static_cast<std::size_t>(std::atoll(argv[++i]));
      if (jobs == 0) jobs = exec::hardware_jobs();
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }

  std::printf("== parallel, memoized evaluation engine (%zu jobs) ==\n\n",
              jobs);
  exec::ThreadPool pool(jobs);

  // ---- B1: multi-TCT sweep over the MPEG-2 encoder -------------------------
  sysmodel::SystemModel mpeg2 = mpeg2::make_characterized_mpeg2_encoder();
  const double ct0 = analysis::analyze_system(mpeg2).cycle_time;
  std::vector<std::int64_t> targets;
  const int num_targets = smoke ? 3 : 12;
  for (int i = 0; i < num_targets; ++i) {
    // Spread from an aggressive 0.55x (timing-opt heavy, Fig. 6 left) to a
    // loose 1.25x (area-recovery heavy, Fig. 6 right).
    const double ratio = 0.55 + 0.70 * static_cast<double>(i) /
                                    static_cast<double>(num_targets - 1);
    targets.push_back(static_cast<std::int64_t>(ct0 * ratio));
  }

  util::Stopwatch sw;
  std::vector<dse::ExplorationResult> seq;
  {
    // Fully sequential, per-target cold caches: the pre-engine baseline.
    for (std::size_t i = 0; i < targets.size(); ++i) {
      analysis::EvalCache cold;
      dse::ExplorerOptions options;
      options.target_cycle_time = targets[i];
      options.jobs = 1;
      options.cache = &cold;
      seq.push_back(dse::explore(mpeg2, options));
    }
  }
  const double seq_ms = sw.elapsed_ms();

  analysis::EvalCache cache;
  sw.reset();
  const std::vector<dse::ExplorationResult> par =
      run_sweep(mpeg2, targets, &pool, &cache);
  const double par_ms = sw.elapsed_ms();
  const std::int64_t cold_hits = cache.hits();
  const std::int64_t cold_misses = cache.misses();

  bool identical = seq.size() == par.size();
  for (std::size_t i = 0; identical && i < seq.size(); ++i) {
    identical = histories_identical(seq[i], par[i]);
  }

  sw.reset();
  const std::vector<dse::ExplorationResult> warm =
      run_sweep(mpeg2, targets, &pool, &cache);
  const double warm_ms = sw.elapsed_ms();
  const std::int64_t warm_hits = cache.hits() - cold_hits;
  const std::int64_t warm_misses = cache.misses() - cold_misses;
  const double warm_rate =
      warm_hits + warm_misses > 0
          ? static_cast<double>(warm_hits) /
                static_cast<double>(warm_hits + warm_misses)
          : 0.0;
  bool warm_identical = true;
  for (std::size_t i = 0; warm_identical && i < par.size(); ++i) {
    warm_identical = histories_identical(par[i], warm[i]);
  }

  std::printf("B1: MPEG-2 multi-TCT sweep, %zu targets (CT0 %.0f)\n",
              targets.size(), ct0);
  util::Table b1({"configuration", "time (ms)", "speedup", "cache",
                  "bit-identical"});
  b1.add_row({"sequential, cold caches", util::format_double(seq_ms, 1), "1.00",
              "-", "baseline"});
  b1.add_row({"parallel, shared cold cache", util::format_double(par_ms, 1),
              util::format_double(seq_ms / par_ms, 2),
              std::to_string(cold_hits) + "h/" + std::to_string(cold_misses) +
                  "m",
              identical ? "yes" : "NO"});
  b1.add_row({"parallel, warm cache", util::format_double(warm_ms, 1),
              util::format_double(seq_ms / warm_ms, 2),
              std::to_string(warm_hits) + "h/" + std::to_string(warm_misses) +
                  "m (" + util::format_double(warm_rate * 100.0, 1) + "%)",
              warm_identical ? "yes" : "NO"});
  std::printf("%s\n", b1.to_text(2).c_str());

  // ---- B2: within-run candidate parallelism --------------------------------
  const std::int64_t tight = static_cast<std::int64_t>(ct0 * 0.55);
  sw.reset();
  dse::ExplorerOptions serial_opts;
  serial_opts.target_cycle_time = tight;
  serial_opts.jobs = 1;
  const dse::ExplorationResult serial_run = dse::explore(mpeg2, serial_opts);
  const double serial_run_ms = sw.elapsed_ms();

  sw.reset();
  dse::ExplorerOptions parallel_opts;
  parallel_opts.target_cycle_time = tight;
  parallel_opts.jobs = static_cast<int>(jobs);
  parallel_opts.pool = &pool;
  const dse::ExplorationResult parallel_run =
      dse::explore(mpeg2, parallel_opts);
  const double parallel_run_ms = sw.elapsed_ms();

  std::printf("B2: single exploration at TCT %lld (%zu iterations)\n",
              static_cast<long long>(tight), serial_run.history.size());
  util::Table b2({"configuration", "time (ms)", "speedup", "bit-identical"});
  b2.add_row({"jobs=1", util::format_double(serial_run_ms, 1), "1.00",
              "baseline"});
  b2.add_row({"jobs=" + std::to_string(jobs),
              util::format_double(parallel_run_ms, 1),
              util::format_double(serial_run_ms / parallel_run_ms, 2),
              histories_identical(serial_run, parallel_run) ? "yes" : "NO"});
  std::printf("%s\n", b2.to_text(2).c_str());

  // ---- B3: sensitivity fan-out ---------------------------------------------
  synth::GeneratorConfig config;
  config.num_processes = smoke ? 40 : 300;
  config.num_channels = smoke ? 60 : 450;
  config.feedback_fraction = 0.1;
  config.seed = 42;
  sysmodel::SystemModel synth_sys = synth::generate_soc(config);
  synth::attach_pareto_sets(synth_sys, 43);

  sw.reset();
  const analysis::SensitivityReport sens_seq =
      analysis::latency_sensitivity(synth_sys, 1);
  const double sens_seq_ms = sw.elapsed_ms();
  sw.reset();
  const analysis::SensitivityReport sens_par =
      analysis::latency_sensitivity(synth_sys, 1, &pool);
  const double sens_par_ms = sw.elapsed_ms();
  bool sens_identical =
      sens_seq.base_cycle_time == sens_par.base_cycle_time &&
      sens_seq.processes.size() == sens_par.processes.size();
  for (std::size_t i = 0; sens_identical && i < sens_seq.processes.size();
       ++i) {
    sens_identical =
        sens_seq.processes[i].process == sens_par.processes[i].process &&
        sens_seq.processes[i].ct_gain_per_cycle ==
            sens_par.processes[i].ct_gain_per_cycle &&
        sens_seq.processes[i].ct_after_step ==
            sens_par.processes[i].ct_after_step;
  }

  std::printf("B3: sensitivity on synthetic SoC (%d processes)\n",
              config.num_processes);
  util::Table b3({"configuration", "time (ms)", "speedup", "bit-identical"});
  b3.add_row({"serial", util::format_double(sens_seq_ms, 1), "1.00",
              "baseline"});
  b3.add_row({"pooled", util::format_double(sens_par_ms, 1),
              util::format_double(sens_seq_ms / sens_par_ms, 2),
              sens_identical ? "yes" : "NO"});
  std::printf("%s\n", b3.to_text(2).c_str());

  const bool ok = identical && warm_identical &&
                  histories_identical(serial_run, parallel_run) &&
                  sens_identical;
  std::printf("verdict: %s\n", ok ? "parallel results bit-identical"
                                  : "MISMATCH vs sequential path");
  return ok ? 0 : 1;
}
