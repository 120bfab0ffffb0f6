#include "analysis/sensitivity.h"

#include <algorithm>
#include <set>

#include "analysis/eval_cache.h"
#include "analysis/performance.h"
#include "tmg/csr.h"

namespace ermes::analysis {

using sysmodel::ProcessId;
using sysmodel::SystemModel;

SensitivityReport latency_sensitivity(const SystemModel& sys,
                                      std::int64_t step,
                                      exec::ThreadPool* pool,
                                      EvalCache* cache,
                                      tmg::CycleMeanSolver* solver) {
  SensitivityReport report;
  const bool parallel = pool != nullptr && pool->jobs() > 1 &&
                        sys.num_processes() > 1;
  // The solver is not synchronized: the calling thread solves through
  // `solver` (or a call-local one), pool workers through their own.
  tmg::CycleMeanSolver local_solver;
  if (solver == nullptr) solver = &local_solver;
  const auto analyze = [&](const SystemModel& candidate,
                           tmg::CycleMeanSolver& with) {
    return cache != nullptr ? cache->analyze(candidate, with)
                            : analyze_system(candidate, with);
  };
  const PerformanceReport base = analyze(sys, *solver);
  if (!base.live) return report;
  report.base_cycle_time = base.cycle_time;
  const std::set<ProcessId> critical(base.critical_processes.begin(),
                                     base.critical_processes.end());

  const auto n = static_cast<std::size_t>(sys.num_processes());
  report.processes.resize(n);
  // Each perturbation is an independent one-change analysis; entry i only
  // ever depends on (sys, i), so fanning out cannot change any value.
  const auto perturb = [&](std::size_t i, SystemModel& scratch,
                           tmg::CycleMeanSolver& with) {
    const auto p = static_cast<ProcessId>(i);
    ProcessSensitivity entry;
    entry.process = p;
    entry.on_critical_cycle = critical.count(p) != 0;
    const std::int64_t original = sys.latency(p);
    const std::int64_t reduced = std::max<std::int64_t>(0, original - step);
    if (reduced == original) {
      entry.ct_after_step = base.cycle_time;
    } else {
      scratch.set_latency(p, reduced);
      entry.ct_after_step = analyze(scratch, with).cycle_time;
      scratch.set_latency(p, original);
      entry.ct_gain_per_cycle =
          (base.cycle_time - entry.ct_after_step) /
          static_cast<double>(original - reduced);
    }
    report.processes[i] = entry;
  };

  if (parallel) {
    // Thread-local scratch copies: parallel_for chunks are contiguous, so a
    // per-chunk copy would also work, but one copy per task keeps the body
    // trivially data-race-free at any grain.
    pool->parallel_for(n, [&](std::size_t i) {
      SystemModel scratch = sys;
      tmg::CycleMeanSolver task_solver;
      perturb(i, scratch, task_solver);
    });
  } else {
    SystemModel scratch = sys;
    for (std::size_t i = 0; i < n; ++i) perturb(i, scratch, *solver);
  }

  std::stable_sort(report.processes.begin(), report.processes.end(),
                   [](const ProcessSensitivity& a,
                      const ProcessSensitivity& b) {
                     return a.ct_gain_per_cycle > b.ct_gain_per_cycle;
                   });
  return report;
}

}  // namespace ermes::analysis
