#include "analysis/sensitivity.h"

#include <algorithm>
#include <optional>
#include <set>

#include "analysis/eval_cache.h"
#include "analysis/performance.h"
#include "exec/thread_pool.h"
#include "exec/worker_slots.h"
#include "tmg/csr.h"

namespace ermes::analysis {

using sysmodel::ProcessId;
using sysmodel::SystemModel;

namespace {

// What one executing slot perturbs and solves on: a scratch copy of the
// model (made on the slot's first perturbation) and a warm CSR solver — every
// perturbation keeps the topology, so the solver compiles once per slot.
struct Slot {
  std::optional<SystemModel> scratch;
  tmg::CycleMeanSolver solver;
};

}  // namespace

SensitivityReport latency_sensitivity(const SystemModel& sys,
                                      std::int64_t step, int jobs,
                                      EvalCache* cache) {
  SensitivityReport report;
  const auto n = static_cast<std::size_t>(sys.num_processes());
  const std::size_t threads = std::min(
      n, jobs <= 0 ? exec::hardware_jobs() : static_cast<std::size_t>(jobs));
  exec::SlotLocal<Slot> slots(threads);
  const auto analyze = [&](const SystemModel& candidate, Slot& slot) {
    return cache != nullptr ? cache->analyze(candidate, slot.solver)
                            : analyze_system(candidate, slot.solver);
  };
  const PerformanceReport base = analyze(sys, slots[0]);
  if (!base.live) return report;
  report.base_cycle_time = base.cycle_time;
  const std::set<ProcessId> critical(base.critical_processes.begin(),
                                     base.critical_processes.end());

  report.processes.resize(n);
  // Each perturbation is an independent one-change analysis; entry i only
  // ever depends on (sys, i), so spreading them cannot change any value.
  const auto perturb = [&](std::size_t i) {
    const auto p = static_cast<ProcessId>(i);
    ProcessSensitivity entry;
    entry.process = p;
    entry.on_critical_cycle = critical.count(p) != 0;
    const std::int64_t original = sys.latency(p);
    const std::int64_t reduced = std::max<std::int64_t>(0, original - step);
    if (reduced == original) {
      entry.ct_after_step = base.cycle_time;
    } else {
      Slot& slot = slots.local();
      if (!slot.scratch) slot.scratch = sys;
      slot.scratch->set_latency(p, reduced);
      entry.ct_after_step = analyze(*slot.scratch, slot).cycle_time;
      slot.scratch->set_latency(p, original);
      entry.ct_gain_per_cycle =
          (base.cycle_time - entry.ct_after_step) /
          static_cast<double>(original - reduced);
    }
    report.processes[i] = entry;
  };
  if (threads > 1) {
    exec::ThreadPool pool(threads);
    pool.parallel_for(n, perturb);
  } else {
    for (std::size_t i = 0; i < n; ++i) perturb(i);
  }

  std::stable_sort(report.processes.begin(), report.processes.end(),
                   [](const ProcessSensitivity& a,
                      const ProcessSensitivity& b) {
                     return a.ct_gain_per_cycle > b.ct_gain_per_cycle;
                   });
  return report;
}

}  // namespace ermes::analysis
