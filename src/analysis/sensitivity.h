#pragma once
// Latency sensitivity of the system cycle time.
//
// For each process, how much does the cycle time improve per cycle of
// computation-latency reduction (and symmetrically, degrade per cycle of
// increase)? On a TMG the answer is structural: a process on the (unique)
// critical cycle improves CT by 1/M0(c*) per latency cycle until another
// cycle becomes critical; off-critical processes have zero marginal effect.
// This is the signal the DSE's timing optimization exploits; exposing it
// directly lets a designer see *where* HLS effort pays off before running
// any exploration.

#include <cstdint>
#include <vector>

#include "exec/thread_pool.h"
#include "sysmodel/system.h"

namespace ermes::tmg {
class CycleMeanSolver;
}  // namespace ermes::tmg

namespace ermes::analysis {

class EvalCache;

struct ProcessSensitivity {
  sysmodel::ProcessId process = sysmodel::kInvalidProcess;
  /// dCT per cycle of latency *reduction*, measured by finite difference
  /// with `step` cycles (0 for off-critical processes).
  double ct_gain_per_cycle = 0.0;
  /// Cycle time after reducing this process' latency by `step` (clamped at
  /// zero), with everything else unchanged.
  double ct_after_step = 0.0;
  bool on_critical_cycle = false;
};

struct SensitivityReport {
  double base_cycle_time = 0.0;
  std::vector<ProcessSensitivity> processes;  // sorted by descending gain
};

/// Finite-difference sensitivity with the given latency step. The system
/// must be live. Channel orders are held fixed (run the ordering first).
/// The per-process perturbations are independent analyses; they fan out
/// across `pool` when given and memoize through `cache` when given, with a
/// report identical to the serial uncached one (entries are slotted by
/// process, then stably sorted).
///
/// Every analysis runs on the CSR engine. `solver`, when given, warms the
/// calling thread's analyses through one caller-owned solver; a null solver
/// means a call-local one, and pool workers solve on their own per-task
/// solvers.
SensitivityReport latency_sensitivity(const sysmodel::SystemModel& sys,
                                      std::int64_t step = 1,
                                      exec::ThreadPool* pool = nullptr,
                                      EvalCache* cache = nullptr,
                                      tmg::CycleMeanSolver* solver = nullptr);

}  // namespace ermes::analysis
