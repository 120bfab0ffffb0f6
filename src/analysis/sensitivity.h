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

#include "sysmodel/system.h"

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
/// The per-process perturbations are independent analyses; they spread over
/// `jobs` threads (1 = serial, <= 0 = all cores), each perturbing one
/// scratch copy of the model and solving on one warm CSR solver, and
/// memoize through `cache` when given. The report is identical at every
/// `jobs` and with or without a cache (entries are slotted by process, then
/// stably sorted).
SensitivityReport latency_sensitivity(const sysmodel::SystemModel& sys,
                                      std::int64_t step = 1, int jobs = 1,
                                      EvalCache* cache = nullptr);

}  // namespace ermes::analysis
