#pragma once
// Area recovery (paper Section 5).
//
// Given a system whose cycle time meets the target with slack sp > 0,
// select implementations maximizing the cumulative area gain subject to the
// critical-cycle latency budget: the sum of -latency_gain over critical-
// cycle processes must not exceed sp (so the critical cycle itself stays
// under the target). Processes off the critical cycle may swap freely — the
// explorer re-analyzes afterwards and repairs any newly created violation
// in the next iteration, exactly like the Fig. 6 trajectories.

#include <cstdint>
#include <vector>

#include "dse/selection.h"
#include "sysmodel/system.h"

namespace ermes::dse {

struct AreaRecoveryResult {
  bool feasible = false;
  SelectionVector selection;
  double area_gain = 0.0;           // predicted total area reduction
  std::int64_t latency_spent = 0;   // slack consumed on the critical cycle
};

/// `critical` = processes on the critical cycle; `slack` = TCT - CT (> 0).
/// `ring_cap` (0 = disabled; typically the TCT) excludes candidates whose
/// process ring would reach the cap — a cheap structural guard against
/// creating an obvious new critical cycle off the current one.
AreaRecoveryResult area_recovery(const sysmodel::SystemModel& sys,
                                 const std::vector<sysmodel::ProcessId>& critical,
                                 std::int64_t slack,
                                 std::int64_t ring_cap = 0);

}  // namespace ermes::dse
