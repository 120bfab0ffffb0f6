#pragma once
// Timing optimization (paper Section 5).
//
// Given a system violating the target (slack sp <= 0), select
// implementations maximizing the cumulative latency gain over critical-cycle
// processes (the primal ILP). After fixing the maximum achievable latency
// gain L*, a second stage recovers area subject to keeping the
// critical-cycle latency gain at least min(L*, needed) — this mirrors the
// ERMES behaviour reported in Section 6: "selecting much faster
// implementations for some of the processes on the critical cycle [while]
// the corresponding area overhead is recovered by selecting smaller
// implementations for other processes ... provided that the cumulative
// balance of their latency gains remains positive".

#include <cstdint>
#include <vector>

#include "dse/selection.h"
#include "sysmodel/system.h"

namespace ermes::dse {

struct TimingOptResult {
  bool feasible = false;
  SelectionVector selection;
  std::int64_t latency_gain = 0;  // total gain over critical processes
  double area_gain = 0.0;         // total area gain (usually negative)
};

/// Aggressiveness of the area-recovery side of timing optimization. The
/// paper's formulation is the liberal default; the explorer falls back to
/// stricter variants when a liberal move would create a worse critical
/// cycle elsewhere (the TMG couples every cycle, which a per-cycle ILP
/// cannot see).
struct TimingOptPolicy {
  /// Allow critical-cycle processes to trade speed for area as long as the
  /// cumulative latency balance stays at the required gain ("provided that
  /// the cumulative balance of their latency gains remains positive").
  bool allow_critical_slowdown = true;
  /// Freeze every process off the critical cycle at its current
  /// implementation.
  bool pin_non_critical = false;
};

/// `critical` = processes on the critical cycle; `needed` = CT - TCT (> 0
/// when the target is violated); `ring_cap` as in area_recovery (0 =
/// disabled; typically the TCT).
TimingOptResult timing_optimization(
    const sysmodel::SystemModel& sys,
    const std::vector<sysmodel::ProcessId>& critical, std::int64_t needed,
    std::int64_t ring_cap = 0, TimingOptPolicy policy = {});

}  // namespace ermes::dse
