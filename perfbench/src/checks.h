#pragma once
// Answer checks that do not trust the code under test. Each returns an
// empty string when the answer holds, else a one-line reason; a reason is
// always counted as a failed op, never dropped.

#include <cstdint>
#include <optional>
#include <string>

#include "analysis/performance.h"
#include "dse/explorer.h"
#include "ordering/repair.h"
#include "sim/compiled.h"
#include "sysmodel/system.h"

namespace perfbench {

/// Cycle time of `sys` by Lawler's binary search (not Howard), as an exact
/// ratio. den == 0 means the system deadlocks.
struct IndependentCt {
  std::int64_t num = 0;
  std::int64_t den = 0;
  double value() const;
};
IndependentCt lawler_cycle_time(const ermes::sysmodel::SystemModel& sys);

/// Checks a DSE answer by invariants rather than by trajectory:
///  * the final system's cycle time, recomputed with Lawler, equals the
///    reported final CT;
///  * met_target holds exactly when the final system is live and its CT is
///    below the target (the explorer's documented "CT < TCT");
///  * the reported area is the sum of the selected implementations' areas;
///  * the rendered text carries the same verdict.
std::string check_explore(const ermes::dse::ExplorationResult& result,
                          std::int64_t tct, const std::string& text);

/// Checks one pass of the scalability flow: repair reports live, Howard's
/// report is live, the compiled simulation neither deadlocks nor hits its
/// cycle limit, its measured cycle time equals Howard's, and both equal the
/// value pinned for the model when one is pinned.
std::string check_flow(const ermes::ordering::RepairResult& repair,
                       const ermes::analysis::PerformanceReport& report,
                       const ermes::sim::ScenarioResult& sim,
                       std::optional<double> pinned_ct);

}  // namespace perfbench
