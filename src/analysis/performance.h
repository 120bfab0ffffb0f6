#pragma once
// System-level performance analysis (paper Section 3).
//
// Computes the cycle time pi(G) of the elaborated TMG with Howard's
// algorithm, maps the critical cycle back to processes and channels, and
// reports deadlock (non-liveness) with a witness. The reciprocal of the
// cycle time is the data-processing throughput of the system.

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/tmg_builder.h"
#include "sysmodel/system.h"
#include "tmg/cycle_ratio.h"

namespace ermes::tmg {
class CycleMeanSolver;
}  // namespace ermes::tmg

namespace ermes::analysis {

struct PerformanceReport {
  bool live = false;

  /// Deadlock witness (when !live): token-free cycle as TMG places.
  std::vector<tmg::PlaceId> dead_cycle;

  /// Cycle time pi(G) (clock cycles per token) and exact rational value.
  double cycle_time = 0.0;
  std::int64_t ct_num = 0;
  std::int64_t ct_den = 1;

  /// Throughput = 1 / cycle_time.
  double throughput = 0.0;

  /// The critical cycle, in system terms: processes whose computation is on
  /// it and channels traversed by it (sorted, deduplicated).
  std::vector<sysmodel::ProcessId> critical_processes;
  std::vector<sysmodel::ChannelId> critical_channels;

  /// Raw critical cycle as TMG places.
  std::vector<tmg::PlaceId> critical_places;
};

/// Analyzes a pre-built TMG through a call-local CSR solver (tmg/csr.h).
PerformanceReport analyze(const SystemTmg& stmg);

/// Same analysis through a caller-owned CSR solver: the solver's compiled
/// structure and workspace are reused across calls, so repeated analyses
/// of the same topology with different latencies skip graph construction
/// entirely. Results are bit-identical to analyze().
PerformanceReport analyze(const SystemTmg& stmg, tmg::CycleMeanSolver& solver);

/// Builds a live report from an already-computed max cycle ratio of
/// `stmg`'s ratio graph: maps the critical cycle back to processes and
/// channels exactly as analyze() does. The SCC-partitioned engine in
/// src/comp uses this to assemble reports from per-component solves.
PerformanceReport report_from_ratio(const SystemTmg& stmg,
                                    const tmg::CycleRatioResult& ratio);

/// Builds the TMG of `sys` and analyzes it.
PerformanceReport analyze_system(const sysmodel::SystemModel& sys);

/// Builds the TMG of `sys` and analyzes it through a caller-owned solver.
PerformanceReport analyze_system(const sysmodel::SystemModel& sys,
                                 tmg::CycleMeanSolver& solver);

/// Field-by-field equality with doubles compared by bit pattern: the
/// contract between the memoized, partitioned and incremental paths and a
/// cold analysis (their debug builds assert it on sampled results).
bool reports_bit_identical(const PerformanceReport& a,
                           const PerformanceReport& b);

/// Human-readable one-paragraph summary (for logs and examples).
std::string summarize(const PerformanceReport& report,
                      const sysmodel::SystemModel& sys);

}  // namespace ermes::analysis
