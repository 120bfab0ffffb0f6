#pragma once
// SCC-partitioned performance analysis: per-component provenance.
//
// Cycles never cross strongly connected components, so the cycle time of a
// system is the fold of independent per-SCC maximum cycle ratios
// (tmg::fold_cycle_ratio). comp::IncrementalAnalyzer (comp/incremental.h)
// is the one engine that computes them: it compiles the elaborated TMG into
// tmg::CycleMeanSolver (whose plan holds the Tarjan partition), solves each
// component with Howard, and hands the per-component results to
// assemble_partitioned below. That yields a PerformanceReport bit-identical
// to the monolithic analysis::analyze, plus per-component provenance: which
// processes and channels each SCC spans, each component's own cycle ratio,
// and its slack against the critical component.
//
// Nothing here is memoized: `ermes compose --report` and the daemon's
// sessions want the provenance, and the memoized whole-report path is
// analysis::EvalCache::analyze.
//
// Partitioning pays off on *decoupled* systems: subsystems joined only by
// unbounded (feed-forward) channels fall into separate components, so a
// local change re-solves locally. That is exactly the structure the
// hierarchy layer (comp/flatten.h) produces for communication-centric SoCs,
// and what comp::IncrementalAnalyzer exploits across patches.

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/performance.h"
#include "analysis/tmg_builder.h"
#include "graph/scc.h"
#include "sysmodel/system.h"
#include "tmg/cycle_ratio.h"

namespace ermes::comp {

/// Provenance of one strongly connected component of the TMG's transition
/// graph.
struct SccInfo {
  /// Member transitions in Tarjan member order.
  std::vector<tmg::TransitionId> transitions;
  /// System-level footprint: processes with a compute transition in the
  /// component and channels with a transition in it (sorted, deduplicated).
  std::vector<sysmodel::ProcessId> processes;
  std::vector<sysmodel::ChannelId> channels;

  /// The component's own maximum cycle ratio — its cycle time in isolation.
  /// has_cycle is false for trivial components with no self-loop.
  bool has_cycle = false;
  std::int64_t num = 0;
  std::int64_t den = 1;
  double cycle_ratio = 0.0;

  /// Global cycle time minus this component's ratio (0 for the critical
  /// component and for components without cycles): how much this component
  /// could slow down before it changes the system's throughput.
  double slack = 0.0;
};

struct PartitionedReport {
  /// Bit-identical to analysis::analyze on the same TMG.
  analysis::PerformanceReport report;

  /// One entry per SCC, indexed by component id (reverse topological order).
  std::vector<SccInfo> sccs;
  /// Component owning the critical cycle; -1 when the system has no cycle
  /// or is not live.
  std::int32_t critical_scc = -1;

  /// Components solved by Howard this call (an incremental re-analysis
  /// skips the clean ones).
  int solved = 0;
};

/// Folds per-component results (ascending component id) into the full
/// report + provenance. `per_scc[c]` must be component c's own result.
/// Assumes a live TMG (callers gate on liveness first). `solved` is left
/// for the caller to fill.
PartitionedReport assemble_partitioned(
    const analysis::SystemTmg& stmg, const graph::SccResult& sccs,
    const std::vector<tmg::CycleRatioResult>& per_scc);

/// Human-readable per-component breakdown (for logs and the CLI); for a
/// deadlocked system, only the token-free cycle's size.
std::string summarize_partitioned(const PartitionedReport& part,
                                  const sysmodel::SystemModel& sys);

}  // namespace ermes::comp
