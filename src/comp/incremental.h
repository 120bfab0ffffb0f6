#pragma once
// Incremental re-analysis across component patches.
//
// An IncrementalAnalyzer owns a system plus the derived state a full
// analysis would rebuild from scratch — the elaborated TMG, its compiled
// CSR solver (which owns the SCC partition), the liveness verdict, and one
// solved CycleRatioResult per component. A patch (implementation swap, latency
// change, channel retarget) dirties only the components it touches:
//
//  * latency-class patches (select_implementation, set_latency,
//    set_channel_latency) rewrite transition delays in place — structure,
//    tokens, the partition, and liveness are all unaffected, so only the
//    dirtied components re-run Howard;
//  * structure-class patches (retarget_channel) invalidate the elaboration
//    and force a full rebuild on the next analyze().
//
// Results are bit-identical to a cold analysis::analyze_system of the
// patched system for every patch sequence (debug builds sample-verify
// this). Nothing is memoized across analyzers: the clean components of the
// analyzer's own last analysis are the only reuse.

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/tmg_builder.h"
#include "comp/partition.h"
#include "sysmodel/system.h"
#include "tmg/csr.h"
#include "tmg/cycle_ratio.h"

namespace ermes::comp {

class IncrementalAnalyzer {
 public:
  struct Stats {
    std::int64_t patches = 0;
    std::int64_t analyses = 0;
    std::int64_t structure_rebuilds = 0;
    std::int64_t sccs_solved = 0;  // Howard actually ran
    std::int64_t sccs_clean = 0;   // untouched since the last analyze()
  };

  explicit IncrementalAnalyzer(sysmodel::SystemModel sys);

  /// The current (patched) system.
  const sysmodel::SystemModel& system() const { return sys_; }

  // --- patches -------------------------------------------------------------
  // Each returns false (and sets *error, when non-null) on invalid
  // arguments, leaving the analyzer untouched.

  /// Selects implementation `index` of process `p`'s Pareto set.
  bool select_implementation(sysmodel::ProcessId p, std::size_t index,
                             std::string* error = nullptr);
  /// Overrides the computation latency of `p` directly.
  bool set_latency(sysmodel::ProcessId p, std::int64_t latency,
                   std::string* error = nullptr);
  /// Changes the transfer latency of channel `c`.
  bool set_channel_latency(sysmodel::ChannelId c, std::int64_t latency,
                           std::string* error = nullptr);
  /// Re-points channel `c` at a new consumer (structure patch: forces a
  /// rebuild on the next analyze()).
  bool retarget_channel(sysmodel::ChannelId c, sysmodel::ProcessId new_target,
                        std::string* error = nullptr);

  /// Re-analyzes, recomputing only what the patches since the last call
  /// dirtied. The reference stays valid until the next patch or analyze().
  const PartitionedReport& analyze();

  const Stats& stats() const { return stats_; }

  /// Counters of the embedded CSR solver (compiles vs warm weight
  /// refreshes, component solves); surfaced in service session reports.
  const tmg::CycleMeanSolver::Stats& solver_stats() const {
    return solver_.stats();
  }

 private:
  void rebuild();
  /// Rewrites transition `t`'s delay in the TMG and the solver's weights,
  /// dirtying the component whose internal arcs carry it.
  void apply_delay(tmg::TransitionId t, std::int64_t delay);

  sysmodel::SystemModel sys_;
  Stats stats_;

  // Derived state (valid when !structure_dirty_).
  analysis::SystemTmg stmg_;
  /// Compiled from stmg_.graph on rebuild, weight-patched by apply_delay,
  /// and the engine behind every per-component solve; solver_.sccs() is the
  /// SCC partition.
  tmg::CycleMeanSolver solver_;
  bool live_ = false;
  std::vector<tmg::PlaceId> dead_cycle_;
  std::vector<tmg::CycleRatioResult> res_;  // per component
  std::vector<char> dirty_;                 // per component
  bool structure_dirty_ = true;

  PartitionedReport report_;
};

}  // namespace ermes::comp
