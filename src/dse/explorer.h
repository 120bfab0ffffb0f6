#pragma once
// The ERMES exploration loop (paper Fig. 5).
//
// Iterate:
//   1. run the channel-ordering algorithm (Alg. 1) on the current process
//      latencies;
//   2. analyze the system (cycle time CT, critical cycle);
//   3. slack sp = TCT - CT: sp > 0 -> area recovery; sp <= 0 -> timing
//      optimization;
//   4. apply the selected implementations; stop at a fixpoint, when a
//      selection repeats, or at the iteration cap.
//
// The per-iteration (CT, area) history is exactly the series plotted in
// Fig. 6. One exploration runs serially on the calling thread; sweep()
// spreads the explorations of several targets over threads.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/eval_cache.h"
#include "dse/selection.h"
#include "sysmodel/system.h"

namespace ermes::dse {

enum class Action { kInit, kTimingOpt, kAreaRecovery, kNone };

struct IterationRecord {
  int iteration = 0;
  Action action = Action::kInit;     // what produced this state
  double cycle_time = 0.0;           // after the action (and reordering)
  double area = 0.0;
  std::int64_t slack = 0;            // TCT - CT
  bool meets_target = false;
  bool live = true;
  std::vector<sysmodel::ProcessId> critical_processes;
};

struct ExplorerOptions {
  std::int64_t target_cycle_time = 0;  // TCT (explore only)
  int max_iterations = 32;

  // --- execution (see analysis/eval_cache.h) ------------------------------
  //
  /// Threads sweep() spreads its targets over: 1 = serial (default), <= 0 =
  /// all cores. One exploration always runs serially; explore() ignores
  /// this field.
  int jobs = 1;
  /// Memo for candidate evaluations. nullptr = a fresh per-run cache (still
  /// reuses results across iterations); pass a shared cache to also reuse
  /// across runs, e.g. the points of a multi-TCT sweep. Every candidate is
  /// analyzed through EvalCache::analyze, memoized by the fingerprint of its
  /// labeling.
  analysis::EvalCache* cache = nullptr;
  /// CSR solver for the run's cache misses. nullptr = a per-run solver.
  /// Candidate systems share one topology, so a solver kept across runs
  /// (a daemon worker's, a sweep slot's) stays warm from one run to the
  /// next. Not internally synchronized: one thread at a time.
  tmg::CycleMeanSolver* solver = nullptr;
  /// Cooperative cancellation, polled between iterations. Returning true
  /// stops the run after the last completed iteration with
  /// ExplorationResult::cancelled set; the partial history stays valid and
  /// the best state seen so far is still reported. Deadline enforcement in
  /// the analysis service (src/svc) hangs off this hook.
  std::function<bool()> should_stop;
};

struct ExplorationResult {
  std::vector<IterationRecord> history;
  bool converged = false;        // reached a fixpoint (no further change)
  bool met_target = false;       // final state satisfies CT < TCT
  bool cancelled = false;        // stopped early by options.should_stop
  sysmodel::SystemModel final_system;
};

/// Runs the methodology on a copy of `sys`.
ExplorationResult explore(sysmodel::SystemModel sys,
                          const ExplorerOptions& options);

/// One exploration of `sys` per target, result i for targets[i]; every
/// other option applies as in explore(). The targets spread over
/// options.jobs threads, each with one warm CSR solver (options.solver
/// serves the calling thread), and share options.cache, so targets that
/// revisit a candidate find it in the memo. Each result is the one explore()
/// returns for its target alone. Once an exploration is cancelled by
/// options.should_stop, the targets not yet started are skipped and come
/// back with `cancelled` set and no history.
std::vector<ExplorationResult> sweep(const sysmodel::SystemModel& sys,
                                     const std::vector<std::int64_t>& targets,
                                     const ExplorerOptions& options);

const char* to_string(Action action);

}  // namespace ermes::dse
