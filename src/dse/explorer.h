#pragma once
// The ERMES exploration loop (paper Fig. 5).
//
// Iterate:
//   1. (optionally) run the channel-ordering algorithm on the current
//      process latencies;
//   2. analyze the system (cycle time CT, critical cycle);
//   3. slack sp = TCT - CT: sp > 0 -> area recovery; sp <= 0 -> timing
//      optimization;
//   4. apply the selected implementations; stop at a fixpoint, when a
//      selection repeats, or at the iteration cap.
//
// The per-iteration (CT, area) history is exactly the series plotted in
// Fig. 6.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/eval_cache.h"
#include "dse/selection.h"
#include "exec/thread_pool.h"
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
  bool reorder_channels = true;  // run Algorithm 1 after each selection

  // --- execution (see src/exec and analysis/eval_cache.h) ------------------
  //
  // Candidate evaluation (apply + reorder + analyze) is a pure function of
  // the candidate labeling, so the per-iteration candidates can be analyzed
  // concurrently and memoized without changing any result: the exploration
  // trajectory is bit-identical at every jobs setting.
  //
  /// Evaluation parallelism: 1 = serial (default), <= 0 = all cores.
  int jobs = 1;
  /// Memo for candidate evaluations. nullptr = a fresh per-run cache (still
  /// reuses results across iterations); pass a shared cache to also reuse
  /// across runs, e.g. the points of a multi-TCT sweep. Every candidate is
  /// analyzed through EvalCache::analyze, memoized by the fingerprint of its
  /// labeling.
  analysis::EvalCache* cache = nullptr;
  /// Worker pool to evaluate on. nullptr = a per-run pool when jobs > 1.
  exec::ThreadPool* pool = nullptr;
  /// External CSR solver for the calling thread's evaluation slot (slot 0).
  /// nullptr = a per-run solver. A sweep driver passes one solver per worker
  /// slot so adjacent targets executed on that slot share a warm compiled
  /// structure across the sweep's serial explorations. Not internally synchronized — the caller must ensure one
  /// thread at a time, which per-slot ownership gives for free.
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

/// The paper's dual formulation ("the formulation with area constraints"):
/// minimize the cycle time subject to a hard `area_budget`. Iterates the
/// area-budgeted timing optimization until no selection improves the cycle
/// time without blowing the budget. IterationRecord::meets_target reports
/// the area constraint instead of a timing one. Every option but
/// target_cycle_time applies as in explore().
ExplorationResult explore_area_constrained(sysmodel::SystemModel sys,
                                           double area_budget,
                                           const ExplorerOptions& options);

const char* to_string(Action action);

}  // namespace ermes::dse
