#include "dse/explorer.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <memory>
#include <set>

#include "analysis/performance.h"
#include "dse/area_recovery.h"
#include "dse/timing_opt.h"
#include "exec/thread_pool.h"
#include "exec/worker_slots.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "ordering/channel_ordering.h"
#include "tmg/csr.h"
#include "util/log.h"

namespace ermes::dse {

using analysis::EvalCache;
using analysis::PerformanceReport;
using sysmodel::SystemModel;

const char* to_string(Action action) {
  switch (action) {
    case Action::kInit: return "init";
    case Action::kTimingOpt: return "timing-opt";
    case Action::kAreaRecovery: return "area-recovery";
    case Action::kNone: return "none";
  }
  return "?";
}

namespace {

// Execution context of one exploration run: the memo and the CSR solver,
// owned locally unless the caller shared theirs through the options.
// Candidate systems share one topology — only latencies and orders vary —
// so the solver compiles once and then re-solves warm for the rest of the
// run.
struct EvalContext {
  EvalCache* cache = nullptr;
  tmg::CycleMeanSolver* solver = nullptr;
  std::unique_ptr<EvalCache> owned_cache;
  std::unique_ptr<tmg::CycleMeanSolver> owned_solver;

  explicit EvalContext(const ExplorerOptions& options)
      : cache(options.cache), solver(options.solver) {
    if (cache == nullptr) {
      owned_cache = std::make_unique<EvalCache>();
      cache = owned_cache.get();
    }
    if (solver == nullptr) {
      owned_solver = std::make_unique<tmg::CycleMeanSolver>();
      solver = owned_solver.get();
    }
  }
};

// Reorders `sys` in place (Alg. 1) and analyzes it through the memo; cache
// misses solve through the run's warm CSR solver.
PerformanceReport reorder_and_analyze(SystemModel& sys, EvalContext& ctx) {
  {
    obs::ObsSpan reorder_span("dse.reorder", "dse");
    ordering::apply_ordering(sys, ordering::channel_ordering(sys));
  }
  obs::ObsSpan analyze_span("dse.analyze", "dse");
  return ctx.cache->analyze(sys, *ctx.solver);
}

struct Evaluated {
  SystemModel system;
  PerformanceReport report;
};

// Applies a selection (plus reordering) to a copy and analyzes it through
// the memo.
Evaluated evaluate_candidate(const SystemModel& sys,
                             const SelectionVector& selection,
                             EvalContext& ctx) {
  Evaluated out{sys, {}};
  apply_selection(out.system, selection);
  out.report = reorder_and_analyze(out.system, ctx);
  obs::count("dse.candidates_evaluated");
#ifndef NDEBUG
  // Memo guard: the report served through the memo and the warm solver must
  // be bit-identical to a cold analysis of the same candidate.
  const PerformanceReport expected = analysis::analyze_system(out.system);
  assert(out.report.live == expected.live &&
         out.report.cycle_time == expected.cycle_time &&
         out.report.ct_num == expected.ct_num &&
         out.report.ct_den == expected.ct_den &&
         out.report.critical_processes == expected.critical_processes &&
         "dse: memoized warm evaluation diverged from a cold analysis");
#endif
  return out;
}

// Timing optimization: cascade from the paper's liberal formulation to
// progressively stricter ones. A liberal move can slow a process that sits
// on a *different* near-critical cycle (the per-cycle ILP cannot see the
// coupling), so each policy in turn solves its ILP, its selection is
// trial-evaluated (unless it equals the current selection or an earlier
// policy's, already rejected), and the first non-degrading one wins.
// Plateaus (<=) are accepted: with several co-critical cycles, fixing one
// keeps CT flat until the next iteration attacks the twin cycle; the
// caller's visited set guarantees termination. Returns false when no
// candidate is accepted.
bool timing_opt_move(const SystemModel& sys, const PerformanceReport& report,
                     std::int64_t needed, std::int64_t ring_cap,
                     EvalContext& ctx, SelectionVector* next,
                     Evaluated* move) {
  const TimingOptPolicy kPolicies[] = {
      {/*allow_critical_slowdown=*/true, /*pin_non_critical=*/false},
      {/*allow_critical_slowdown=*/false, /*pin_non_critical=*/false},
      {/*allow_critical_slowdown=*/false, /*pin_non_critical=*/true},
  };
  std::vector<SelectionVector> tried = {current_selection(sys)};
  for (const TimingOptPolicy& policy : kPolicies) {
    TimingOptResult to;
    {
      obs::ObsSpan select_span("dse.select", "dse");
      obs::count("dse.timing_opts");
      to = timing_optimization(sys, report.critical_processes, needed,
                               ring_cap, policy);
    }
    if (!to.feasible ||
        std::find(tried.begin(), tried.end(), to.selection) != tried.end()) {
      continue;
    }
    Evaluated candidate = evaluate_candidate(sys, to.selection, ctx);
    if (candidate.report.live &&
        candidate.report.cycle_time <= report.cycle_time) {
      *next = std::move(to.selection);
      *move = std::move(candidate);
      return true;
    }
    tried.push_back(std::move(to.selection));
  }
  return false;
}

}  // namespace

ExplorationResult explore(SystemModel sys, const ExplorerOptions& options) {
  obs::ObsSpan explore_span("dse.explore", "dse");
  ExplorationResult result;
  std::set<SelectionVector> visited;
  EvalContext ctx(options);

  // Best state seen so far: a target-meeting state with minimal area beats
  // everything; among violating states, minimal cycle time. The exploration
  // may legitimately *end* on an overshoot (area recovery cuts too deep and
  // the revisit guard stops the repair); ERMES then reports the best state,
  // not the last one.
  SystemModel best_sys = sys;
  IterationRecord best_rec;
  bool have_best = false;
  auto better = [](const IterationRecord& a, const IterationRecord& b) {
    if (a.meets_target != b.meets_target) return a.meets_target;
    if (a.meets_target) return a.area < b.area;
    return a.cycle_time < b.cycle_time;
  };

  auto record = [&](int iteration, Action action,
                    const PerformanceReport& report) {
    IterationRecord rec;
    rec.iteration = iteration;
    rec.action = action;
    rec.live = report.live;
    rec.cycle_time = report.cycle_time;
    rec.area = sys.total_area();
    rec.slack = options.target_cycle_time -
                static_cast<std::int64_t>(std::llround(report.cycle_time));
    rec.meets_target = report.live && rec.slack > 0;
    rec.critical_processes = report.critical_processes;
    result.history.push_back(rec);
    if (rec.live && (!have_best || better(rec, best_rec))) {
      best_rec = rec;
      best_sys = sys;
      have_best = true;
    }
  };

  PerformanceReport report;
  {
    obs::ObsSpan init_span("dse.iteration", "dse");
    report = reorder_and_analyze(sys, ctx);
  }
  record(0, Action::kInit, report);
  visited.insert(current_selection(sys));
  ERMES_LOG(kDebug) << "dse: init CT="
                    << (report.live ? report.cycle_time : -1.0)
                    << " area=" << sys.total_area() << " target="
                    << options.target_cycle_time;

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    if (options.should_stop && options.should_stop()) {
      result.cancelled = true;
      obs::count("dse.cancelled");
      ERMES_LOG(kDebug) << "dse: iter " << iter << " cancelled by caller";
      break;
    }
    obs::ObsSpan iter_span("dse.iteration", "dse");
    obs::count("dse.iterations");
    if (!report.live) {
      ERMES_LOG(kWarn) << "explorer: system deadlocked, stopping";
      break;
    }
    const std::int64_t slack =
        options.target_cycle_time -
        static_cast<std::int64_t>(std::llround(report.cycle_time));

    SelectionVector next;
    Action action = Action::kNone;
    bool accepted = false;
    Evaluated move;

    if (slack > 0) {
      // Area recovery. Overshooting the target is allowed (the next
      // iteration repairs it, exactly like the Fig. 6 trajectories), so any
      // change is accepted.
      obs::ObsSpan select_span("dse.select", "dse");
      obs::count("dse.area_recoveries");
      const AreaRecoveryResult ar =
          area_recovery(sys, report.critical_processes, slack,
                        options.target_cycle_time);
      select_span.close();
      if (ar.feasible && ar.selection != current_selection(sys)) {
        next = ar.selection;
        action = Action::kAreaRecovery;
        move = evaluate_candidate(sys, next, ctx);
        accepted = move.report.live;
      }
    } else {
      accepted = timing_opt_move(sys, report, -slack,
                                 options.target_cycle_time, ctx, &next, &move);
      if (accepted) action = Action::kTimingOpt;
    }

    if (!accepted) {
      ERMES_LOG(kDebug) << "dse: iter " << iter
                        << " no acceptable move (slack=" << slack
                        << "), converged";
      result.converged = true;
      break;
    }
    if (!visited.insert(next).second) {
      // Configuration already explored: stop instead of cycling (the
      // paper's "constraints to discard the configurations already
      // optimized").
      ERMES_LOG(kDebug) << "dse: iter " << iter
                        << " revisited a configuration, converged";
      result.converged = true;
      break;
    }
    sys = std::move(move.system);
    report = move.report;
    record(iter, action, report);
    ERMES_LOG(kDebug) << "dse: iter " << iter << " action="
                      << to_string(action) << " CT=" << report.cycle_time
                      << " area=" << sys.total_area() << " slack="
                      << result.history.back().slack;
  }

  // Roll back to the best recorded state when the loop stopped elsewhere
  // (e.g. a final area-recovery overshoot that the revisit guard could not
  // repair); the rollback is visible in the history as a "none" action.
  if (have_best && !result.history.empty() &&
      better(best_rec, result.history.back())) {
    sys = std::move(best_sys);
    IterationRecord rec = best_rec;
    rec.iteration = result.history.back().iteration + 1;
    rec.action = Action::kNone;
    result.history.push_back(rec);
    obs::count("dse.rollbacks");
    ERMES_LOG(kDebug) << "dse: rolled back to best state (CT="
                      << rec.cycle_time << ", area=" << rec.area << ")";
  }
  result.met_target = !result.history.empty() &&
                      result.history.back().meets_target;
  result.final_system = std::move(sys);
  return result;
}

std::vector<ExplorationResult> sweep(const SystemModel& sys,
                                     const std::vector<std::int64_t>& targets,
                                     const ExplorerOptions& options) {
  std::vector<ExplorationResult> results(targets.size());
  const std::size_t jobs = std::min(
      targets.size(), options.jobs <= 0 ? exec::hardware_jobs()
                                        : static_cast<std::size_t>(options.jobs));
  // One warm solver per executing slot; the caller's own solver, when it
  // passed one, serves slot 0 (the calling thread).
  exec::SlotLocal<tmg::CycleMeanSolver> solvers(jobs);
  std::atomic<bool> stopped{false};
  const auto explore_one = [&](std::size_t i) {
    if (stopped.load(std::memory_order_relaxed)) {
      results[i].cancelled = true;
      return;
    }
    ExplorerOptions one = options;
    one.target_cycle_time = targets[i];
    if (one.solver == nullptr ||
        (jobs > 1 && exec::current_worker_slot() != 0)) {
      one.solver = &solvers.local();
    }
    results[i] = explore(sys, one);
    if (results[i].cancelled) stopped.store(true, std::memory_order_relaxed);
  };
  if (jobs > 1) {
    exec::ThreadPool pool(jobs);
    pool.parallel_for(targets.size(), explore_one, /*grain=*/1);
  } else {
    for (std::size_t i = 0; i < targets.size(); ++i) explore_one(i);
  }
  return results;
}

}  // namespace ermes::dse
