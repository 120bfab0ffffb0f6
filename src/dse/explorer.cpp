#include "dse/explorer.h"

#include <cassert>
#include <cmath>
#include <memory>
#include <set>

#include "analysis/performance.h"
#include "dse/area_recovery.h"
#include "dse/timing_opt.h"
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

// Execution context of one exploration run: the evaluation pool and memo,
// owned locally unless the caller shared theirs through the options.
struct EvalContext {
  EvalCache* cache = nullptr;
  exec::ThreadPool* pool = nullptr;
  std::unique_ptr<EvalCache> owned_cache;
  std::unique_ptr<exec::ThreadPool> owned_pool;
  // One CSR solver per worker slot (slot 0 = the caller thread). Candidate
  // systems share one topology — only latencies and orders vary — so each
  // worker's solver compiles once and then re-solves warm for the rest of
  // the run. Solvers are per-slot (not shared): CycleMeanSolver is not
  // internally synchronized. Slot 0 can be supplied externally
  // (ExplorerOptions::solver) so a sweep driver keeps it warm across runs.
  std::vector<tmg::CycleMeanSolver*> solvers;
  std::vector<std::unique_ptr<tmg::CycleMeanSolver>> owned_solvers;

  EvalContext(int jobs, EvalCache* shared_cache, exec::ThreadPool* shared_pool,
              tmg::CycleMeanSolver* shared_solver = nullptr) {
    if (shared_cache != nullptr) {
      cache = shared_cache;
    } else {
      owned_cache = std::make_unique<EvalCache>();
      cache = owned_cache.get();
    }
    const std::size_t want =
        jobs <= 0 ? exec::hardware_jobs() : static_cast<std::size_t>(jobs);
    if (shared_pool != nullptr) {
      pool = shared_pool;
    } else if (want > 1) {
      owned_pool = std::make_unique<exec::ThreadPool>(want);
      pool = owned_pool.get();
    }
    const std::size_t slots = pool != nullptr ? pool->jobs() : 1;
    solvers.reserve(slots);
    for (std::size_t i = 0; i < slots; ++i) {
      if (i == 0 && shared_solver != nullptr) {
        solvers.push_back(shared_solver);
      } else {
        owned_solvers.push_back(std::make_unique<tmg::CycleMeanSolver>());
        solvers.push_back(owned_solvers.back().get());
      }
    }
  }

  // The calling thread's solver. Inside evaluation workers the slot is the
  // worker's dense pool id; any other thread (including a worker of a
  // foreign pool, e.g. a service request task running a nested exploration
  // with jobs=1) falls back to slot 0, which is then the only user.
  tmg::CycleMeanSolver& solver() const {
    std::size_t slot = exec::current_worker_slot();
    if (slot >= solvers.size()) slot = 0;
    return *solvers[slot];
  }
};

// Reorders `sys` in place (when asked) and analyzes it through the memo;
// cache misses solve through the calling worker's CSR solver, which stays
// warm across candidates (same topology, different latencies).
PerformanceReport reorder_and_analyze(SystemModel& sys, bool reorder,
                                      EvalContext& ctx) {
  if (reorder) {
    obs::ObsSpan reorder_span("dse.reorder", "dse");
    ordering::apply_ordering(sys, ordering::channel_ordering(sys));
  }
  obs::ObsSpan analyze_span("dse.analyze", "dse");
  return ctx.cache->analyze(sys, ctx.solver());
}

// Applies a selection (plus reordering) to a copy and analyzes it through
// the memo.
PerformanceReport evaluate_candidate(const SystemModel& sys,
                                     const SelectionVector& selection,
                                     bool reorder, SystemModel* out,
                                     EvalContext& ctx) {
  SystemModel candidate = sys;
  apply_selection(candidate, selection);
  const PerformanceReport report = reorder_and_analyze(candidate, reorder, ctx);
  obs::count("dse.candidates_evaluated");
  if (out != nullptr) *out = std::move(candidate);
  return report;
}

struct Evaluated {
  SystemModel system;
  PerformanceReport report;
};

// Evaluates every candidate selection of an iteration, fanning across the
// pool when one is available. Result slot i always corresponds to
// selection i, and each evaluation is a pure function of (sys, selection),
// so the outcome is identical at any worker count.
std::vector<Evaluated> evaluate_candidates(
    const SystemModel& sys, const std::vector<SelectionVector>& selections,
    bool reorder, EvalContext& ctx) {
  std::vector<Evaluated> out(selections.size());
  const auto eval_one = [&](std::size_t i) {
    out[i].report =
        evaluate_candidate(sys, selections[i], reorder, &out[i].system, ctx);
  };
  if (ctx.pool != nullptr && selections.size() > 1) {
    ctx.pool->parallel_for(selections.size(), eval_one, /*grain=*/1);
  } else {
    for (std::size_t i = 0; i < selections.size(); ++i) eval_one(i);
  }
#ifndef NDEBUG
  // Parallel/sequential equivalence guard: re-run a sampled candidate
  // through the plain sequential path and insist on a bit-identical report.
  if (!selections.empty()) {
    const std::size_t probe = selections.size() / 2;
    SystemModel replay = sys;
    apply_selection(replay, selections[probe]);
    if (reorder) {
      ordering::apply_ordering(replay, ordering::channel_ordering(replay));
    }
    const PerformanceReport expected = analysis::analyze_system(replay);
    const PerformanceReport& got = out[probe].report;
    assert(got.live == expected.live &&
           got.cycle_time == expected.cycle_time &&
           got.ct_num == expected.ct_num && got.ct_den == expected.ct_den &&
           got.critical_processes == expected.critical_processes &&
           "dse: parallel evaluation diverged from the sequential path");
  }
#endif
  return out;
}

// Distinct selections in first-seen order (candidate lists are tiny).
std::vector<SelectionVector> dedup_selections(
    std::vector<SelectionVector> selections) {
  std::vector<SelectionVector> unique;
  for (SelectionVector& sel : selections) {
    bool seen = false;
    for (const SelectionVector& have : unique) {
      if (have == sel) {
        seen = true;
        break;
      }
    }
    if (!seen) unique.push_back(std::move(sel));
  }
  return unique;
}

// Timing optimization, shared by both loops: cascade from the paper's
// liberal formulation to progressively stricter ones. A liberal move can
// slow a process that sits on a *different* near-critical cycle (the
// per-cycle ILP cannot see the coupling), so each candidate is
// trial-evaluated and the first non-degrading one — in policy order — wins;
// under an area budget it must also fit the budget. Every ILP and every
// evaluation is pure, so all the iteration's candidates are proposed up
// front and analyzed together: the accepted move is identical to the
// sequential cascade's. Plateaus (<=) are accepted: with several
// co-critical cycles, fixing one keeps CT flat until the next iteration
// attacks the twin cycle; the callers' visited sets guarantee termination.
// Returns false when no candidate is accepted.
bool timing_opt_move(const SystemModel& sys, const PerformanceReport& report,
                     std::int64_t needed, std::optional<double> area_budget,
                     std::int64_t ring_cap, bool reorder, EvalContext& ctx,
                     SelectionVector* next, Evaluated* move) {
  const TimingOptPolicy kPolicies[] = {
      {/*allow_critical_slowdown=*/true, /*pin_non_critical=*/false},
      {/*allow_critical_slowdown=*/false, /*pin_non_critical=*/false},
      {/*allow_critical_slowdown=*/false, /*pin_non_critical=*/true},
  };
  std::vector<SelectionVector> proposals;
  for (const TimingOptPolicy& policy : kPolicies) {
    obs::ObsSpan select_span("dse.select", "dse");
    obs::count("dse.timing_opts");
    const TimingOptResult to =
        timing_optimization(sys, report.critical_processes, needed,
                            area_budget, ring_cap, policy, ctx.pool);
    if (to.feasible && to.selection != current_selection(sys)) {
      proposals.push_back(to.selection);
    }
  }
  proposals = dedup_selections(std::move(proposals));
  std::vector<Evaluated> evaluated =
      evaluate_candidates(sys, proposals, reorder, ctx);
  for (std::size_t i = 0; i < evaluated.size(); ++i) {
    if (evaluated[i].report.live &&
        evaluated[i].report.cycle_time <= report.cycle_time &&
        (!area_budget ||
         evaluated[i].system.total_area() <= *area_budget + 1e-9)) {
      *next = std::move(proposals[i]);
      *move = std::move(evaluated[i]);
      return true;
    }
  }
  return false;
}

}  // namespace

ExplorationResult explore(SystemModel sys, const ExplorerOptions& options) {
  obs::ObsSpan explore_span("dse.explore", "dse");
  ExplorationResult result;
  std::set<SelectionVector> visited;
  EvalContext ctx(options.jobs, options.cache, options.pool,
                  options.solver);

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
    report = reorder_and_analyze(sys, options.reorder_channels, ctx);
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
    SystemModel accepted_system;
    PerformanceReport accepted_report;

    if (slack > 0) {
      // Area recovery. Overshooting the target is allowed (the next
      // iteration repairs it, exactly like the Fig. 6 trajectories), so any
      // change is accepted.
      obs::ObsSpan select_span("dse.select", "dse");
      obs::count("dse.area_recoveries");
      const AreaRecoveryResult ar =
          area_recovery(sys, report.critical_processes, slack,
                        options.target_cycle_time, ctx.pool);
      select_span.close();
      if (ar.feasible && ar.selection != current_selection(sys)) {
        next = ar.selection;
        action = Action::kAreaRecovery;
        accepted_report = evaluate_candidate(
            sys, next, options.reorder_channels, &accepted_system, ctx);
        accepted = accepted_report.live;
      }
    } else {
      Evaluated move;
      accepted = timing_opt_move(sys, report, -slack, std::nullopt,
                                 options.target_cycle_time,
                                 options.reorder_channels, ctx, &next, &move);
      if (accepted) {
        action = Action::kTimingOpt;
        accepted_system = std::move(move.system);
        accepted_report = move.report;
      }
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
    sys = std::move(accepted_system);
    report = accepted_report;
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

ExplorationResult explore_area_constrained(SystemModel sys,
                                           double area_budget,
                                           const ExplorerOptions& options) {
  obs::ObsSpan explore_span("dse.explore_area_constrained", "dse");
  ExplorationResult result;
  std::set<SelectionVector> visited;
  EvalContext ctx(options.jobs, options.cache, options.pool,
                  options.solver);

  auto record = [&](int iteration, Action action,
                    const PerformanceReport& report) {
    IterationRecord rec;
    rec.iteration = iteration;
    rec.action = action;
    rec.live = report.live;
    rec.cycle_time = report.cycle_time;
    rec.area = sys.total_area();
    rec.slack = 0;
    rec.meets_target = report.live && rec.area <= area_budget + 1e-9;
    rec.critical_processes = report.critical_processes;
    result.history.push_back(rec);
  };

  PerformanceReport report =
      reorder_and_analyze(sys, options.reorder_channels, ctx);
  record(0, Action::kInit, report);
  visited.insert(current_selection(sys));

  for (int iter = 1; iter <= options.max_iterations && report.live; ++iter) {
    if (options.should_stop && options.should_stop()) {
      result.cancelled = true;
      obs::count("dse.cancelled");
      break;
    }
    obs::ObsSpan iter_span("dse.iteration", "dse");
    obs::count("dse.iterations");
    SelectionVector next;
    Evaluated move;
    if (!timing_opt_move(sys, report, /*needed=*/0, area_budget,
                         /*ring_cap=*/0, options.reorder_channels, ctx, &next,
                         &move) ||
        !visited.insert(next).second) {
      result.converged = true;
      break;
    }
    sys = std::move(move.system);
    report = move.report;
    record(iter, Action::kTimingOpt, report);
  }

  result.met_target = !result.history.empty() &&
                      result.history.back().meets_target;
  result.final_system = std::move(sys);
  return result;
}

}  // namespace ermes::dse
