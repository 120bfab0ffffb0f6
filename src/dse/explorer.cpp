#include "dse/explorer.h"

#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <set>

#include "analysis/performance.h"
#include "comp/partition.h"
#include "dse/area_recovery.h"
#include "dse/timing_opt.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "ordering/channel_ordering.h"
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
  // Fingerprint of the Pareto sets (constant across a run); folded into the
  // selection-solver memo keys because system_fingerprint excludes areas.
  std::uint64_t impl_fp = 0;
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
        jobs <= 0 ? exec::default_jobs() : static_cast<std::size_t>(jobs);
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

// Memoized analysis of one candidate system through the SCC-partitioned
// engine: per-component reuse under the whole-report memo.
PerformanceReport analyze_memo(const SystemModel& sys, EvalContext& ctx) {
  // No pool: this runs inside evaluation workers, and exec::ThreadPool
  // rejects nested parallelism. Cache misses solve through the calling
  // worker's CSR solver, which stays warm across candidates (same topology,
  // different latencies).
  return comp::analyze_cached(sys, *ctx.cache, &ctx.solver());
}

// Reorders `sys` in place (when asked) and analyzes it through the memo.
// The whole reorder+analyze tail is memoized under the fingerprint of the
// *pre-reorder* system: Algorithm 1 is deterministic, so a repeat candidate
// (another sweep point, a warm re-run) skips both the ordering pass and
// Howard and only replays the stored orders onto the copy.
PerformanceReport reorder_and_analyze(SystemModel& sys, bool reorder,
                                      EvalContext& ctx) {
  EvalCache& cache = *ctx.cache;
  if (!reorder) {
    obs::ObsSpan analyze_span("dse.analyze", "dse");
    return analyze_memo(sys, ctx);
  }
  const std::uint64_t pre_fp = analysis::system_fingerprint(sys);
  analysis::OrderedEval memo;
  if (cache.lookup_eval(pre_fp, &memo)) {
    for (sysmodel::ProcessId p = 0; p < sys.num_processes(); ++p) {
      sys.set_input_order(p, memo.input_orders[p]);
      sys.set_output_order(p, memo.output_orders[p]);
    }
    return memo.report;
  }
  {
    obs::ObsSpan reorder_span("dse.reorder", "dse");
    ordering::apply_ordering(sys, ordering::channel_ordering(sys));
  }
  {
    obs::ObsSpan analyze_span("dse.analyze", "dse");
    memo.report = analyze_memo(sys, ctx);
  }
  memo.input_orders.reserve(sys.num_processes());
  memo.output_orders.reserve(sys.num_processes());
  for (sysmodel::ProcessId p = 0; p < sys.num_processes(); ++p) {
    memo.input_orders.push_back(sys.input_order(p));
    memo.output_orders.push_back(sys.output_order(p));
  }
  cache.insert_eval(pre_fp, memo);
  return memo.report;
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

// Serial multi-candidate evaluation with a batched analyze stage:
// per-candidate apply + ordered-eval memo probe + reorder stay sequential
// (they are cheap and order-dependent), then every candidate still needing
// analysis is swept through one EvalCache::analyze_batch call. Reordering
// changes the TMG *structure*, so analyze_batch regroups internally; when
// orders repeat across candidates (the common case — Algorithm 1 is
// deterministic over near-identical latencies) the misses collapse into one
// prepared structure + one solve_batch sweep. Reports are bit-identical to
// the per-candidate path (analyze_batch's contract).
void evaluate_candidates_batched(const SystemModel& sys,
                                 const std::vector<SelectionVector>& selections,
                                 bool reorder, EvalContext& ctx,
                                 std::vector<Evaluated>& out) {
  const std::size_t k = selections.size();
  std::vector<std::uint64_t> pre_fps(k, 0);
  std::vector<std::size_t> pending;
  pending.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    out[i].system = sys;
    apply_selection(out[i].system, selections[i]);
    obs::count("dse.candidates_evaluated");
    if (!reorder) {
      pending.push_back(i);
      continue;
    }
    pre_fps[i] = analysis::system_fingerprint(out[i].system);
    analysis::OrderedEval memo;
    if (ctx.cache->lookup_eval(pre_fps[i], &memo)) {
      for (sysmodel::ProcessId p = 0; p < out[i].system.num_processes(); ++p) {
        out[i].system.set_input_order(p, memo.input_orders[p]);
        out[i].system.set_output_order(p, memo.output_orders[p]);
      }
      out[i].report = memo.report;
      continue;
    }
    obs::ObsSpan reorder_span("dse.reorder", "dse");
    ordering::apply_ordering(out[i].system,
                             ordering::channel_ordering(out[i].system));
    pending.push_back(i);
  }
  if (!pending.empty()) {
    obs::ObsSpan analyze_span("dse.analyze", "dse");
    std::vector<const SystemModel*> pointers;
    pointers.reserve(pending.size());
    for (const std::size_t i : pending) pointers.push_back(&out[i].system);
    const std::vector<PerformanceReport> reports = ctx.cache->analyze_batch(
        std::span<const SystemModel* const>(pointers), &ctx.solver());
    for (std::size_t j = 0; j < pending.size(); ++j) {
      out[pending[j]].report = reports[j];
    }
  }
  if (reorder) {
    for (const std::size_t i : pending) {
      analysis::OrderedEval memo;
      memo.report = out[i].report;
      memo.input_orders.reserve(out[i].system.num_processes());
      memo.output_orders.reserve(out[i].system.num_processes());
      for (sysmodel::ProcessId p = 0; p < out[i].system.num_processes(); ++p) {
        memo.input_orders.push_back(out[i].system.input_order(p));
        memo.output_orders.push_back(out[i].system.output_order(p));
      }
      ctx.cache->insert_eval(pre_fps[i], memo);
    }
  }
}

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
  } else if (selections.size() > 1) {
    evaluate_candidates_batched(sys, selections, reorder, ctx, out);
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

// --- memoized selection solvers ---------------------------------------------
//
// The selection ILPs are pure functions of (system, Pareto sets, current
// selection, solver parameters) — in the DSE loop they dominate the
// iteration cost, so repeat states (warm sweeps, overlapping trajectories of
// nearby TCT points) fetch the proposal from the shared cache instead of
// re-solving. The key folds in everything the solver reads; debug builds
// re-solve a sampled subset of hits and assert identical proposals.

double bits_to_double(std::int64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

std::int64_t double_to_bits(double d) {
  std::int64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

std::uint64_t selection_key(std::uint64_t tag, const SystemModel& sys,
                            const EvalContext& ctx,
                            std::initializer_list<std::uint64_t> params) {
  std::uint64_t h =
      analysis::fingerprint_mix(analysis::system_fingerprint(sys), tag);
  h = analysis::fingerprint_mix(h, ctx.impl_fp);
  // The current selection is folded in explicitly: latencies alone identify
  // it only for strictly Pareto-optimal sets, and the solvers read areas.
  for (std::size_t choice : current_selection(sys)) {
    h = analysis::fingerprint_mix(h, choice);
  }
  for (std::uint64_t w : params) h = analysis::fingerprint_mix(h, w);
  return h;
}

#ifndef NDEBUG
std::atomic<std::uint64_t> g_solver_verify_tick{0};
#endif

TimingOptResult memoized_timing_opt(
    const SystemModel& sys, const std::vector<sysmodel::ProcessId>& critical,
    std::int64_t needed, std::optional<double> area_budget,
    std::int64_t ring_cap, const TimingOptPolicy& policy, EvalContext& ctx) {
  const std::uint64_t key = selection_key(
      0x71u, sys, ctx,
      {static_cast<std::uint64_t>(needed),
       area_budget ? 0x1uLL : 0x0uLL,
       area_budget ? static_cast<std::uint64_t>(double_to_bits(*area_budget))
                   : 0uLL,
       static_cast<std::uint64_t>(ring_cap),
       (policy.allow_critical_slowdown ? 0x2uLL : 0uLL) |
           (policy.pin_non_critical ? 0x4uLL : 0uLL)});
  std::vector<std::int64_t> payload;
  if (ctx.cache->lookup_aux(key, &payload)) {
    TimingOptResult result;
    result.feasible = payload[0] != 0;
    result.latency_gain = payload[1];
    result.area_gain = bits_to_double(payload[2]);
    result.selection.assign(payload.begin() + 3, payload.end());
#ifndef NDEBUG
    if (g_solver_verify_tick.fetch_add(1, std::memory_order_relaxed) % 16 ==
        0) {
      const TimingOptResult expected = timing_optimization(
          sys, critical, needed, area_budget, ring_cap, policy, ctx.pool);
      assert(expected.feasible == result.feasible &&
             expected.selection == result.selection &&
             "dse: memoized timing-opt proposal diverges from a re-solve "
             "(selection memo key under-covers the solver inputs)");
    }
#endif
    return result;
  }
  const TimingOptResult result = timing_optimization(
      sys, critical, needed, area_budget, ring_cap, policy, ctx.pool);
  payload = {result.feasible ? 1 : 0, result.latency_gain,
             double_to_bits(result.area_gain)};
  payload.insert(payload.end(), result.selection.begin(),
                 result.selection.end());
  ctx.cache->insert_aux(key, payload);
  return result;
}

AreaRecoveryResult memoized_area_recovery(
    const SystemModel& sys, const std::vector<sysmodel::ProcessId>& critical,
    std::int64_t slack, std::int64_t ring_cap, EvalContext& ctx) {
  const std::uint64_t key =
      selection_key(0xa2u, sys, ctx,
                    {static_cast<std::uint64_t>(slack),
                     static_cast<std::uint64_t>(ring_cap)});
  std::vector<std::int64_t> payload;
  if (ctx.cache->lookup_aux(key, &payload)) {
    AreaRecoveryResult result;
    result.feasible = payload[0] != 0;
    result.area_gain = bits_to_double(payload[1]);
    result.latency_spent = payload[2];
    result.selection.assign(payload.begin() + 3, payload.end());
#ifndef NDEBUG
    if (g_solver_verify_tick.fetch_add(1, std::memory_order_relaxed) % 16 ==
        0) {
      const AreaRecoveryResult expected =
          area_recovery(sys, critical, slack, ring_cap, ctx.pool);
      assert(expected.feasible == result.feasible &&
             expected.selection == result.selection &&
             "dse: memoized area-recovery proposal diverges from a re-solve "
             "(selection memo key under-covers the solver inputs)");
    }
#endif
    return result;
  }
  const AreaRecoveryResult result =
      area_recovery(sys, critical, slack, ring_cap, ctx.pool);
  payload = {result.feasible ? 1 : 0, double_to_bits(result.area_gain),
             result.latency_spent};
  payload.insert(payload.end(), result.selection.begin(),
                 result.selection.end());
  ctx.cache->insert_aux(key, payload);
  return result;
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

}  // namespace

ExplorationResult explore(SystemModel sys, const ExplorerOptions& options) {
  obs::ObsSpan explore_span("dse.explore", "dse");
  ExplorationResult result;
  std::set<SelectionVector> visited;
  EvalContext ctx(options.jobs, options.cache, options.pool,
                  options.solver);
  ctx.impl_fp = analysis::implementation_fingerprint(sys);

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
          memoized_area_recovery(sys, report.critical_processes, slack,
                                 options.target_cycle_time, ctx);
      select_span.close();
      if (ar.feasible && ar.selection != current_selection(sys)) {
        next = ar.selection;
        action = Action::kAreaRecovery;
        accepted_report = evaluate_candidate(
            sys, next, options.reorder_channels, &accepted_system, ctx);
        accepted = accepted_report.live;
      }
    } else {
      // Timing optimization: cascade from the paper's liberal formulation
      // to progressively stricter ones. A liberal move can slow a process
      // that sits on a *different* near-critical cycle (the per-cycle ILP
      // cannot see the coupling), so each candidate is trial-evaluated and
      // the first non-degrading one — in policy order — wins. Every ILP and
      // every evaluation is pure, so all the iteration's candidates can be
      // proposed up front and analyzed concurrently: the accepted move is
      // identical to the sequential cascade's.
      const TimingOptPolicy kPolicies[] = {
          {/*allow_critical_slowdown=*/true, /*pin_non_critical=*/false},
          {/*allow_critical_slowdown=*/false, /*pin_non_critical=*/false},
          {/*allow_critical_slowdown=*/false, /*pin_non_critical=*/true},
      };
      std::vector<SelectionVector> proposals;
      for (const TimingOptPolicy& policy : kPolicies) {
        obs::ObsSpan select_span("dse.select", "dse");
        obs::count("dse.timing_opts");
        const TimingOptResult to = memoized_timing_opt(
            sys, report.critical_processes, -slack, std::nullopt,
            options.target_cycle_time, policy, ctx);
        if (to.feasible && to.selection != current_selection(sys)) {
          proposals.push_back(to.selection);
        }
      }
      proposals = dedup_selections(std::move(proposals));
      std::vector<Evaluated> evaluated = evaluate_candidates(
          sys, proposals, options.reorder_channels, ctx);
      for (std::size_t i = 0; i < evaluated.size(); ++i) {
        // Accept plateaus (<=): with several co-critical cycles, fixing one
        // keeps CT flat until the next iteration attacks the twin cycle;
        // the visited-set guarantees termination.
        if (evaluated[i].report.live &&
            evaluated[i].report.cycle_time <= report.cycle_time) {
          next = proposals[i];
          action = Action::kTimingOpt;
          accepted_system = std::move(evaluated[i].system);
          accepted_report = evaluated[i].report;
          accepted = true;
          break;
        }
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

ExplorationResult explore_area_constrained(
    SystemModel sys, const DualExplorerOptions& options) {
  obs::ObsSpan explore_span("dse.explore_area_constrained", "dse");
  ExplorationResult result;
  std::set<SelectionVector> visited;
  EvalContext ctx(options.jobs, options.cache, options.pool,
                  options.solver);
  ctx.impl_fp = analysis::implementation_fingerprint(sys);

  auto record = [&](int iteration, Action action,
                    const PerformanceReport& report) {
    IterationRecord rec;
    rec.iteration = iteration;
    rec.action = action;
    rec.live = report.live;
    rec.cycle_time = report.cycle_time;
    rec.area = sys.total_area();
    rec.slack = 0;
    rec.meets_target = report.live && rec.area <= options.area_budget + 1e-9;
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
    bool accepted = false;
    SystemModel accepted_system;
    PerformanceReport accepted_report;
    SelectionVector next;
    const TimingOptPolicy kPolicies[] = {
        {/*allow_critical_slowdown=*/true, /*pin_non_critical=*/false},
        {/*allow_critical_slowdown=*/false, /*pin_non_critical=*/false},
        {/*allow_critical_slowdown=*/false, /*pin_non_critical=*/true},
    };
    std::vector<SelectionVector> proposals;
    for (const TimingOptPolicy& policy : kPolicies) {
      const TimingOptResult to = memoized_timing_opt(
          sys, report.critical_processes, /*needed=*/0, options.area_budget,
          /*ring_cap=*/0, policy, ctx);
      if (to.feasible && to.selection != current_selection(sys)) {
        proposals.push_back(to.selection);
      }
    }
    proposals = dedup_selections(std::move(proposals));
    std::vector<Evaluated> evaluated =
        evaluate_candidates(sys, proposals, options.reorder_channels, ctx);
    for (std::size_t i = 0; i < evaluated.size(); ++i) {
      if (evaluated[i].report.live &&
          evaluated[i].report.cycle_time <= report.cycle_time &&
          evaluated[i].system.total_area() <= options.area_budget + 1e-9) {
        next = proposals[i];
        accepted_system = std::move(evaluated[i].system);
        accepted_report = evaluated[i].report;
        accepted = true;
        break;
      }
    }
    if (!accepted || !visited.insert(next).second) {
      result.converged = true;
      break;
    }
    sys = std::move(accepted_system);
    report = accepted_report;
    record(iter, Action::kTimingOpt, report);
  }

  result.met_target = !result.history.empty() &&
                      result.history.back().meets_target;
  result.final_system = std::move(sys);
  return result;
}

}  // namespace ermes::dse
