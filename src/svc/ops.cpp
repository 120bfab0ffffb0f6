#include "svc/ops.h"

#include <atomic>
#include <stdexcept>
#include <vector>

#include "dse/explorer.h"
#include "io/soc_hier.h"
#include "obs/request_context.h"
#include "ordering/channel_ordering.h"
#include "svc/render.h"

namespace ermes::svc {

namespace {

JsonValue run_analyze(const sysmodel::SystemModel& sys, OpEnv& env) {
  const analysis::PerformanceReport report =
      env.cache.analyze(sys, env.solvers.local());
  JsonValue result = JsonValue::object();
  result.set("live", JsonValue::boolean(report.live));
  result.set("cycle_time", JsonValue::number(report.cycle_time));
  result.set("ct_num", JsonValue::integer(report.ct_num));
  result.set("ct_den", JsonValue::integer(report.ct_den));
  result.set("throughput", JsonValue::number(report.throughput));
  JsonValue critical = JsonValue::array();
  for (const sysmodel::ProcessId p : report.critical_processes) {
    critical.push_back(JsonValue::string(sys.process_name(p)));
  }
  result.set("critical_processes", std::move(critical));
  result.set("text", JsonValue::string(analyze_text(sys, report)));
  return result;
}

JsonValue run_order(const io::ParseResult& parsed, OpEnv& env) {
  tmg::CycleMeanSolver& solver = env.solvers.local();
  const analysis::PerformanceReport before =
      env.cache.analyze(parsed.system, solver);
  const sysmodel::SystemModel ordered =
      ordering::with_optimal_ordering(parsed.system);
  const analysis::PerformanceReport after =
      env.cache.analyze(ordered, solver);
  JsonValue result = JsonValue::object();
  if (before.live) {
    result.set("cycle_time_before", JsonValue::number(before.cycle_time));
  } else {
    result.set("cycle_time_before", JsonValue::null());
  }
  result.set("cycle_time_after", JsonValue::number(after.cycle_time));
  result.set("soc",
             JsonValue::string(io::write_soc(ordered, parsed.system_name)));
  result.set("text",
             JsonValue::string(order_text(before.live, before.cycle_time,
                                          after, ordered,
                                          parsed.system_name)));
  return result;
}

// One serial exploration toward `tct` on the calling slot's warm solver.
dse::ExplorationResult explore_target(
    const sysmodel::SystemModel& sys, std::int64_t tct, OpEnv& env,
    const std::function<bool()>& should_stop) {
  dse::ExplorerOptions options;
  options.target_cycle_time = tct;
  options.cache = &env.cache;
  options.solver = &env.solvers.local();
  options.should_stop = should_stop;
  return dse::explore(sys, options);
}

JsonValue history_json(const dse::ExplorationResult& result) {
  JsonValue history = JsonValue::array();
  for (const dse::IterationRecord& rec : result.history) {
    JsonValue row = JsonValue::object();
    row.set("iteration", JsonValue::integer(rec.iteration));
    row.set("action", JsonValue::string(dse::to_string(rec.action)));
    row.set("cycle_time", JsonValue::number(rec.cycle_time));
    row.set("area", JsonValue::number(rec.area));
    row.set("slack", JsonValue::integer(rec.slack));
    row.set("meets_target", JsonValue::boolean(rec.meets_target));
    history.push_back(std::move(row));
  }
  return history;
}

JsonValue explore_json(const dse::ExplorationResult& result) {
  JsonValue out = JsonValue::object();
  out.set("met_target", JsonValue::boolean(result.met_target));
  out.set("converged", JsonValue::boolean(result.converged));
  out.set("iterations",
          JsonValue::integer(static_cast<std::int64_t>(result.history.size())));
  if (!result.history.empty()) {
    out.set("final_cycle_time",
            JsonValue::number(result.history.back().cycle_time));
    out.set("final_area", JsonValue::number(result.history.back().area));
  }
  out.set("history", history_json(result));
  out.set("text", JsonValue::string(explore_text(result)));
  return out;
}

// One per-target body, run across env.pool when the env has one and in
// order otherwise. Targets share env.cache — sweep points revisit the same
// candidate systems constantly, so the memo does a large share of the work.
// Once an exploration is cut short by `should_stop`, the remaining targets
// are skipped and *cancelled is set.
JsonValue run_sweep(const Request& request, const sysmodel::SystemModel& sys,
                    OpEnv& env, const std::function<bool()>& should_stop,
                    bool* cancelled) {
  std::string range_error;  // both callers validated the range already
  const std::vector<std::int64_t> targets =
      sweep_targets(request.lo, request.hi, request.step, &range_error);
  std::vector<dse::ExplorationResult> results(targets.size());
  std::atomic<bool> stopped{false};
  const auto explore_one = [&](std::size_t i) {
    if (stopped.load(std::memory_order_relaxed)) return;
    results[i] = explore_target(sys, targets[i], env, should_stop);
    if (results[i].cancelled) stopped.store(true, std::memory_order_relaxed);
  };
  if (env.pool != nullptr) {
    env.pool->parallel_for(targets.size(), explore_one, /*grain=*/1);
  } else {
    for (std::size_t i = 0; i < targets.size(); ++i) explore_one(i);
  }
  if (stopped.load()) {
    *cancelled = true;
    return JsonValue::null();
  }
  JsonValue rows = JsonValue::array();
  bool all_met = true;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    JsonValue row = JsonValue::object();
    row.set("tct", JsonValue::integer(targets[i]));
    row.set("iterations",
            JsonValue::integer(
                static_cast<std::int64_t>(results[i].history.size())));
    row.set("final_cycle_time",
            JsonValue::number(results[i].history.back().cycle_time));
    row.set("final_area", JsonValue::number(results[i].history.back().area));
    row.set("met_target", JsonValue::boolean(results[i].met_target));
    rows.push_back(std::move(row));
    all_met = all_met && results[i].met_target;
  }
  JsonValue out = JsonValue::object();
  out.set("targets", std::move(rows));
  out.set("all_met", JsonValue::boolean(all_met));
  out.set("text", JsonValue::string(sweep_text(targets, results)));
  return out;
}

}  // namespace

OpEnv::OpEnv(std::size_t jobs, SweepFanOut fan_out, std::int64_t cache_bytes)
    : cache(16, cache_bytes),
      pool(fan_out == SweepFanOut::kPool
               ? std::make_unique<exec::ThreadPool>(jobs)
               : nullptr),
      solvers(pool != nullptr ? pool->jobs() : jobs) {}

io::ParseResult parse_model(const Request& request) {
  obs::StageTimer parse_timer(obs::Stage::kParse);
  return request.hier ? io::parse_soc_flattened(request.soc)
                      : io::parse_soc(request.soc);
}

OpResult run_op(const Request& request, OpEnv& env,
                const std::function<bool()>& should_stop) {
  if (request.op != Op::kAnalyze && request.op != Op::kOrder &&
      request.op != Op::kExplore && request.op != Op::kSweep) {
    throw std::invalid_argument(std::string("run_op: '") +
                                to_string(request.op) + "' is not a model op");
  }
  OpResult out;
  const io::ParseResult parsed = parse_model(request);
  if (!parsed.ok) {
    out.soc_error = parsed.error;
    return out;
  }
  switch (request.op) {
    case Op::kAnalyze:
      out.result = run_analyze(parsed.system, env);
      break;
    case Op::kOrder:
      out.result = run_order(parsed, env);
      break;
    case Op::kExplore: {
      const dse::ExplorationResult result =
          explore_target(parsed.system, request.tct, env, should_stop);
      if (result.cancelled) {
        out.cancelled = true;
      } else {
        out.result = explore_json(result);
      }
      break;
    }
    default:
      out.result =
          run_sweep(request, parsed.system, env, should_stop, &out.cancelled);
      break;
  }
  return out;
}

}  // namespace ermes::svc
