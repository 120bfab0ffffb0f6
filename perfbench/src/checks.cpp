#include "checks.h"

#include <cmath>

#include "analysis/tmg_builder.h"
#include "tmg/cycle_ratio.h"
#include "tmg/karp.h"

namespace perfbench {

namespace {

bool same_value(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double IndependentCt::value() const {
  return den == 0 ? HUGE_VAL : static_cast<double>(num) / static_cast<double>(den);
}

IndependentCt lawler_cycle_time(const ermes::sysmodel::SystemModel& sys) {
  const ermes::analysis::SystemTmg stmg = ermes::analysis::build_tmg(sys);
  const ermes::tmg::CycleRatioResult r =
      ermes::tmg::max_cycle_ratio_lawler(ermes::tmg::to_ratio_graph(stmg.graph));
  if (!r.has_cycle || r.is_infinite()) return {0, 0};
  return {r.ratio_num, r.ratio_den};
}

std::string check_explore(const ermes::dse::ExplorationResult& result,
                          std::int64_t tct, const std::string& text) {
  if (result.cancelled) return "exploration cancelled";
  if (result.history.empty()) return "empty history";
  const ermes::dse::IterationRecord& last = result.history.back();
  const ermes::sysmodel::SystemModel& sys = result.final_system;

  const IndependentCt ct = lawler_cycle_time(sys);
  const bool live = ct.den != 0;
  if (live != last.live) {
    return std::string("liveness: reported ") + (last.live ? "live" : "dead") +
           ", Lawler finds " + (live ? "live" : "a zero-token cycle");
  }
  if (live && !same_value(ct.value(), last.cycle_time)) {
    return "cycle time: reported " + num(last.cycle_time) + ", Lawler " +
           std::to_string(ct.num) + "/" + std::to_string(ct.den);
  }
  // CT < TCT in exact arithmetic: num / den < tct  <=>  num < tct * den.
  const bool meets = live && ct.num < tct * ct.den;
  if (meets != result.met_target) {
    return "met_target=" + std::string(result.met_target ? "true" : "false") +
           " but CT " + std::to_string(ct.num) + "/" + std::to_string(ct.den) +
           " vs TCT " + std::to_string(tct);
  }

  double area = 0.0;
  for (ermes::sysmodel::ProcessId p = 0; p < sys.num_processes(); ++p) {
    area += sys.has_implementations(p)
                ? sys.implementations(p).at(sys.selected_implementation(p)).area
                : sys.area(p);
  }
  if (!same_value(area, last.area)) {
    return "area: reported " + num(last.area) +
           ", selected implementations sum to " + num(area);
  }

  const std::string verdict =
      result.met_target ? "target met\n" : "target NOT met\n";
  if (text.size() < verdict.size() ||
      text.compare(text.size() - verdict.size(), verdict.size(), verdict) != 0) {
    return "rendered verdict does not match met_target";
  }
  return "";
}

std::string check_flow(const ermes::ordering::RepairResult& repair,
                       const ermes::analysis::PerformanceReport& report,
                       const ermes::sim::ScenarioResult& sim,
                       std::optional<double> pinned_ct) {
  if (!repair.live) return "repair did not reach a live order";
  if (!report.live) return "Howard reports a deadlock after repair";
  if (sim.deadlocked) return "simulation deadlocked";
  if (sim.hit_cycle_limit) return "simulation hit its cycle limit";
  if (sim.measured_cycle_time != report.cycle_time) {
    return "simulated CT " + num(sim.measured_cycle_time) + " != Howard CT " +
           num(report.cycle_time);
  }
  if (pinned_ct && report.cycle_time != *pinned_ct) {
    return "Howard CT " + num(report.cycle_time) + " != pinned " +
           num(*pinned_ct);
  }
  return "";
}

}  // namespace perfbench
