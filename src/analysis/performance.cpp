#include "analysis/performance.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/span.h"
#include "tmg/csr.h"
#include "util/table.h"

namespace ermes::analysis {

PerformanceReport analyze(const SystemTmg& stmg) {
  tmg::CycleMeanSolver solver;
  return analyze(stmg, solver);
}

PerformanceReport analyze(const SystemTmg& stmg, tmg::CycleMeanSolver& solver) {
  obs::ObsSpan span("analysis.analyze", "analysis");
  obs::count("analysis.analyses");
  // prepare() screens the structure for a token-free cycle once; its
  // witness is the liveness verdict (no second DFS here).
  solver.prepare(stmg.graph);
  if (!solver.live()) {
    PerformanceReport report;
    report.dead_cycle = solver.dead_cycle();
    return report;
  }
  obs::StageTimer solve_timer(obs::Stage::kSolve);
  return report_from_ratio(stmg, solver.solve());
}

PerformanceReport report_from_ratio(const SystemTmg& stmg,
                                    const tmg::CycleRatioResult& ratio) {
  PerformanceReport report;
  report.live = true;
  if (!ratio.has_cycle) {
    // A system TMG always has the per-process rings, so this only happens on
    // empty systems; report zero cycle time.
    return report;
  }
  report.cycle_time = ratio.ratio;
  report.ct_num = ratio.ratio_num;
  report.ct_den = ratio.ratio_den;
  report.throughput = ratio.ratio > 0.0 ? 1.0 / ratio.ratio : 0.0;

  // Ratio-graph arc ids are PlaceIds by construction.
  report.critical_places.assign(ratio.critical_cycle.begin(),
                                ratio.critical_cycle.end());
  for (tmg::PlaceId p : report.critical_places) {
    const tmg::TransitionId t = stmg.graph.producer(p);
    const TransitionOrigin& origin =
        stmg.transition_origin[static_cast<std::size_t>(t)];
    if (origin.kind == TransitionOrigin::Kind::kCompute) {
      report.critical_processes.push_back(origin.process);
    } else {
      report.critical_channels.push_back(origin.channel);
    }
  }
  auto dedup = [](auto& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  dedup(report.critical_processes);
  dedup(report.critical_channels);
  return report;
}

bool reports_bit_identical(const PerformanceReport& a,
                           const PerformanceReport& b) {
  const auto bits = [](double d) {
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
  };
  return a.live == b.live && bits(a.cycle_time) == bits(b.cycle_time) &&
         a.ct_num == b.ct_num && a.ct_den == b.ct_den &&
         bits(a.throughput) == bits(b.throughput) &&
         a.dead_cycle == b.dead_cycle &&
         a.critical_processes == b.critical_processes &&
         a.critical_channels == b.critical_channels &&
         a.critical_places == b.critical_places;
}

PerformanceReport analyze_system(const sysmodel::SystemModel& sys) {
  tmg::CycleMeanSolver solver;
  return analyze_system(sys, solver);
}

PerformanceReport analyze_system(const sysmodel::SystemModel& sys,
                                 tmg::CycleMeanSolver& solver) {
  obs::ObsSpan build_span("analysis.build_tmg", "analysis");
  const SystemTmg stmg = build_tmg(sys);
  build_span.close();
  return analyze(stmg, solver);
}

std::string summarize(const PerformanceReport& report,
                      const sysmodel::SystemModel& sys) {
  std::ostringstream out;
  if (!report.live) {
    out << "DEADLOCK: token-free cycle of " << report.dead_cycle.size()
        << " places";
    return out.str();
  }
  out << "cycle time " << util::format_double(report.cycle_time)
      << " (throughput " << util::format_double(report.throughput, 9)
      << "); critical processes {";
  for (std::size_t i = 0; i < report.critical_processes.size(); ++i) {
    out << (i ? ", " : "") << sys.process_name(report.critical_processes[i]);
  }
  out << "}; critical channels {";
  for (std::size_t i = 0; i < report.critical_channels.size(); ++i) {
    out << (i ? ", " : "") << sys.channel_name(report.critical_channels[i]);
  }
  out << "}";
  return out.str();
}

}  // namespace ermes::analysis
