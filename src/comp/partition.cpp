#include "comp/partition.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <sstream>

#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/span.h"
#include "tmg/liveness.h"
#include "util/table.h"

namespace ermes::comp {

using analysis::PerformanceReport;
using analysis::SystemTmg;
using graph::NodeId;

#ifndef NDEBUG
namespace {
// Debug-only guard: a sampled subset of partitioned reports is recomputed
// through the monolithic path and compared bit for bit.
std::atomic<std::uint64_t> g_verify_tick{0};
}  // namespace
#endif

PartitionedReport assemble_partitioned(
    const SystemTmg& stmg, const graph::SccResult& sccs,
    const std::vector<tmg::CycleRatioResult>& per_scc) {
  PartitionedReport part;
  const auto n = static_cast<std::size_t>(sccs.num_components);
  assert(per_scc.size() == n);

  // Fold in ascending component id — the exact order and rule of the
  // whole-graph solve (CycleMeanSolver::solve) — tracking which component
  // wins.
  tmg::CycleRatioResult folded;
  std::int32_t critical = -1;
  for (std::size_t c = 0; c < n; ++c) {
    const tmg::CycleRatioResult& scc = per_scc[c];
    if (scc.has_cycle && !folded.is_infinite() &&
        (!folded.has_cycle || scc.is_infinite() ||
         tmg::compare_ratios(scc.ratio_num, scc.ratio_den, folded.ratio_num,
                             folded.ratio_den) > 0)) {
      critical = static_cast<std::int32_t>(c);
    }
    tmg::fold_cycle_ratio(scc, &folded);
  }
  part.report = analysis::report_from_ratio(stmg, folded);
  part.critical_scc = folded.has_cycle ? critical : -1;

  part.sccs.resize(n);
  for (std::size_t c = 0; c < n; ++c) {
    SccInfo& info = part.sccs[c];
    const std::vector<NodeId>& members = sccs.members[c];
    info.transitions.reserve(members.size());
    for (const NodeId node : members) {
      const auto t = static_cast<tmg::TransitionId>(node);
      info.transitions.push_back(t);
      const analysis::TransitionOrigin& origin =
          stmg.transition_origin[static_cast<std::size_t>(t)];
      if (origin.kind == analysis::TransitionOrigin::Kind::kCompute) {
        info.processes.push_back(origin.process);
      } else {
        info.channels.push_back(origin.channel);
      }
    }
    const auto dedup = [](auto& v) {
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
    };
    dedup(info.processes);
    dedup(info.channels);

    const tmg::CycleRatioResult& scc = per_scc[c];
    info.has_cycle = scc.has_cycle;
    info.num = scc.ratio_num;
    info.den = scc.ratio_den;
    info.cycle_ratio = scc.ratio;
    if (folded.has_cycle && !folded.is_infinite() && scc.has_cycle) {
      info.slack = std::max(0.0, folded.ratio - scc.ratio);
    }
  }
  return part;
}

PartitionedReport analyze_partitioned(const SystemTmg& stmg,
                                      tmg::CycleMeanSolver& solver) {
  obs::ObsSpan span("comp.analyze_partitioned", "comp");
  obs::count("comp.analyses");
  PartitionedReport part;

  const tmg::LivenessResult liveness = tmg::check_liveness(stmg.graph);
  if (!liveness.live) {
    part.report.live = false;
    part.report.dead_cycle = liveness.dead_cycle;
    return part;
  }

  // Compile once per structure (a caller-owned solver re-reads only the
  // weights on warm calls) and solve the components one by one.
  solver.prepare(stmg.graph);
  const auto n = static_cast<std::size_t>(solver.sccs().num_components);
  std::vector<tmg::CycleRatioResult> per(n);
  {
    obs::StageTimer solve_timer(obs::Stage::kSolve);
    for (std::size_t i = 0; i < n; ++i) {
      per[i] = solver.solve_component(static_cast<std::int32_t>(i),
                                      solver.workspace());
    }
  }

  part = assemble_partitioned(stmg, solver.sccs(), per);
  part.solved = static_cast<int>(n);
  if (obs::enabled()) obs::count("comp.sccs_solved", part.solved);
#ifndef NDEBUG
  if (g_verify_tick.fetch_add(1, std::memory_order_relaxed) % 16 == 0) {
    assert(
        analysis::reports_bit_identical(part.report, analysis::analyze(stmg)) &&
        "partitioned analysis diverged from the monolithic path");
  }
#endif
  return part;
}

PartitionedReport analyze_partitioned(const sysmodel::SystemModel& sys,
                                      tmg::CycleMeanSolver& solver) {
  return analyze_partitioned(analysis::build_tmg(sys), solver);
}

std::string summarize_partitioned(const PartitionedReport& part,
                                  const sysmodel::SystemModel& sys) {
  std::ostringstream out;
  out << part.sccs.size() << " components";
  if (!part.report.live) {
    out << "; DEADLOCK: token-free cycle of " << part.report.dead_cycle.size()
        << " places";
    return out.str();
  }
  for (std::size_t i = 0; i < part.sccs.size(); ++i) {
    const SccInfo& scc = part.sccs[i];
    out << "\n  scc " << i << ": " << scc.processes.size() << " processes, "
        << scc.channels.size() << " channels";
    if (scc.has_cycle) {
      out << ", cycle ratio " << util::format_double(scc.cycle_ratio)
          << ", slack " << util::format_double(scc.slack);
    } else {
      out << ", acyclic";
    }
    if (static_cast<std::int32_t>(i) == part.critical_scc) {
      out << " [critical]";
    }
    if (!scc.processes.empty()) {
      out << " {";
      const std::size_t show = std::min<std::size_t>(scc.processes.size(), 4);
      for (std::size_t j = 0; j < show; ++j) {
        out << (j ? ", " : "") << sys.process_name(scc.processes[j]);
      }
      if (scc.processes.size() > show) out << ", ...";
      out << "}";
    }
  }
  return out.str();
}

}  // namespace ermes::comp
