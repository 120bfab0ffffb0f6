#include "comp/partition.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "util/table.h"

namespace ermes::comp {

using analysis::SystemTmg;
using graph::NodeId;

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

std::string summarize_partitioned(const PartitionedReport& part,
                                  const sysmodel::SystemModel& sys) {
  std::ostringstream out;
  if (!part.report.live) {
    out << "DEADLOCK: token-free cycle of " << part.report.dead_cycle.size()
        << " places";
    return out.str();
  }
  out << part.sccs.size() << " components";
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
