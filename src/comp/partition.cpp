#include "comp/partition.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <limits>
#include <sstream>

#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/span.h"
#include "tmg/liveness.h"
#include "util/table.h"

namespace ermes::comp {

using analysis::PerformanceReport;
using analysis::SystemTmg;
using graph::ArcId;
using graph::NodeId;

namespace {

#ifndef NDEBUG
// Debug-only collision/staleness guard, mirroring EvalCache: a sampled
// subset of fast-path results is recomputed the slow way and compared bit
// for bit.
std::atomic<std::uint64_t> g_verify_tick{0};

bool results_bit_identical(const tmg::CycleRatioResult& a,
                           const tmg::CycleRatioResult& b) {
  const auto bits = [](double d) {
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
  };
  return a.has_cycle == b.has_cycle && bits(a.ratio) == bits(b.ratio) &&
         a.ratio_num == b.ratio_num && a.ratio_den == b.ratio_den &&
         a.critical_cycle == b.critical_cycle;
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
#endif

}  // namespace

std::uint64_t scc_fingerprint(const tmg::CsrGraph& csr,
                              const std::vector<std::int32_t>& component,
                              std::int32_t comp_id,
                              const std::vector<NodeId>& members) {
  // Tag separates this memo family from the DSE solver keys sharing the aux
  // memo; FNV offset basis as the seed, like system_fingerprint.
  std::uint64_t h = analysis::fingerprint_mix(0xcbf29ce484222325ULL, 0x5cc);
  h = analysis::fingerprint_mix(h, members.size());
  for (const NodeId n : members) {
    h = analysis::fingerprint_mix(h, static_cast<std::uint64_t>(n));
    const auto begin = static_cast<std::size_t>(
        csr.row_ptr[static_cast<std::size_t>(n)]);
    const auto end = static_cast<std::size_t>(
        csr.row_ptr[static_cast<std::size_t>(n) + 1]);
    for (std::size_t s = begin; s < end; ++s) {
      const NodeId head = csr.slot_head[s];
      if (component[static_cast<std::size_t>(head)] != comp_id) continue;
      h = analysis::fingerprint_mix(
          h, static_cast<std::uint64_t>(csr.slot_arc[s]));
      h = analysis::fingerprint_mix(h, static_cast<std::uint64_t>(head));
      h = analysis::fingerprint_mix(
          h, static_cast<std::uint64_t>(csr.slot_weight[s]));
      h = analysis::fingerprint_mix(
          h, static_cast<std::uint64_t>(csr.slot_tokens[s]));
    }
  }
  return h;
}

std::vector<std::int64_t> encode_scc_result(const tmg::CycleRatioResult& r) {
  std::vector<std::int64_t> payload;
  payload.reserve(3 + r.critical_cycle.size());
  payload.push_back(r.has_cycle ? 1 : 0);
  payload.push_back(r.ratio_num);
  payload.push_back(r.ratio_den);
  for (const ArcId a : r.critical_cycle) payload.push_back(a);
  return payload;
}

bool decode_scc_result(const std::vector<std::int64_t>& payload,
                       tmg::CycleRatioResult* out) {
  if (payload.size() < 3) return false;
  tmg::CycleRatioResult r;
  r.has_cycle = payload[0] != 0;
  r.ratio_num = payload[1];
  r.ratio_den = payload[2];
  if (r.ratio_den < 0) return false;
  if (!r.has_cycle) {
    r.ratio = 0.0;
  } else if (r.ratio_den == 0) {
    r.ratio = std::numeric_limits<double>::infinity();
  } else {
    // Same expression the solver uses, so the double is bit-identical.
    r.ratio = static_cast<double>(r.ratio_num) /
              static_cast<double>(r.ratio_den);
  }
  r.critical_cycle.reserve(payload.size() - 3);
  for (std::size_t i = 3; i < payload.size(); ++i) {
    r.critical_cycle.push_back(static_cast<ArcId>(payload[i]));
  }
  *out = std::move(r);
  return true;
}

tmg::CycleRatioResult solve_scc(tmg::CycleMeanSolver& solver,
                                std::int32_t comp_id,
                                analysis::EvalCache* cache, bool* from_cache) {
  if (from_cache != nullptr) *from_cache = false;
  const graph::SccResult& sccs = solver.sccs();
  const std::vector<NodeId>& members =
      sccs.members[static_cast<std::size_t>(comp_id)];
  tmg::HowardWorkspace& ws = solver.workspace();
  std::uint64_t key = 0;
  if (cache != nullptr) {
    key = scc_fingerprint(solver.csr(), sccs.component, comp_id, members);
    std::vector<std::int64_t> payload;
    if (cache->lookup_aux(key, &payload)) {
      tmg::CycleRatioResult out;
      if (decode_scc_result(payload, &out)) {
#ifndef NDEBUG
        if (g_verify_tick.fetch_add(1, std::memory_order_relaxed) % 16 == 0) {
          assert(results_bit_identical(out,
                                       solver.solve_component(comp_id, ws)) &&
                 "stale or colliding per-SCC memo entry");
        }
#endif
        if (from_cache != nullptr) *from_cache = true;
        return out;
      }
    }
  }
  obs::StageTimer solve_timer(obs::Stage::kSolve);
  tmg::CycleRatioResult result = solver.solve_component(comp_id, ws);
  if (cache != nullptr) cache->insert_aux(key, encode_scc_result(result));
  return result;
}

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
                                      const PartitionOptions& options) {
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
  tmg::CycleMeanSolver local_solver;
  tmg::CycleMeanSolver& solver =
      options.solver != nullptr ? *options.solver : local_solver;
  solver.prepare(stmg.graph);
  const auto n = static_cast<std::size_t>(solver.sccs().num_components);
  std::vector<tmg::CycleRatioResult> per(n);
  std::vector<char> hit(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    bool from = false;
    per[i] = solve_scc(solver, static_cast<std::int32_t>(i), options.cache,
                       &from);
    hit[i] = from ? 1 : 0;
  }

  part = assemble_partitioned(stmg, solver.sccs(), per);
  for (std::size_t i = 0; i < n; ++i) {
    part.sccs[i].from_cache = hit[i] != 0;
    if (hit[i] != 0) {
      ++part.reused;
    } else {
      ++part.solved;
    }
  }
  if (obs::enabled()) {
    obs::count("comp.sccs_solved", part.solved);
    obs::count("comp.sccs_reused", part.reused);
  }
#ifndef NDEBUG
  if (g_verify_tick.fetch_add(1, std::memory_order_relaxed) % 16 == 0) {
    assert(reports_bit_identical(part.report, analysis::analyze(stmg)) &&
           "partitioned analysis diverged from the monolithic path");
  }
#endif
  return part;
}

PartitionedReport analyze_partitioned(const sysmodel::SystemModel& sys,
                                      const PartitionOptions& options) {
  return analyze_partitioned(analysis::build_tmg(sys), options);
}

PerformanceReport analyze_cached(const sysmodel::SystemModel& sys,
                                 analysis::EvalCache& cache,
                                 tmg::CycleMeanSolver* solver) {
  const std::uint64_t fp = analysis::system_fingerprint(sys);
  PerformanceReport report;
  if (cache.lookup(fp, &report)) {
#ifndef NDEBUG
    if (g_verify_tick.fetch_add(1, std::memory_order_relaxed) % 16 == 0) {
      assert(reports_bit_identical(report, analysis::analyze_system(sys)) &&
             "stale or colliding report memo entry");
    }
#endif
    return report;
  }
  PartitionOptions options;
  options.cache = &cache;
  options.solver = solver;
  PartitionedReport part = analyze_partitioned(sys, options);
  cache.insert(fp, part.report);
  return std::move(part.report);
}

std::string summarize_partitioned(const PartitionedReport& part,
                                  const sysmodel::SystemModel& sys) {
  std::ostringstream out;
  out << part.sccs.size() << " components (" << part.solved << " solved, "
      << part.reused << " reused)";
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
