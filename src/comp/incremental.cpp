#include "comp/incremental.h"

#include <atomic>
#include <cassert>
#include <utility>

#include "analysis/performance.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/span.h"

namespace ermes::comp {

using sysmodel::ChannelId;
using sysmodel::ProcessId;

namespace {

bool set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

IncrementalAnalyzer::IncrementalAnalyzer(sysmodel::SystemModel sys)
    : sys_(std::move(sys)) {}

void IncrementalAnalyzer::rebuild() {
  obs::ObsSpan span("comp.incremental.rebuild", "comp");
  stmg_ = analysis::build_tmg(sys_);
  // Warm when only weights changed since the last rebuild (e.g. a channel
  // retargeted and retargeted back); recompiles otherwise. The structure's
  // zero-token screen gives the liveness verdict and witness.
  solver_.prepare(stmg_.graph);
  live_ = solver_.live();
  dead_cycle_ = solver_.dead_cycle();
  const auto n = static_cast<std::size_t>(solver_.sccs().num_components);
  res_.assign(n, tmg::CycleRatioResult{});
  dirty_.assign(n, 1);
  structure_dirty_ = false;
  ++stats_.structure_rebuilds;
  if (obs::enabled()) obs::count("comp.incremental.structure_rebuilds");
}

void IncrementalAnalyzer::apply_delay(tmg::TransitionId t,
                                      std::int64_t delay) {
  // With the structure already invalidated the next analyze() rebuilds
  // everything from sys_; there is no derived state to patch.
  if (structure_dirty_) return;
  stmg_.graph.set_delay(t, delay);
  const std::vector<std::int32_t>& component = solver_.sccs().component;
  const std::int32_t comp = component[static_cast<std::size_t>(t)];
  // Solver arc ids are PlaceIds; each out-place carries its producer's delay.
  for (const tmg::PlaceId p : stmg_.graph.out_places(t)) {
    solver_.set_arc_weight(p, delay);
    // Only arcs internal to t's component can lie on a cycle through t.
    const tmg::TransitionId head = stmg_.graph.consumer(p);
    if (component[static_cast<std::size_t>(head)] == comp) {
      dirty_[static_cast<std::size_t>(comp)] = 1;
    }
  }
}

bool IncrementalAnalyzer::select_implementation(ProcessId p, std::size_t index,
                                                std::string* error) {
  if (!sys_.valid_process(p)) {
    return set_error(error, "invalid process id " + std::to_string(p));
  }
  if (!sys_.has_implementations(p)) {
    return set_error(error, "process " + sys_.process_name(p) +
                                " has no implementation set");
  }
  if (index >= sys_.implementations(p).size()) {
    return set_error(error, "process " + sys_.process_name(p) +
                                ": implementation index " +
                                std::to_string(index) + " out of range");
  }
  sys_.select_implementation(p, index);
  ++stats_.patches;
  if (obs::enabled()) obs::count("comp.incremental.patches");
  apply_delay(stmg_.compute_transition.empty()
                  ? tmg::kInvalidTransition
                  : stmg_.compute_transition[static_cast<std::size_t>(p)],
              sys_.latency(p));
  return true;
}

bool IncrementalAnalyzer::set_latency(ProcessId p, std::int64_t latency,
                                      std::string* error) {
  if (!sys_.valid_process(p)) {
    return set_error(error, "invalid process id " + std::to_string(p));
  }
  if (latency < 0) return set_error(error, "negative latency");
  sys_.set_latency(p, latency);
  ++stats_.patches;
  if (obs::enabled()) obs::count("comp.incremental.patches");
  apply_delay(stmg_.compute_transition.empty()
                  ? tmg::kInvalidTransition
                  : stmg_.compute_transition[static_cast<std::size_t>(p)],
              latency);
  return true;
}

bool IncrementalAnalyzer::set_channel_latency(ChannelId c,
                                              std::int64_t latency,
                                              std::string* error) {
  if (!sys_.valid_channel(c)) {
    return set_error(error, "invalid channel id " + std::to_string(c));
  }
  if (latency < 0) return set_error(error, "negative latency");
  sys_.set_channel_latency(c, latency);
  ++stats_.patches;
  if (obs::enabled()) obs::count("comp.incremental.patches");
  // The write-side transition carries the channel latency (the read side of
  // a FIFO is zero-delay).
  apply_delay(stmg_.channel_transition.empty()
                  ? tmg::kInvalidTransition
                  : stmg_.channel_transition[static_cast<std::size_t>(c)],
              latency);
  return true;
}

bool IncrementalAnalyzer::retarget_channel(ChannelId c, ProcessId new_target,
                                           std::string* error) {
  if (!sys_.valid_channel(c)) {
    return set_error(error, "invalid channel id " + std::to_string(c));
  }
  if (!sys_.valid_process(new_target)) {
    return set_error(error,
                     "invalid process id " + std::to_string(new_target));
  }
  sys_.retarget_channel(c, new_target);
  ++stats_.patches;
  if (obs::enabled()) obs::count("comp.incremental.patches");
  structure_dirty_ = true;  // elaboration changed: full rebuild next analyze
  return true;
}

const PartitionedReport& IncrementalAnalyzer::analyze() {
  obs::ObsSpan span("comp.incremental.analyze", "comp");
  ++stats_.analyses;
  if (structure_dirty_) rebuild();
  if (!live_) {
    report_ = PartitionedReport{};
    report_.report.live = false;
    report_.report.dead_cycle = dead_cycle_;
    return report_;
  }

  std::vector<std::size_t> todo;
  for (std::size_t c = 0; c < dirty_.size(); ++c) {
    if (dirty_[c] != 0) todo.push_back(c);
  }
  stats_.sccs_clean +=
      static_cast<std::int64_t>(dirty_.size() - todo.size());
  if (obs::enabled()) {
    obs::count("comp.incremental.sccs_clean",
               static_cast<std::int64_t>(dirty_.size() - todo.size()));
  }

  {
    obs::StageTimer solve_timer(obs::Stage::kSolve);
    for (const std::size_t c : todo) {
      res_[c] = solver_.solve_component(static_cast<std::int32_t>(c));
    }
  }
  dirty_.assign(dirty_.size(), 0);

  report_ = assemble_partitioned(stmg_, solver_.sccs(), res_);
  report_.solved = static_cast<int>(todo.size());
  stats_.sccs_solved += report_.solved;
  if (obs::enabled()) {
    obs::count("comp.incremental.analyses");
    obs::count("comp.incremental.sccs_solved", report_.solved);
  }
#ifndef NDEBUG
  {
    // Sampled end-to-end guard: the patched-in-place TMG must agree with a
    // cold elaboration of the patched system.
    static std::atomic<std::uint64_t> tick{0};
    if (tick.fetch_add(1, std::memory_order_relaxed) % 16 == 0) {
      assert(analysis::reports_bit_identical(report_.report,
                                             analysis::analyze_system(sys_)) &&
             "incremental analysis diverged from cold re-analysis");
    }
  }
#endif
  return report_;
}

}  // namespace ermes::comp
