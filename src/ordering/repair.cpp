#include "ordering/repair.h"

#include <algorithm>
#include <set>
#include <vector>

#include "analysis/tmg_builder.h"
#include "ordering/channel_ordering.h"
#include "tmg/liveness.h"
#include "util/rng.h"

namespace ermes::ordering {

using analysis::PlaceRole;
using analysis::SystemTmg;
using sysmodel::ChannelId;
using sysmodel::ProcessId;
using sysmodel::SystemModel;

namespace {

std::vector<ChannelId> orders_key(const SystemModel& sys) {
  std::vector<ChannelId> key;
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    key.insert(key.end(), sys.input_order(p).begin(),
               sys.input_order(p).end());
    key.push_back(sysmodel::kInvalidChannel);
    key.insert(key.end(), sys.output_order(p).begin(),
               sys.output_order(p).end());
    key.push_back(sysmodel::kInvalidChannel);
  }
  return key;
}

void move_to_front(SystemModel& sys, ProcessId p, ChannelId c, bool is_put) {
  std::vector<ChannelId> order =
      is_put ? sys.output_order(p) : sys.input_order(p);
  const auto it = std::find(order.begin(), order.end(), c);
  if (it == order.end() || it == order.begin()) return;
  order.erase(it);
  order.insert(order.begin(), c);
  if (is_put) {
    sys.set_output_order(p, std::move(order));
  } else {
    sys.set_input_order(p, std::move(order));
  }
}

}  // namespace

RepairResult ensure_live(SystemModel& sys, int max_iterations,
                         std::uint64_t seed) {
  RepairResult result;
  util::Rng rng(seed);
  // Fast path: already live.
  if (tmg::is_live(analysis::build_tmg(sys).graph)) {
    result.live = true;
    return result;
  }
  // First-tier fallback: the feedback-safe ordering variant. It discards
  // some of the latency-driven order (so it is only used when needed) but
  // is empirically deadlock-free on feedback-heavy graphs of any size.
  {
    SystemModel candidate = sys;
    apply_ordering(candidate, channel_ordering_feedback_safe(candidate));
    if (tmg::is_live(analysis::build_tmg(candidate).graph)) {
      sys = std::move(candidate);
      result.live = true;
      result.iterations = 1;
      return result;
    }
  }
  std::set<std::vector<ChannelId>> visited;
  visited.insert(orders_key(sys));

  for (int iter = 0; iter < max_iterations; ++iter) {
    const SystemTmg stmg = analysis::build_tmg(sys);
    const tmg::LivenessResult liveness = tmg::check_liveness(stmg.graph);
    if (liveness.live) {
      result.live = true;
      result.iterations = iter;
      return result;
    }
    // Witness-guided move: every token-free cycle threads a get/put place of
    // some process; moving that channel to the front of its phase removes
    // the pinned ring segment. Rotate the starting point so successive
    // iterations attack different parts of the cycle.
    bool moved = false;
    const std::size_t n = liveness.dead_cycle.size();
    for (std::size_t k = 0; k < n && !moved; ++k) {
      const tmg::PlaceId pl =
          liveness.dead_cycle[(k + static_cast<std::size_t>(iter)) % n];
      const PlaceRole& role = stmg.place_role[static_cast<std::size_t>(pl)];
      // Only ring places of I/O statements can move; compute places and a
      // FIFO's data place (which belongs to no process) cannot.
      if (role.kind != PlaceRole::Kind::kGet &&
          role.kind != PlaceRole::Kind::kPut) {
        continue;
      }
      const bool is_put = role.kind == PlaceRole::Kind::kPut;
      const auto& order = is_put ? sys.output_order(role.process)
                                 : sys.input_order(role.process);
      if (order.size() < 2 || order.front() == role.channel) continue;
      move_to_front(sys, role.process, role.channel, is_put);
      moved = true;
    }
    if (!moved || !visited.insert(orders_key(sys)).second) {
      // Stuck or revisiting: random restart.
      ++result.random_restarts;
      for (ProcessId p = 0; p < sys.num_processes(); ++p) {
        std::vector<ChannelId> ins = sys.input_order(p);
        std::vector<ChannelId> outs = sys.output_order(p);
        rng.shuffle(ins);
        rng.shuffle(outs);
        sys.set_input_order(p, std::move(ins));
        sys.set_output_order(p, std::move(outs));
      }
      visited.insert(orders_key(sys));
    }
  }
  result.iterations = max_iterations;
  result.live = tmg::is_live(analysis::build_tmg(sys).graph);
  return result;
}

}  // namespace ermes::ordering
