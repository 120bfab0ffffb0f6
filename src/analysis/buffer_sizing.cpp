#include "analysis/buffer_sizing.h"

#include <algorithm>
#include <map>

#include "analysis/performance.h"
#include "analysis/tmg_builder.h"

namespace ermes::analysis {

using sysmodel::ChannelId;
using sysmodel::SystemModel;

namespace {

void bump(SystemModel& sys, ChannelId c, SizingResult& result) {
  sys.set_channel_capacity(c, sys.channel_capacity(c) + 1);
  ++result.slots_added;
  for (auto& change : result.changes) {
    if (change.first == c) {
      change.second = sys.channel_capacity(c);
      return;
    }
  }
  result.changes.emplace_back(c, sys.channel_capacity(c));
}

}  // namespace

SizingResult size_for_liveness(SystemModel& sys, std::int64_t max_slots) {
  SizingResult result;
  while (result.slots_added <= max_slots) {
    const SystemTmg stmg = build_tmg(sys);
    const PerformanceReport report = analyze(stmg);
    if (report.live) {
      result.success = true;
      result.cycle_time = report.cycle_time;
      return result;
    }
    if (result.slots_added == max_slots) break;
    // Capacity only helps where the witness crosses a channel transition
    // from the consumer's get-place into the producer's ring: that hop is
    // exactly what the space place (k tokens) replaces. Cycles that ride a
    // channel producer->consumer are forward wait chains — buffering cannot
    // break them (only priming can).
    ChannelId pick = sysmodel::kInvalidChannel;
    const std::size_t n = report.dead_cycle.size();
    for (std::size_t i = 0; i < n && pick == sysmodel::kInvalidChannel; ++i) {
      const tmg::PlaceId pl = report.dead_cycle[i];
      const tmg::PlaceId nxt = report.dead_cycle[(i + 1) % n];
      const PlaceRole& role = stmg.place_role[static_cast<std::size_t>(pl)];
      const PlaceRole& role2 = stmg.place_role[static_cast<std::size_t>(nxt)];
      if (role.kind != PlaceRole::Kind::kGet) continue;
      const ChannelId c = role.channel;
      // An unbounded channel already has no space place to relax.
      if (sys.channel_capacity(c) == sysmodel::kUnboundedCapacity) continue;
      if (role2.process == sys.channel_source(c)) pick = c;
    }
    if (pick == sysmodel::kInvalidChannel) break;  // buffering cannot help
    bump(sys, pick, result);
  }
  return result;
}

SizingResult size_for_cycle_time(SystemModel& sys,
                                 std::int64_t target_cycle_time,
                                 std::int64_t max_slots) {
  SizingResult result;
  PerformanceReport report = analyze_system(sys);
  if (!report.live) return result;
  result.cycle_time = report.cycle_time;

  while (report.cycle_time >= static_cast<double>(target_cycle_time) &&
         result.slots_added < max_slots) {
    // Candidate channels: those traversed by the critical cycle. Try each
    // and keep the single best improvement (greedy).
    ChannelId best = sysmodel::kInvalidChannel;
    double best_ct = report.cycle_time;
    for (ChannelId c : report.critical_channels) {
      if (sys.channel_capacity(c) == sysmodel::kUnboundedCapacity) continue;
      sys.set_channel_capacity(c, sys.channel_capacity(c) + 1);
      const PerformanceReport cand = analyze_system(sys);
      sys.set_channel_capacity(c, sys.channel_capacity(c) - 1);
      if (cand.live && cand.cycle_time < best_ct - 1e-12) {
        best_ct = cand.cycle_time;
        best = c;
      }
    }
    if (best == sysmodel::kInvalidChannel) break;  // buffering can't help
    bump(sys, best, result);
    report = analyze_system(sys);
    result.cycle_time = report.cycle_time;
  }
  result.success =
      report.live &&
      report.cycle_time < static_cast<double>(target_cycle_time);
  return result;
}

}  // namespace ermes::analysis
