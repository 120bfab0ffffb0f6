#include "dse/timing_opt.h"

#include <algorithm>

#include "ilp/mckp.h"

namespace ermes::dse {

using sysmodel::ProcessId;
using sysmodel::SystemModel;

TimingOptResult timing_optimization(const SystemModel& sys,
                                    const std::vector<ProcessId>& critical,
                                    std::int64_t needed,
                                    std::int64_t ring_cap,
                                    TimingOptPolicy policy) {
  TimingOptResult result;
  std::vector<bool> on_critical(static_cast<std::size_t>(sys.num_processes()),
                                false);
  for (ProcessId p : critical) {
    on_critical[static_cast<std::size_t>(p)] = true;
  }

  const std::vector<std::vector<Candidate>> cands = candidate_lists(
      sys,
      [&](ProcessId p, std::vector<Candidate>& list) {
        if (policy.pin_non_critical &&
            !on_critical[static_cast<std::size_t>(p)]) {
          std::erase_if(
              list, [](const Candidate& cand) { return cand.latency_gain != 0; });
        }
        if (!policy.allow_critical_slowdown &&
            on_critical[static_cast<std::size_t>(p)]) {
          std::erase_if(
              list, [](const Candidate& cand) { return cand.latency_gain < 0; });
        }
        if (ring_cap > 0) {
          const std::int64_t io_latency = ring_io_latency(sys, p);
          std::erase_if(list, [&](const Candidate& cand) {
            const std::int64_t ring =
                io_latency + sys.latency(p) - cand.latency_gain;
            return cand.latency_gain != 0 && ring >= ring_cap;
          });
        }
      });

  // Stage A: maximize the critical-cycle latency gain.
  ilp::MckpProblem stage_a;
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    const auto pi = static_cast<std::size_t>(p);
    std::vector<ilp::MckpItem> group;
    for (const Candidate& cand : cands[pi]) {
      ilp::MckpItem item;
      item.value = on_critical[pi] ? static_cast<double>(cand.latency_gain)
                                   : 0.0;
      group.push_back(item);
    }
    stage_a.groups.push_back(std::move(group));
  }
  const ilp::MckpSolution best_gain = ilp::solve_mckp(stage_a);
  if (!best_gain.feasible()) return result;
  const auto l_star = static_cast<std::int64_t>(best_gain.value + 0.5);

  // Stage B: keep at least min(L*, needed) of that gain while recovering
  // area everywhere else. Weight = latency cost on critical processes.
  const std::int64_t required =
      needed > 0 ? std::min(l_star, needed) : l_star;
  ilp::MckpProblem stage_b;
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    const auto pi = static_cast<std::size_t>(p);
    std::vector<ilp::MckpItem> group;
    for (const Candidate& cand : cands[pi]) {
      ilp::MckpItem item;
      item.value = cand.area_gain;
      // Sum of -latency_gain over critical <= -required encodes
      // sum latency_gain >= required.
      item.weight = on_critical[pi]
                        ? static_cast<double>(-cand.latency_gain)
                        : 0.0;
      group.push_back(item);
    }
    stage_b.groups.push_back(std::move(group));
  }
  stage_b.capacity = static_cast<double>(-required);
  const ilp::MckpSolution refined = ilp::solve_mckp(stage_b);
  const ilp::MckpSolution* chosen = refined.feasible() ? &refined : &best_gain;

  result.feasible = true;
  result.selection.resize(static_cast<std::size_t>(sys.num_processes()));
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    const auto pi = static_cast<std::size_t>(p);
    const Candidate& cand = cands[pi][chosen->choice[pi]];
    result.selection[pi] = cand.impl_index;
    result.area_gain += cand.area_gain;
    if (on_critical[pi]) result.latency_gain += cand.latency_gain;
  }
  return result;
}

}  // namespace ermes::dse
