#include "dse/area_recovery.h"

#include <algorithm>

#include "ilp/mckp.h"

namespace ermes::dse {

using sysmodel::ProcessId;
using sysmodel::SystemModel;

AreaRecoveryResult area_recovery(const SystemModel& sys,
                                 const std::vector<ProcessId>& critical,
                                 std::int64_t slack,
                                 std::int64_t ring_cap) {
  AreaRecoveryResult result;
  if (slack <= 0) return result;

  std::vector<bool> on_critical(static_cast<std::size_t>(sys.num_processes()),
                                false);
  for (ProcessId p : critical) {
    on_critical[static_cast<std::size_t>(p)] = true;
  }

  const std::vector<std::vector<Candidate>> cands = candidate_lists(
      sys,
      [&](ProcessId p, std::vector<Candidate>& list) {
        if (ring_cap <= 0) return;
        // Drop candidates that would push p's own ring to the cap; the
        // current selection always stays eligible so the problem remains
        // feasible.
        const std::int64_t io_latency = ring_io_latency(sys, p);
        std::erase_if(list, [&](const Candidate& cand) {
          const std::int64_t ring =
              io_latency + sys.latency(p) - cand.latency_gain;
          return cand.latency_gain != 0 && ring >= ring_cap;
        });
      });

  // Multiple-choice knapsack: one item per candidate implementation;
  // value = area gain; weight = latency *cost* (-latency gain) for critical
  // processes, 0 otherwise; capacity = slack. A strictly-below budget is
  // used (slack - 1) to maintain CT < TCT rather than CT <= TCT.
  ilp::MckpProblem problem;
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    std::vector<ilp::MckpItem> group;
    for (const Candidate& cand : cands[static_cast<std::size_t>(p)]) {
      ilp::MckpItem item;
      item.value = cand.area_gain;
      item.weight = on_critical[static_cast<std::size_t>(p)]
                        ? static_cast<double>(-cand.latency_gain)
                        : 0.0;
      group.push_back(item);
    }
    problem.groups.push_back(std::move(group));
  }
  problem.capacity = static_cast<double>(slack - 1);

  const ilp::MckpSolution sol = ilp::solve_mckp(problem);
  if (!sol.feasible()) return result;

  result.feasible = true;
  result.selection.resize(static_cast<std::size_t>(sys.num_processes()));
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    const auto pi = static_cast<std::size_t>(p);
    const Candidate& chosen = cands[pi][sol.choice[pi]];
    result.selection[pi] = chosen.impl_index;
    result.area_gain += chosen.area_gain;
    if (on_critical[pi]) result.latency_spent += -chosen.latency_gain;
  }
  return result;
}

}  // namespace ermes::dse
