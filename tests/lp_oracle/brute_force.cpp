#include "lp_oracle/brute_force.h"

#include <limits>

#include "lp_oracle/cycles.h"

namespace ermes::tmg {

CycleRatioResult max_cycle_ratio_brute_force(const RatioGraph& rg) {
  CycleRatioResult result;
  graph::for_each_elementary_cycle(rg.g, [&](const graph::ArcCycle& cycle) {
    std::int64_t w_sum = 0, t_sum = 0;
    for (graph::ArcId a : cycle) {
      w_sum += rg.arc_weight(a);
      t_sum += rg.arc_tokens(a);
    }
    if (!result.has_cycle ||
        compare_ratios(w_sum, t_sum, result.ratio_num, result.ratio_den) > 0) {
      result.has_cycle = true;
      result.ratio_num = w_sum;
      result.ratio_den = t_sum;
      result.critical_cycle = cycle;
    }
    // Keep scanning even after an infinite ratio; enumeration is cheap on the
    // graphs where this oracle is used.
    return true;
  });
  if (result.has_cycle) {
    result.ratio = result.ratio_den == 0
                       ? std::numeric_limits<double>::infinity()
                       : static_cast<double>(result.ratio_num) /
                             static_cast<double>(result.ratio_den);
  }
  return result;
}

std::size_t count_elementary_cycles(const RatioGraph& rg) {
  std::size_t count = 0;
  graph::for_each_elementary_cycle(rg.g, [&](const graph::ArcCycle&) {
    ++count;
    return true;
  });
  return count;
}

}  // namespace ermes::tmg
