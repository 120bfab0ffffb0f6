#include "lp_oracle/mckp_dp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "obs/metrics.h"

namespace ermes::ilp {

MckpSolution solve_mckp_dp(const MckpProblem& problem) {
  obs::count("ilp.mckp_solves");
  MckpSolution out;
  // Weights may be negative (e.g. a latency *gain* frees budget). Shift each
  // group by its minimum weight so the DP runs over non-negative integers;
  // the capacity shrinks by the total shift.
  double total_shift = 0.0;
  MckpProblem shifted = problem;
  for (auto& group : shifted.groups) {
    if (group.empty()) return out;  // no choice possible: infeasible
    double min_w = group.front().weight;
    for (const MckpItem& item : group) min_w = std::min(min_w, item.weight);
    for (MckpItem& item : group) item.weight -= min_w;
    total_shift += min_w;
  }
  shifted.capacity -= total_shift;
  out = solve_mckp_dp_nonneg(shifted);
  if (!out.feasible()) return out;
  out.weight += total_shift;
  return out;
}

MckpSolution solve_mckp_dp_nonneg(const MckpProblem& problem) {
  MckpSolution out;
  const auto cap = static_cast<std::int64_t>(std::floor(problem.capacity));
  if (cap < 0) return out;
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();

  // best[w] = max value using exactly the groups processed so far with total
  // weight <= w is the usual relaxation; we track exact weights and recover
  // choices with a parent table.
  const auto width = static_cast<std::size_t>(cap) + 1;
  std::vector<double> best(width, kNegInf);
  best[0] = 0.0;
  std::vector<std::vector<std::int32_t>> parent;  // per group: chosen item at w

  for (const auto& group : problem.groups) {
    std::vector<double> next(width, kNegInf);
    std::vector<std::int32_t> choice_at(width, -1);
    for (std::size_t i = 0; i < group.size(); ++i) {
      const double wd = group[i].weight;
      assert(wd >= 0.0 && std::abs(wd - std::round(wd)) < 1e-9);
      const auto w = static_cast<std::int64_t>(std::llround(wd));
      if (w > cap) continue;
      for (std::size_t from = 0; from + static_cast<std::size_t>(w) < width;
           ++from) {
        if (best[from] == kNegInf) continue;
        const std::size_t to = from + static_cast<std::size_t>(w);
        const double cand = best[from] + group[i].value;
        if (cand > next[to]) {
          next[to] = cand;
          choice_at[to] = static_cast<std::int32_t>(i);
        }
      }
    }
    best = std::move(next);
    parent.push_back(std::move(choice_at));
  }

  // Best reachable weight.
  std::size_t best_w = width;
  for (std::size_t w = 0; w < width; ++w) {
    if (best[w] == kNegInf) continue;
    if (best_w == width || best[w] > best[best_w]) best_w = w;
  }
  if (best_w == width) return out;

  out.status = MckpStatus::kOptimal;
  out.value = best[best_w];
  out.bound = out.value;
  out.choice.assign(problem.groups.size(), 0);
  // Walk back through the groups.
  std::size_t w = best_w;
  for (std::size_t g = problem.groups.size(); g-- > 0;) {
    const std::int32_t item = parent[g][w];
    assert(item >= 0);
    out.choice[g] = static_cast<std::size_t>(item);
    const auto item_w = static_cast<std::size_t>(
        std::llround(problem.groups[g][static_cast<std::size_t>(item)].weight));
    out.weight += static_cast<double>(item_w);
    w -= item_w;
  }
  return out;
}

}  // namespace ermes::ilp
