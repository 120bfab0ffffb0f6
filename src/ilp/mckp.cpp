#include "ilp/mckp.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/span.h"

namespace ermes::ilp {

namespace {

constexpr double kTol = 1e-9;

// One segment of a group's upper convex hull in the (weight, value) plane:
// moving that group's LP choice along it, up to item `item`, buys `dv`
// value for `dw` weight.
struct Segment {
  double dw = 0.0;
  double dv = 0.0;
  double efficiency = 0.0;  // dv / dw
  std::size_t depth = 0;    // position of the group in the search order
  std::size_t item = 0;
};

// Appends the upper convex hull of `items`, from the lightest item (the
// max-value one among ties) up to the max-value item, as segments of
// strictly decreasing efficiency. Returns the lightest item.
std::size_t append_hull(const std::vector<MckpItem>& items, std::size_t depth,
                        std::vector<std::size_t>& hull,
                        std::vector<Segment>& segments) {
  hull.resize(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) hull[i] = i;
  std::stable_sort(hull.begin(), hull.end(), [&](std::size_t a, std::size_t b) {
    return items[a].weight != items[b].weight
               ? items[a].weight < items[b].weight
               : items[a].value > items[b].value;
  });
  const auto slope = [&](std::size_t a, std::size_t b) {
    return (items[b].value - items[a].value) /
           (items[b].weight - items[a].weight);
  };
  std::size_t k = 0;
  for (std::size_t i = 0; i < hull.size(); ++i) {
    const std::size_t p = hull[i];
    if (k > 0 && items[p].value <= items[hull[k - 1]].value) continue;
    while (k >= 2 && slope(hull[k - 2], hull[k - 1]) <= slope(hull[k - 1], p)) {
      --k;
    }
    hull[k++] = p;
  }
  for (std::size_t i = 1; i < k; ++i) {
    const MckpItem& lo = items[hull[i - 1]];
    const MckpItem& hi = items[hull[i]];
    segments.push_back({hi.weight - lo.weight, hi.value - lo.value,
                        slope(hull[i - 1], hull[i]), depth, hull[i]});
  }
  return hull[0];
}

// LP gain of the groups searched from `depth` on, above their lightest
// items, with `room` weight to spend: greedy over the sorted segments.
double lp_gain(const std::vector<Segment>& segments, std::size_t depth,
               double room) {
  double gain = 0.0;
  for (const Segment& s : segments) {
    if (s.depth < depth) continue;
    if (s.dw > room) return gain + s.dv * (room / s.dw);
    room -= s.dw;
    gain += s.dv;
  }
  return gain;
}

}  // namespace

MckpSolution solve_mckp(const MckpProblem& problem, std::int64_t max_nodes) {
  obs::ObsSpan span("ilp.solve", "ilp");
  obs::count("ilp.solves");
  obs::count("ilp.mckp_solves");
  MckpSolution out;
  const std::size_t n = problem.groups.size();
  std::vector<std::size_t> choice(n, 0);

  // Groups whose items share one weight take their first max-value item;
  // the others are searched in order.
  std::vector<std::size_t> order;
  double fixed_value = 0.0;
  double fixed_weight = 0.0;
  for (std::size_t g = 0; g < n; ++g) {
    const std::vector<MckpItem>& items = problem.groups[g];
    if (items.empty()) return out;
    const bool flat =
        std::all_of(items.begin(), items.end(), [&](const MckpItem& item) {
          return item.weight == items.front().weight;
        });
    if (!flat) {
      order.push_back(g);
      continue;
    }
    for (std::size_t i = 1; i < items.size(); ++i) {
      if (items[i].value > items[choice[g]].value) choice[g] = i;
    }
    fixed_value += items[choice[g]].value;
    fixed_weight += items[choice[g]].weight;
  }

  // rest_*[d]: lightest-item weight / value summed over order[d..]. The
  // rounded selection starts at the lightest items.
  const std::size_t m = order.size();
  std::vector<double> rest_weight(m + 1, 0.0);
  std::vector<double> rest_value(m + 1, 0.0);
  std::vector<Segment> segments;
  std::vector<std::size_t> rounded = choice;
  std::vector<std::size_t> hull;
  for (std::size_t d = m; d-- > 0;) {
    const std::vector<MckpItem>& items = problem.groups[order[d]];
    const std::size_t light = append_hull(items, d, hull, segments);
    rounded[order[d]] = light;
    rest_weight[d] = rest_weight[d + 1] + items[light].weight;
    rest_value[d] = rest_value[d + 1] + items[light].value;
  }
  std::stable_sort(segments.begin(), segments.end(),
                   [](const Segment& a, const Segment& b) {
                     if (a.efficiency != b.efficiency) {
                       return a.efficiency > b.efficiency;
                     }
                     return a.depth < b.depth;
                   });

  const double cap = problem.capacity + kTol;
  double room = cap - fixed_weight - rest_weight[0];
  if (room < 0.0) return out;
  // Root LP. Rounding its one fractional group down to the lighter hull
  // item gives a feasible selection worth `rounded_value`.
  double rounded_value = fixed_value + rest_value[0];
  out.bound = rounded_value;
  for (const Segment& s : segments) {
    if (s.dw > room) {
      out.bound += s.dv * (room / s.dw);
      break;
    }
    room -= s.dw;
    rounded_value += s.dv;
    out.bound += s.dv;
    rounded[order[s.depth]] = s.item;
  }

  // Depth-first over items in index order. A node survives only if its LP
  // bound beats the incumbent by more than kTol, so the first optimum found
  // is the lexicographically smallest one. The search starts from a
  // threshold just below the rounded selection: every optimum clears it.
  std::vector<std::size_t> path(m, 0);
  std::vector<std::size_t> next(m + 1, 0);
  std::vector<double> path_value(m + 1, fixed_value);
  std::vector<double> path_weight(m + 1, fixed_weight);
  std::int64_t nodes = 1;
  bool have = false;
  bool limit = false;
  double best = rounded_value - 2 * kTol;
  std::size_t d = 0;
  while (true) {
    if (d == m) {  // a leaf that beats the incumbent
      have = true;
      best = path_value[m];
      for (std::size_t k = 0; k < m; ++k) choice[order[k]] = path[k];
      if (m == 0 || best >= out.bound - kTol) break;  // provably optimal
      --d;
      continue;
    }
    const std::vector<MckpItem>& items = problem.groups[order[d]];
    if (next[d] == items.size()) {
      if (d == 0) break;
      --d;
      continue;
    }
    const std::size_t j = next[d]++;
    const double weight = path_weight[d] + items[j].weight;
    const double value = path_value[d] + items[j].value;
    const double left = cap - weight - rest_weight[d + 1];
    if (left < 0.0) continue;
    if (++nodes > max_nodes) {
      limit = true;
      break;
    }
    if (value + rest_value[d + 1] + lp_gain(segments, d + 1, left) <=
        best + kTol) {
      continue;
    }
    path[d] = j;
    path_weight[d + 1] = weight;
    path_value[d + 1] = value;
    next[d + 1] = 0;
    ++d;
  }
  obs::count("ilp.bnb_nodes", nodes);
  if (limit) obs::count("ilp.mckp_limit_hits");

  // Without a leaf, which only rounding error or the node cap can cause,
  // the rounded selection is the answer.
  out.status = limit ? MckpStatus::kLimit : MckpStatus::kOptimal;
  out.choice = have ? std::move(choice) : std::move(rounded);
  for (std::size_t g = 0; g < n; ++g) {
    out.value += problem.groups[g][out.choice[g]].value;
    out.weight += problem.groups[g][out.choice[g]].weight;
  }
  return out;
}

}  // namespace ermes::ilp
