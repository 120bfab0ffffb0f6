#include "tmg/cycle_ratio.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "tmg/marked_graph.h"

namespace ermes::tmg {

RatioGraph to_ratio_graph(const MarkedGraph& tmg) {
  RatioGraph rg;
  rg.g = tmg.transition_graph();
  rg.weight.resize(static_cast<std::size_t>(tmg.num_places()));
  rg.tokens.resize(static_cast<std::size_t>(tmg.num_places()));
  for (PlaceId p = 0; p < tmg.num_places(); ++p) {
    // A cycle visits each of its transitions exactly once, and each arc's
    // tail is the producing transition, so charging the producer's delay to
    // the arc makes cycle weight == sum of transition delays on the cycle.
    rg.weight[static_cast<std::size_t>(p)] = tmg.delay(tmg.producer(p));
    rg.tokens[static_cast<std::size_t>(p)] = tmg.tokens(p);
  }
  return rg;
}

bool find_zero_token_cycle(const RatioGraph& rg,
                           std::vector<graph::ArcId>* cycle) {
  using graph::ArcId;
  using graph::NodeId;
  enum class Color : unsigned char { kWhite, kGray, kBlack };
  const auto n = static_cast<std::size_t>(rg.g.num_nodes());
  std::vector<Color> color(n, Color::kWhite);
  struct Frame {
    NodeId node;
    std::size_t next;
    ArcId via;
  };
  std::vector<Frame> stack;
  for (NodeId root = 0; root < rg.g.num_nodes(); ++root) {
    if (color[static_cast<std::size_t>(root)] != Color::kWhite) continue;
    color[static_cast<std::size_t>(root)] = Color::kGray;
    stack.clear();
    stack.push_back({root, 0, graph::kInvalidArc});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto& outs = rg.g.out_arcs(frame.node);
      bool descended = false;
      while (frame.next < outs.size()) {
        const ArcId a = outs[frame.next++];
        if (rg.arc_tokens(a) != 0) continue;
        const NodeId w = rg.g.head(a);
        const auto wi = static_cast<std::size_t>(w);
        if (color[wi] == Color::kWhite) {
          color[wi] = Color::kGray;
          stack.push_back({w, 0, a});
          descended = true;
          break;
        }
        if (color[wi] == Color::kGray) {
          if (cycle != nullptr) {
            std::vector<ArcId> found;
            for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
              if (it->node == w) break;
              found.push_back(it->via);
            }
            std::reverse(found.begin(), found.end());
            found.push_back(a);
            *cycle = std::move(found);
          }
          return true;
        }
      }
      if (!descended) {
        color[static_cast<std::size_t>(frame.node)] = Color::kBlack;
        stack.pop_back();
      }
    }
  }
  return false;
}

void fold_cycle_ratio(const CycleRatioResult& scc, CycleRatioResult* out) {
  if (!scc.has_cycle) return;
  if (out->is_infinite()) return;  // an earlier deadlock dominates
  if (!out->has_cycle || scc.is_infinite() ||
      compare_ratios(scc.ratio_num, scc.ratio_den, out->ratio_num,
                     out->ratio_den) > 0) {
    *out = scc;
  }
}

int compare_ratios(std::int64_t a_num, std::int64_t a_den, std::int64_t b_num,
                   std::int64_t b_den) {
  assert(a_den >= 0 && b_den >= 0);
  const bool a_inf = (a_den == 0);
  const bool b_inf = (b_den == 0);
  if (a_inf && b_inf) return 0;
  if (a_inf) return 1;
  if (b_inf) return -1;
  // 128-bit cross multiplication avoids overflow on large delay sums.
  __extension__ typedef __int128 int128;
  const int128 lhs = static_cast<int128>(a_num) * b_den;
  const int128 rhs = static_cast<int128>(b_num) * a_den;
  if (lhs < rhs) return -1;
  if (lhs > rhs) return 1;
  return 0;
}

}  // namespace ermes::tmg
