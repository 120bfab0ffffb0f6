#include "tmg/cycle_ratio.h"

#include <cassert>
#include <limits>
#include <utility>

#include "tmg/csr.h"
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

MarkedGraph marked_graph_of(const RatioGraph& rg) {
  const auto m = static_cast<std::size_t>(rg.g.num_arcs());
  std::vector<TransitionId> tail(m), head(m);
  for (graph::ArcId a = 0; a < rg.g.num_arcs(); ++a) {
    tail[static_cast<std::size_t>(a)] = rg.g.tail(a);
    head[static_cast<std::size_t>(a)] = rg.g.head(a);
  }
  return MarkedGraph(
      std::vector<std::int64_t>(static_cast<std::size_t>(rg.g.num_nodes())),
      std::move(tail), std::move(head), rg.tokens);
}

bool find_zero_token_cycle(const RatioGraph& rg,
                           std::vector<graph::ArcId>* cycle) {
  return find_zero_token_cycle(marked_graph_of(rg), cycle);
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
