#pragma once
// Test oracle for TMG liveness: the DFS tmg::check_liveness ran before it
// moved onto the shared zero-token search of tmg/csr.h. It walks the
// MarkedGraph through its accessors (out_places per transition, tokens and
// consumer per place) and keeps its own frames, so it shares no code with
// production. Same root order (transition ids ascending) and same out-place
// order, hence the same witness: tests/test_differential.cpp (D9) holds
// production to it.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "tmg/liveness.h"
#include "tmg/marked_graph.h"

namespace ermes::tmg::oracle {

inline LivenessResult check_liveness(const MarkedGraph& tmg) {
  // DFS over the subgraph induced by zero-token places; any cycle found there
  // is a token-free cycle and a deadlock witness.
  enum class Color : unsigned char { kWhite, kGray, kBlack };
  const auto n = static_cast<std::size_t>(tmg.num_transitions());
  std::vector<Color> color(n, Color::kWhite);

  struct Frame {
    TransitionId t;
    std::size_t next;
    PlaceId via;  // zero-token place that led into t; kInvalidPlace for roots
  };
  std::vector<Frame> stack;

  LivenessResult result;
  for (TransitionId root = 0; root < tmg.num_transitions(); ++root) {
    if (color[static_cast<std::size_t>(root)] != Color::kWhite) continue;
    color[static_cast<std::size_t>(root)] = Color::kGray;
    stack.push_back({root, 0, kInvalidPlace});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto outs = tmg.out_places(frame.t);
      bool descended = false;
      while (frame.next < outs.size()) {
        const PlaceId p = outs[frame.next++];
        if (tmg.tokens(p) != 0) continue;  // marked places break cycles
        const TransitionId w = tmg.consumer(p);
        const auto wi = static_cast<std::size_t>(w);
        if (color[wi] == Color::kWhite) {
          color[wi] = Color::kGray;
          stack.push_back({w, 0, p});
          descended = true;
          break;
        }
        if (color[wi] == Color::kGray) {
          // Token-free cycle: walk the DFS stack back to w collecting the
          // entering places, then close it with p.
          std::vector<PlaceId> cycle;
          for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
            if (it->t == w) break;
            cycle.push_back(it->via);
          }
          std::reverse(cycle.begin(), cycle.end());
          cycle.push_back(p);
          result.live = false;
          result.dead_cycle = std::move(cycle);
          return result;
        }
      }
      if (!descended) {
        color[static_cast<std::size_t>(frame.t)] = Color::kBlack;
        stack.pop_back();
      }
    }
  }
  result.live = true;
  return result;
}

}  // namespace ermes::tmg::oracle
