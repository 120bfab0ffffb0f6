#include "lp_oracle/cycles.h"

#include <algorithm>

#include "graph/scc.h"

namespace ermes::graph {

namespace {

// Johnson's algorithm. We process nodes in increasing id order; for each
// start node s we consider the subgraph induced by nodes >= s within s's SCC.
class JohnsonEnumerator {
 public:
  JohnsonEnumerator(const Digraph& g,
                    const std::function<bool(const ArcCycle&)>& on_cycle)
      : g_(g),
        on_cycle_(on_cycle),
        blocked_(static_cast<std::size_t>(g.num_nodes()), false),
        b_sets_(static_cast<std::size_t>(g.num_nodes())) {}

  void run() {
    for (NodeId s = 0; s < g_.num_nodes() && !stopped_; ++s) {
      // SCCs of the subgraph induced by nodes >= s.
      scc_ = compute_scc_at_least(s);
      start_ = s;
      for (NodeId n = s; n < g_.num_nodes(); ++n) {
        blocked_[static_cast<std::size_t>(n)] = false;
        b_sets_[static_cast<std::size_t>(n)].clear();
      }
      circuit(s);
    }
  }

 private:
  std::vector<std::int32_t> compute_scc_at_least(NodeId s) {
    // Build the restricted view by ignoring nodes < s during Tarjan: simplest
    // is to run Tarjan on a filtered copy mapping. To stay allocation-light we
    // run Tarjan on the full graph but treat nodes < s as absent.
    // A small bespoke iterative Tarjan on the filtered node set:
    const auto n_nodes = static_cast<std::size_t>(g_.num_nodes());
    std::vector<std::int32_t> comp(n_nodes, -1);
    std::vector<std::int32_t> index(n_nodes, -1), low(n_nodes, -1);
    std::vector<bool> on_stack(n_nodes, false);
    std::vector<NodeId> stack;
    std::int32_t next_index = 0, next_comp = 0;
    struct Frame {
      NodeId node;
      std::size_t next_arc;
    };
    std::vector<Frame> frames;
    for (NodeId root = s; root < g_.num_nodes(); ++root) {
      if (index[static_cast<std::size_t>(root)] != -1) continue;
      frames.push_back({root, 0});
      index[static_cast<std::size_t>(root)] = low[static_cast<std::size_t>(root)] = next_index++;
      stack.push_back(root);
      on_stack[static_cast<std::size_t>(root)] = true;
      while (!frames.empty()) {
        Frame& fr = frames.back();
        const NodeId v = fr.node;
        const auto& outs = g_.out_arcs(v);
        if (fr.next_arc < outs.size()) {
          const NodeId w = g_.head(outs[fr.next_arc++]);
          if (w < s) continue;
          const auto wi = static_cast<std::size_t>(w);
          if (index[wi] == -1) {
            index[wi] = low[wi] = next_index++;
            stack.push_back(w);
            on_stack[wi] = true;
            frames.push_back({w, 0});
          } else if (on_stack[wi]) {
            low[static_cast<std::size_t>(v)] =
                std::min(low[static_cast<std::size_t>(v)], index[wi]);
          }
          continue;
        }
        if (low[static_cast<std::size_t>(v)] == index[static_cast<std::size_t>(v)]) {
          NodeId w;
          do {
            w = stack.back();
            stack.pop_back();
            on_stack[static_cast<std::size_t>(w)] = false;
            comp[static_cast<std::size_t>(w)] = next_comp;
          } while (w != v);
          ++next_comp;
        }
        frames.pop_back();
        if (!frames.empty()) {
          const auto pi = static_cast<std::size_t>(frames.back().node);
          low[pi] = std::min(low[pi], low[static_cast<std::size_t>(v)]);
        }
      }
    }
    return comp;
  }

  bool same_scc(NodeId a, NodeId b) const {
    return scc_[static_cast<std::size_t>(a)] == scc_[static_cast<std::size_t>(b)];
  }

  void unblock(NodeId u) {
    blocked_[static_cast<std::size_t>(u)] = false;
    auto& bset = b_sets_[static_cast<std::size_t>(u)];
    std::vector<NodeId> pending;
    pending.swap(bset);
    for (NodeId w : pending) {
      if (blocked_[static_cast<std::size_t>(w)]) unblock(w);
    }
  }

  // Returns true if a cycle through v (back to start_) was found in this call.
  bool circuit(NodeId v) {
    if (stopped_) return false;
    bool found = false;
    blocked_[static_cast<std::size_t>(v)] = true;
    for (ArcId a : g_.out_arcs(v)) {
      if (stopped_) break;
      const NodeId w = g_.head(a);
      if (w < start_ || !same_scc(start_, w)) continue;
      if (w == start_) {
        path_.push_back(a);
        if (!on_cycle_(path_)) stopped_ = true;
        path_.pop_back();
        found = true;
      } else if (!blocked_[static_cast<std::size_t>(w)]) {
        path_.push_back(a);
        if (circuit(w)) found = true;
        path_.pop_back();
      }
    }
    if (found) {
      unblock(v);
    } else {
      for (ArcId a : g_.out_arcs(v)) {
        const NodeId w = g_.head(a);
        if (w < start_ || !same_scc(start_, w)) continue;
        auto& bset = b_sets_[static_cast<std::size_t>(w)];
        if (std::find(bset.begin(), bset.end(), v) == bset.end()) {
          bset.push_back(v);
        }
      }
    }
    return found;
  }

  const Digraph& g_;
  const std::function<bool(const ArcCycle&)>& on_cycle_;
  std::vector<bool> blocked_;
  std::vector<std::vector<NodeId>> b_sets_;
  std::vector<std::int32_t> scc_;
  ArcCycle path_;
  NodeId start_ = 0;
  bool stopped_ = false;
};

}  // namespace

void for_each_elementary_cycle(
    const Digraph& g, const std::function<bool(const ArcCycle&)>& on_cycle) {
  JohnsonEnumerator(g, on_cycle).run();
}

std::vector<ArcCycle> elementary_cycles(const Digraph& g, std::size_t limit) {
  std::vector<ArcCycle> cycles;
  for_each_elementary_cycle(g, [&](const ArcCycle& c) {
    cycles.push_back(c);
    return limit == 0 || cycles.size() < limit;
  });
  return cycles;
}

}  // namespace ermes::graph
