// Unit tests for the graph substrate: digraph, traversals, SCC, elementary
// cycles, topological order, DOT export.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/digraph.h"
#include "graph/dot.h"
#include "graph/scc.h"
#include "graph/topo.h"
#include "graph/traversal.h"
#include "lp_oracle/cycles.h"
#include "util/rng.h"

namespace ermes::graph {
namespace {

Digraph diamond() {
  // 0 -> {1, 2} -> 3
  Digraph g;
  g.add_nodes(4);
  g.add_arc(0, 1);
  g.add_arc(0, 2);
  g.add_arc(1, 3);
  g.add_arc(2, 3);
  return g;
}

Digraph two_cycles() {
  // 0 -> 1 -> 2 -> 0 and 2 -> 3 -> 2
  Digraph g;
  g.add_nodes(4);
  g.add_arc(0, 1);
  g.add_arc(1, 2);
  g.add_arc(2, 0);
  g.add_arc(2, 3);
  g.add_arc(3, 2);
  return g;
}

// ---- digraph ---------------------------------------------------------------

TEST(DigraphTest, AddNodesReturnsFirstId) {
  Digraph g;
  EXPECT_EQ(g.add_nodes(3), 0);
  EXPECT_EQ(g.add_nodes(2), 3);
  EXPECT_EQ(g.num_nodes(), 5);
}

TEST(DigraphTest, ArcEndpoints) {
  Digraph g;
  g.add_nodes(2);
  const ArcId a = g.add_arc(0, 1);
  EXPECT_EQ(g.tail(a), 0);
  EXPECT_EQ(g.head(a), 1);
}

TEST(DigraphTest, AdjacencyOrderIsInsertionOrder) {
  Digraph g;
  g.add_nodes(4);
  const ArcId a1 = g.add_arc(0, 1);
  const ArcId a2 = g.add_arc(0, 2);
  const ArcId a3 = g.add_arc(0, 3);
  EXPECT_EQ(g.out_arcs(0), (std::vector<ArcId>{a1, a2, a3}));
  EXPECT_EQ(g.out_degree(0), 3);
  EXPECT_EQ(g.in_degree(1), 1);
}

TEST(DigraphTest, ParallelArcsAllowed) {
  Digraph g;
  g.add_nodes(2);
  g.add_arc(0, 1);
  g.add_arc(0, 1);
  EXPECT_EQ(g.num_arcs(), 2);
  EXPECT_EQ(g.out_degree(0), 2);
}

TEST(DigraphTest, NamesDefaultAndCustom) {
  Digraph g;
  g.add_nodes(1);
  EXPECT_EQ(g.name(0), "n0");
  const NodeId n = g.add_node("proc");
  EXPECT_EQ(g.name(n), "proc");
}

TEST(DigraphTest, Validity) {
  Digraph g;
  g.add_nodes(2);
  g.add_arc(0, 1);
  EXPECT_TRUE(g.valid_node(1));
  EXPECT_FALSE(g.valid_node(2));
  EXPECT_FALSE(g.valid_node(kInvalidNode));
  EXPECT_TRUE(g.valid_arc(0));
  EXPECT_FALSE(g.valid_arc(1));
}

// ---- traversal -------------------------------------------------------------

TEST(TraversalTest, BfsOrderFromRoot) {
  const Digraph g = diamond();
  const auto order = bfs_order(g, 0);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[3], 3);  // farthest last
}

TEST(TraversalTest, BfsStopsAtUnreachable) {
  Digraph g;
  g.add_nodes(3);
  g.add_arc(0, 1);
  const auto order = bfs_order(g, 0);
  EXPECT_EQ(order.size(), 2u);
}

TEST(TraversalTest, DfsPreorderVisitsAllReachable) {
  const Digraph g = diamond();
  const auto order = dfs_preorder(g, 0);
  EXPECT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 0);
}

TEST(TraversalTest, ReachableFrom) {
  Digraph g;
  g.add_nodes(4);
  g.add_arc(0, 1);
  g.add_arc(2, 3);
  const auto r = reachable_from(g, 0);
  EXPECT_TRUE(r[0]);
  EXPECT_TRUE(r[1]);
  EXPECT_FALSE(r[2]);
  EXPECT_FALSE(r[3]);
}

TEST(TraversalTest, ReachesTarget) {
  const Digraph g = diamond();
  const auto r = reaches(g, 3);
  EXPECT_TRUE(r[0]);
  EXPECT_TRUE(r[1]);
  EXPECT_TRUE(r[2]);
  EXPECT_TRUE(r[3]);
}

TEST(TraversalTest, ClassifyArcsFindsBackArcOnCycle) {
  const Digraph g = two_cycles();
  const auto cls = classify_arcs(g, {0});
  EXPECT_EQ(cls.num_back_arcs, 2);  // one per cycle
  // Removing the back arcs leaves a DAG.
  EXPECT_TRUE(is_acyclic(g, cls.is_back));
}

TEST(TraversalTest, ClassifyArcsDagHasNoBackArcs) {
  const Digraph g = diamond();
  const auto cls = classify_arcs(g, {0});
  EXPECT_EQ(cls.num_back_arcs, 0);
}

TEST(TraversalTest, SelfLoopIsBackArc) {
  Digraph g;
  g.add_nodes(1);
  g.add_arc(0, 0);
  const auto cls = classify_arcs(g, {0});
  EXPECT_EQ(cls.num_back_arcs, 1);
}

TEST(TraversalTest, IsAcyclicOnDag) {
  EXPECT_TRUE(is_acyclic(diamond()));
  EXPECT_FALSE(is_acyclic(two_cycles()));
}

TEST(TraversalPropertyTest, BackArcRemovalAlwaysYieldsDag) {
  util::Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    Digraph g;
    const std::int32_t n = static_cast<std::int32_t>(rng.uniform_int(2, 30));
    g.add_nodes(n);
    const std::int64_t m = rng.uniform_int(1, 4 * n);
    for (std::int64_t i = 0; i < m; ++i) {
      g.add_arc(static_cast<NodeId>(rng.index(static_cast<std::size_t>(n))),
                static_cast<NodeId>(rng.index(static_cast<std::size_t>(n))));
    }
    const auto cls = classify_arcs(g, {0});
    EXPECT_TRUE(is_acyclic(g, cls.is_back)) << "trial " << trial;
  }
}

// ---- scc -------------------------------------------------------------------

TEST(SccTest, DagHasSingletonComponents) {
  const Digraph g = diamond();
  const auto scc = strongly_connected_components(g);
  EXPECT_EQ(scc.num_components, 4);
}

TEST(SccTest, CycleFormsOneComponent) {
  Digraph g;
  g.add_nodes(3);
  g.add_arc(0, 1);
  g.add_arc(1, 2);
  g.add_arc(2, 0);
  const auto scc = strongly_connected_components(g);
  EXPECT_EQ(scc.num_components, 1);
  EXPECT_TRUE(is_strongly_connected(g));
}

TEST(SccTest, TwoCyclesShareComponentThroughBridge) {
  const Digraph g = two_cycles();  // 0,1,2,3 all mutually reachable
  const auto scc = strongly_connected_components(g);
  EXPECT_EQ(scc.num_components, 1);
}

TEST(SccTest, ComponentsInReverseTopologicalOrder) {
  Digraph g;
  g.add_nodes(4);
  g.add_arc(0, 1);
  g.add_arc(1, 2);
  g.add_arc(2, 1);  // {1,2} cycle
  g.add_arc(2, 3);
  const auto scc = strongly_connected_components(g);
  ASSERT_EQ(scc.num_components, 3);
  // Tarjan emits sinks first: comp(3) < comp(1) < comp(0).
  EXPECT_LT(scc.component[3], scc.component[1]);
  EXPECT_LT(scc.component[1], scc.component[0]);
  EXPECT_EQ(scc.component[1], scc.component[2]);
}

TEST(SccTest, MembersMatchComponentMap) {
  const Digraph g = two_cycles();
  const auto scc = strongly_connected_components(g);
  for (std::int32_t c = 0; c < scc.num_components; ++c) {
    for (NodeId n : scc.members[static_cast<std::size_t>(c)]) {
      EXPECT_EQ(scc.component[static_cast<std::size_t>(n)], c);
    }
  }
}

TEST(SccTest, EmptyGraphNotStronglyConnected) {
  Digraph g;
  EXPECT_FALSE(is_strongly_connected(g));
}

TEST(SccTest, LargeChainDoesNotOverflowStack) {
  Digraph g;
  const std::int32_t n = 200'000;
  g.add_nodes(n);
  for (NodeId i = 0; i + 1 < n; ++i) g.add_arc(i, i + 1);
  g.add_arc(n - 1, 0);  // close the loop: one giant SCC
  EXPECT_TRUE(is_strongly_connected(g));
}

TEST(SccTest, SelfLoopStaysASingletonComponent) {
  // A self-loop makes the node cyclic but must not merge it with anything.
  Digraph g;
  g.add_nodes(3);
  g.add_arc(0, 1);
  g.add_arc(1, 1);
  g.add_arc(1, 2);
  const auto scc = strongly_connected_components(g);
  EXPECT_EQ(scc.num_components, 3);
  for (std::int32_t c = 0; c < scc.num_components; ++c) {
    EXPECT_EQ(scc.members[static_cast<std::size_t>(c)].size(), 1u);
  }
}

TEST(SccTest, IsolatedNodesEachGetAComponent) {
  Digraph g;
  g.add_nodes(5);          // no arcs at all
  g.add_arc(1, 3);         // one lonely bridge
  const auto scc = strongly_connected_components(g);
  EXPECT_EQ(scc.num_components, 5);
  // Every node is accounted for exactly once across members.
  std::size_t total = 0;
  for (const auto& members : scc.members) total += members.size();
  EXPECT_EQ(total, 5u);
  // The bridge still orders the two endpoints.
  EXPECT_LT(scc.component[3], scc.component[1]);
}

TEST(SccTest, DuplicateParallelArcsDoNotChangeThePartition) {
  Digraph plain = two_cycles();
  Digraph doubled = two_cycles();
  doubled.add_arc(0, 1);  // duplicates of existing arcs
  doubled.add_arc(2, 3);
  doubled.add_arc(2, 3);
  const auto a = strongly_connected_components(plain);
  const auto b = strongly_connected_components(doubled);
  EXPECT_EQ(a.num_components, b.num_components);
  EXPECT_EQ(a.component, b.component);
}

TEST(SccPropertyTest, PartitionIsStableUnderNodeRelabeling) {
  // Relabeling the nodes of a random digraph must permute the partition,
  // never change it: u ~ v iff perm(u) ~ perm(v). Component indices must
  // also stay reverse-topological (no arc points from a lower to a higher
  // component).
  for (std::uint64_t iter = 0; iter < 30; ++iter) {
    util::Rng rng = util::Rng::for_shard(0x5cc57ab, iter);
    const std::int32_t n =
        static_cast<std::int32_t>(rng.uniform_int(2, 24));
    const std::int32_t arcs =
        static_cast<std::int32_t>(rng.uniform_int(0, 3 * n));
    Digraph g;
    g.add_nodes(n);
    std::vector<std::pair<NodeId, NodeId>> arc_list;
    for (std::int32_t a = 0; a < arcs; ++a) {
      const auto u = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
      const auto v = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
      g.add_arc(u, v);  // self-loops and duplicates welcome
      arc_list.emplace_back(u, v);
    }
    const auto base = strongly_connected_components(g);

    const std::vector<std::size_t> perm =
        rng.permutation(static_cast<std::size_t>(n));
    Digraph relabeled;
    relabeled.add_nodes(n);
    for (const auto& [u, v] : arc_list) {
      relabeled.add_arc(static_cast<NodeId>(perm[static_cast<std::size_t>(u)]),
                        static_cast<NodeId>(perm[static_cast<std::size_t>(v)]));
    }
    const auto mapped = strongly_connected_components(relabeled);
    EXPECT_EQ(base.num_components, mapped.num_components) << "iter " << iter;
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        const bool together =
            base.component[static_cast<std::size_t>(u)] ==
            base.component[static_cast<std::size_t>(v)];
        const bool mapped_together =
            mapped.component[perm[static_cast<std::size_t>(u)]] ==
            mapped.component[perm[static_cast<std::size_t>(v)]];
        EXPECT_EQ(together, mapped_together)
            << "iter " << iter << " nodes " << u << "," << v;
      }
    }
    // Reverse topological indexing on both graphs.
    for (const auto& [u, v] : arc_list) {
      EXPECT_GE(base.component[static_cast<std::size_t>(u)],
                base.component[static_cast<std::size_t>(v)])
          << "iter " << iter;
    }
  }
}

// ---- cycles ----------------------------------------------------------------

TEST(CyclesTest, DagHasNoCycles) {
  EXPECT_TRUE(elementary_cycles(diamond()).empty());
}

TEST(CyclesTest, SingleCycleFound) {
  Digraph g;
  g.add_nodes(3);
  g.add_arc(0, 1);
  g.add_arc(1, 2);
  g.add_arc(2, 0);
  const auto cycles = elementary_cycles(g);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].size(), 3u);
}

TEST(CyclesTest, SelfLoopCounts) {
  Digraph g;
  g.add_nodes(1);
  g.add_arc(0, 0);
  const auto cycles = elementary_cycles(g);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].size(), 1u);
}

TEST(CyclesTest, ParallelArcsMakeDistinctCycles) {
  Digraph g;
  g.add_nodes(2);
  g.add_arc(0, 1);
  g.add_arc(1, 0);
  g.add_arc(1, 0);
  EXPECT_EQ(elementary_cycles(g).size(), 2u);
}

TEST(CyclesTest, CompleteGraphK4CycleCount) {
  // K4 (directed both ways) has 20 elementary cycles:
  // 6 of length 2, 8 of length 3, 6 of length 4.
  Digraph g;
  g.add_nodes(4);
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId j = 0; j < 4; ++j) {
      if (i != j) g.add_arc(i, j);
    }
  }
  EXPECT_EQ(elementary_cycles(g).size(), 20u);
}

TEST(CyclesTest, CyclesAreClosedWalks) {
  const Digraph g = two_cycles();
  for (const auto& cycle : elementary_cycles(g)) {
    ASSERT_FALSE(cycle.empty());
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      EXPECT_EQ(g.head(cycle[i]), g.tail(cycle[(i + 1) % cycle.size()]));
    }
  }
}

TEST(CyclesTest, LimitStopsEnumeration) {
  Digraph g;
  g.add_nodes(4);
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId j = 0; j < 4; ++j) {
      if (i != j) g.add_arc(i, j);
    }
  }
  EXPECT_EQ(elementary_cycles(g, 5).size(), 5u);
}

TEST(CyclesTest, CyclesAreElementary) {
  const Digraph g = two_cycles();
  for (const auto& cycle : elementary_cycles(g)) {
    std::set<NodeId> nodes;
    for (ArcId a : cycle) nodes.insert(g.tail(a));
    EXPECT_EQ(nodes.size(), cycle.size());  // no node repeats
  }
}

// ---- topo ------------------------------------------------------------------

TEST(TopoTest, OrdersDag) {
  const Digraph g = diamond();
  const auto order = topological_order(g);
  ASSERT_TRUE(order.has_value());
  const auto rank = ranks_of(*order, g.num_nodes());
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    EXPECT_LT(rank[static_cast<std::size_t>(g.tail(a))],
              rank[static_cast<std::size_t>(g.head(a))]);
  }
}

TEST(TopoTest, CyclicReturnsNullopt) {
  EXPECT_FALSE(topological_order(two_cycles()).has_value());
}

TEST(TopoTest, IgnoredArcsEnableOrdering) {
  const Digraph g = two_cycles();
  const auto cls = classify_arcs(g, {0});
  EXPECT_TRUE(topological_order(g, cls.is_back).has_value());
}

TEST(TopoTest, LongestPathRanks) {
  const Digraph g = diamond();
  const auto depth = longest_path_ranks(g);
  EXPECT_EQ(depth[0], 0);
  EXPECT_EQ(depth[1], 1);
  EXPECT_EQ(depth[2], 1);
  EXPECT_EQ(depth[3], 2);
}

// ---- dot -------------------------------------------------------------------

TEST(DotTest, ContainsNodesAndArcs) {
  Digraph g;
  g.add_node("alpha");
  g.add_node("beta");
  g.add_arc(0, 1);
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("alpha"), std::string::npos);
  EXPECT_NE(dot.find("v0 -> v1"), std::string::npos);
}

TEST(DotTest, ArcLabelsApplied) {
  Digraph g;
  g.add_nodes(2);
  g.add_arc(0, 1);
  DotOptions options;
  options.arc_label = [](ArcId) { return std::string("ch_a"); };
  EXPECT_NE(to_dot(g, options).find("ch_a"), std::string::npos);
}

TEST(DotTest, EscapesQuotes) {
  Digraph g;
  g.add_node("say \"hi\"");
  EXPECT_NE(to_dot(g).find("\\\""), std::string::npos);
}

}  // namespace
}  // namespace ermes::graph
