#pragma once
// Strongly connected components (Tarjan). Used to restrict cycle-time
// analysis to the strongly connected portion of a TMG.

#include <vector>

#include "graph/digraph.h"

namespace ermes::graph {

struct SccResult {
  /// component[n] = component index of node n, in reverse topological order
  /// of components (i.e., component 0 has no outgoing inter-component arcs).
  std::vector<std::int32_t> component;
  std::int32_t num_components = 0;

  /// Nodes grouped by component.
  std::vector<std::vector<NodeId>> members;
};

SccResult strongly_connected_components(const Digraph& g);

/// Same algorithm over a flat CSR adjacency: node u's successors are
/// heads[row_ptr[u]] .. heads[row_ptr[u+1] - 1]. When the CSR preserves
/// Digraph::out_arcs order (as tmg::CsrGraph does), the result — component
/// ids, ordering, and member order — is identical to the Digraph overload.
SccResult strongly_connected_components(std::int32_t num_nodes,
                                        const std::vector<std::int32_t>& row_ptr,
                                        const std::vector<NodeId>& heads);

/// True iff the whole graph is one strongly connected component (and
/// non-empty).
bool is_strongly_connected(const Digraph& g);

}  // namespace ermes::graph
