#pragma once
// Graphviz export of a timed marked graph: transitions as boxes (with their
// delays), places as circles (with their tokens) — the bipartite picture of
// the paper's Fig. 3. The options can additionally tint each
// non-trivial strongly connected component of the transition graph with its
// own color and nest transitions into cluster subgraphs mirroring a
// flattened instance hierarchy (ermes compose --dot). A MarkedGraph stores
// no names, so labels come from callbacks; a system TMG supplies
// analysis::transition_name / analysis::place_name.

#include <functional>
#include <string>

#include "tmg/marked_graph.h"

namespace ermes::tmg {

struct TmgDotOptions {
  std::string graph_name = "tmg";
  /// Node labels; unset = "t<id>" / "p<id>". The transition label is
  /// followed by its delay, the place label by its tokens when marked.
  std::function<std::string(TransitionId)> transition_label;
  std::function<std::string(PlaceId)> place_label;
  /// Fill transitions by strongly connected component: components with more
  /// than one transition get a palette color (graph::scc_palette keyed by
  /// component id); trivial components stay white.
  bool color_sccs = false;
  /// Optional cluster path per transition ('.'-separated instance path).
  /// A place is drawn inside a cluster when its producer and consumer agree
  /// on it, at top level otherwise (i.e. boundary channels float between
  /// clusters).
  std::function<std::string(TransitionId)> transition_cluster;
};

std::string to_dot(const MarkedGraph& tmg, const TmgDotOptions& options = {});

}  // namespace ermes::tmg
