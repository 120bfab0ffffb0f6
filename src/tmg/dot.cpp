#include "tmg/dot.h"

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "graph/dot.h"
#include "graph/scc.h"

namespace ermes::tmg {

namespace {

std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

struct DotState {
  const MarkedGraph& tmg;
  const TmgDotOptions& options;
  // fill[t] = fillcolor for transition t; empty = unfilled.
  std::vector<std::string> fill;

  std::string transition_label(TransitionId t) const {
    return options.transition_label ? options.transition_label(t)
                                    : "t" + std::to_string(t);
  }
  std::string place_label(PlaceId p) const {
    return options.place_label ? options.place_label(p)
                               : "p" + std::to_string(p);
  }

  void emit_transition(std::ostringstream& out, TransitionId t,
                       const std::string& indent) const {
    out << indent << "t" << t << " [shape=box, label=\""
        << escape(transition_label(t)) << "\\nd=" << tmg.delay(t) << "\"";
    if (!fill.empty() && !fill[static_cast<std::size_t>(t)].empty()) {
      out << ", style=filled, fillcolor=\""
          << fill[static_cast<std::size_t>(t)] << "\"";
    }
    out << "];\n";
  }

  void emit_place(std::ostringstream& out, PlaceId p,
                  const std::string& indent) const {
    out << indent << "p" << p << " [shape=circle, label=\""
        << escape(place_label(p));
    if (tmg.tokens(p) > 0) out << "\\n(" << tmg.tokens(p) << ")";
    out << "\"";
    if (tmg.tokens(p) > 0) out << ", style=filled, fillcolor=lightgrey";
    out << "];\n";
  }
};

struct Cluster {
  std::map<std::string, Cluster> children;
  std::vector<TransitionId> transitions;
  std::vector<PlaceId> places;
};

Cluster* descend(Cluster* root, const std::string& path) {
  Cluster* at = root;
  std::size_t start = 0;
  while (start < path.size()) {
    std::size_t dot = path.find('.', start);
    if (dot == std::string::npos) dot = path.size();
    at = &at->children[path.substr(start, dot - start)];
    start = dot + 1;
  }
  return at;
}

void emit_cluster(std::ostringstream& out, const DotState& state,
                  const Cluster& cluster, const std::string& path,
                  const std::string& indent) {
  for (const TransitionId t : cluster.transitions) {
    state.emit_transition(out, t, indent);
  }
  for (const PlaceId p : cluster.places) state.emit_place(out, p, indent);
  for (const auto& [segment, child] : cluster.children) {
    const std::string child_path =
        path.empty() ? segment : path + "." + segment;
    out << indent << "subgraph \"cluster_" << escape(child_path) << "\" {\n";
    out << indent << "  label=\"" << escape(segment) << "\";\n";
    emit_cluster(out, state, child, child_path, indent + "  ");
    out << indent << "}\n";
  }
}

}  // namespace

std::string to_dot(const MarkedGraph& tmg, const TmgDotOptions& options) {
  DotState state{tmg, options, {}};
  if (options.color_sccs) {
    const graph::SccResult sccs =
        graph::strongly_connected_components(tmg.transition_graph());
    state.fill.resize(static_cast<std::size_t>(tmg.num_transitions()));
    for (TransitionId t = 0; t < tmg.num_transitions(); ++t) {
      const std::int32_t c = sccs.component[static_cast<std::size_t>(t)];
      if (sccs.members[static_cast<std::size_t>(c)].size() > 1) {
        state.fill[static_cast<std::size_t>(t)] = graph::scc_palette(c);
      }
    }
  }

  std::ostringstream out;
  out << "digraph \"" << escape(options.graph_name) << "\" {\n";
  out << "  rankdir=LR;\n";
  if (!options.transition_cluster) {
    // No clustering: each place is immediately followed by its arcs.
    for (TransitionId t = 0; t < tmg.num_transitions(); ++t) {
      state.emit_transition(out, t, "  ");
    }
    for (PlaceId p = 0; p < tmg.num_places(); ++p) {
      state.emit_place(out, p, "  ");
      out << "  t" << tmg.producer(p) << " -> p" << p << ";\n";
      out << "  p" << p << " -> t" << tmg.consumer(p) << ";\n";
    }
    out << "}\n";
    return out.str();
  }
  {
    Cluster root;
    std::vector<std::string> path(
        static_cast<std::size_t>(tmg.num_transitions()));
    for (TransitionId t = 0; t < tmg.num_transitions(); ++t) {
      path[static_cast<std::size_t>(t)] = options.transition_cluster(t);
      descend(&root, path[static_cast<std::size_t>(t)])
          ->transitions.push_back(t);
    }
    for (PlaceId p = 0; p < tmg.num_places(); ++p) {
      const std::string& prod =
          path[static_cast<std::size_t>(tmg.producer(p))];
      const std::string& cons =
          path[static_cast<std::size_t>(tmg.consumer(p))];
      // Boundary places (producer and consumer in different clusters) float
      // at top level between the clusters.
      descend(&root, prod == cons ? prod : std::string())
          ->places.push_back(p);
    }
    emit_cluster(out, state, root, "", "  ");
  }
  for (PlaceId p = 0; p < tmg.num_places(); ++p) {
    out << "  t" << tmg.producer(p) << " -> p" << p << ";\n";
    out << "  p" << p << " -> t" << tmg.consumer(p) << ";\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace ermes::tmg
