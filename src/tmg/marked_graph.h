#pragma once
// Timed Marked Graph (TMG) — the paper's performance model (Definition 1).
//
// A TMG is a Petri net in which every place has exactly one producer and one
// consumer transition. We enforce that structurally: a place is created with
// its producer/consumer, so a MarkedGraph is always a well-formed marked
// graph. Transitions carry an integer delay (the timing function d), places
// carry the initial marking M0.
//
// Storage is flat and name-free:
//
//  * delay_[t] per transition; producer_[p], consumer_[p], tokens_[p] per
//    place — structure-of-arrays, no per-node records;
//  * out_places(t) / in_places(t) are spans over two offset-indexed
//    adjacency arrays (out_begin_/out_place_, in_begin_/in_place_), each
//    listing a transition's places in ascending PlaceId order. The
//    out_places order fixes the CSR slot order of tmg::CsrGraph, and through
//    it every Howard trajectory, critical cycle and deadlock witness.
//
// Bulk elaboration (analysis::build_tmg) hands the four per-element arrays
// to the array constructor, which builds both adjacencies with one counting
// sort. Hand-built graphs (tests, benchmarks) grow the same arrays through
// add_transition/add_place, which keep the adjacency exact on every call.
// Names are not stored: a system TMG derives them on demand from its place
// roles and transition origins (analysis/tmg_builder.h), and tmg::to_dot
// takes label callbacks.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.h"

namespace ermes::tmg {

using TransitionId = std::int32_t;
using PlaceId = std::int32_t;

inline constexpr TransitionId kInvalidTransition = -1;
inline constexpr PlaceId kInvalidPlace = -1;

class MarkedGraph {
 public:
  MarkedGraph() = default;

  /// Bulk construction from per-transition delays and per-place producer,
  /// consumer and initial tokens (all four indexed by id). Builds both
  /// adjacency arrays by counting sort in O(T + P).
  MarkedGraph(std::vector<std::int64_t> delay,
              std::vector<TransitionId> producer,
              std::vector<TransitionId> consumer,
              std::vector<std::int64_t> tokens);

  /// Pre-allocates storage for `transitions` transitions and `places`
  /// places (for hand-built graphs that know both counts up front).
  void reserve(std::int32_t transitions, std::int32_t places);

  /// Adds a transition with firing delay `delay` (>= 0).
  TransitionId add_transition(std::int64_t delay);

  /// Adds a place producer -> consumer holding `tokens` initial tokens.
  /// O(T + P): the place is spliced into both adjacency arrays.
  PlaceId add_place(TransitionId producer, TransitionId consumer,
                    std::int64_t tokens);

  std::int32_t num_transitions() const {
    return static_cast<std::int32_t>(delay_.size());
  }
  std::int32_t num_places() const {
    return static_cast<std::int32_t>(producer_.size());
  }

  std::int64_t delay(TransitionId t) const {
    return delay_[static_cast<std::size_t>(t)];
  }
  void set_delay(TransitionId t, std::int64_t delay);

  std::int64_t tokens(PlaceId p) const {
    return tokens_[static_cast<std::size_t>(p)];
  }
  void set_tokens(PlaceId p, std::int64_t tokens);

  TransitionId producer(PlaceId p) const {
    return producer_[static_cast<std::size_t>(p)];
  }
  TransitionId consumer(PlaceId p) const {
    return consumer_[static_cast<std::size_t>(p)];
  }

  /// Places consumed / produced by t, in ascending PlaceId order.
  std::span<const PlaceId> in_places(TransitionId t) const {
    const auto ti = static_cast<std::size_t>(t);
    return {in_place_.data() + in_begin_[ti],
            static_cast<std::size_t>(in_begin_[ti + 1] - in_begin_[ti])};
  }
  std::span<const PlaceId> out_places(TransitionId t) const {
    const auto ti = static_cast<std::size_t>(t);
    return {out_place_.data() + out_begin_[ti],
            static_cast<std::size_t>(out_begin_[ti + 1] - out_begin_[ti])};
  }

  /// The raw arrays, for flat consumers (CSR compile, liveness DFS).
  /// out_offsets() has num_transitions() + 1 entries; transition t's
  /// out-places are out_place_array()[out_offsets()[t] .. out_offsets()[t+1]).
  const std::vector<std::int64_t>& delays() const { return delay_; }
  const std::vector<TransitionId>& producers() const { return producer_; }
  const std::vector<TransitionId>& consumers() const { return consumer_; }
  const std::vector<std::int32_t>& out_offsets() const { return out_begin_; }
  const std::vector<PlaceId>& out_place_array() const { return out_place_; }

  /// Sum of all initial tokens.
  std::int64_t total_tokens() const;

  /// The initial marking, indexed by PlaceId.
  const std::vector<std::int64_t>& initial_marking() const { return tokens_; }

  /// Transition-level connectivity view: node = transition, arc = place.
  /// Arc ids of the returned graph equal PlaceIds of this TMG.
  graph::Digraph transition_graph() const;

  bool valid_transition(TransitionId t) const {
    return t >= 0 && t < num_transitions();
  }
  bool valid_place(PlaceId p) const { return p >= 0 && p < num_places(); }

 private:
  std::vector<std::int64_t> delay_;
  std::vector<TransitionId> producer_;
  std::vector<TransitionId> consumer_;
  std::vector<std::int64_t> tokens_;
  std::vector<std::int32_t> out_begin_{0};  // num_transitions() + 1
  std::vector<PlaceId> out_place_;
  std::vector<std::int32_t> in_begin_{0};   // num_transitions() + 1
  std::vector<PlaceId> in_place_;
};

}  // namespace ermes::tmg
