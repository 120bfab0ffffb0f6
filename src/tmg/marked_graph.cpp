#include "tmg/marked_graph.h"

#include <cassert>
#include <utility>

namespace ermes::tmg {

namespace {

// Counting sort of the places by `endpoint`, stable in PlaceId order:
// begin[t] .. begin[t+1] brackets transition t's places in `place`.
void bucket_places(std::size_t transitions,
                   const std::vector<TransitionId>& endpoint,
                   std::vector<std::int32_t>* begin,
                   std::vector<PlaceId>* place) {
  begin->assign(transitions + 1, 0);
  for (const TransitionId t : endpoint) {
    ++(*begin)[static_cast<std::size_t>(t) + 1];
  }
  for (std::size_t t = 0; t < transitions; ++t) {
    (*begin)[t + 1] += (*begin)[t];
  }
  place->resize(endpoint.size());
  std::vector<std::int32_t> cursor(begin->begin(), begin->end() - 1);
  for (std::size_t p = 0; p < endpoint.size(); ++p) {
    const auto t = static_cast<std::size_t>(endpoint[p]);
    (*place)[static_cast<std::size_t>(cursor[t]++)] =
        static_cast<PlaceId>(p);
  }
}

// Appends place `p` (the largest id so far) to transition t's bucket.
void splice_place(TransitionId t, PlaceId p, std::vector<std::int32_t>* begin,
                  std::vector<PlaceId>* place) {
  const auto ti = static_cast<std::size_t>(t);
  place->insert(place->begin() + (*begin)[ti + 1], p);
  for (std::size_t u = ti + 1; u < begin->size(); ++u) ++(*begin)[u];
}

}  // namespace

MarkedGraph::MarkedGraph(std::vector<std::int64_t> delay,
                         std::vector<TransitionId> producer,
                         std::vector<TransitionId> consumer,
                         std::vector<std::int64_t> tokens)
    : delay_(std::move(delay)),
      producer_(std::move(producer)),
      consumer_(std::move(consumer)),
      tokens_(std::move(tokens)) {
  assert(producer_.size() == consumer_.size() &&
         producer_.size() == tokens_.size());
  bucket_places(delay_.size(), producer_, &out_begin_, &out_place_);
  bucket_places(delay_.size(), consumer_, &in_begin_, &in_place_);
}

void MarkedGraph::reserve(std::int32_t transitions, std::int32_t places) {
  const auto t = static_cast<std::size_t>(transitions);
  const auto p = static_cast<std::size_t>(places);
  delay_.reserve(t);
  out_begin_.reserve(t + 1);
  in_begin_.reserve(t + 1);
  producer_.reserve(p);
  consumer_.reserve(p);
  tokens_.reserve(p);
  out_place_.reserve(p);
  in_place_.reserve(p);
}

TransitionId MarkedGraph::add_transition(std::int64_t delay) {
  assert(delay >= 0);
  const TransitionId t = num_transitions();
  delay_.push_back(delay);
  out_begin_.push_back(out_begin_.back());
  in_begin_.push_back(in_begin_.back());
  return t;
}

PlaceId MarkedGraph::add_place(TransitionId producer, TransitionId consumer,
                               std::int64_t tokens) {
  assert(valid_transition(producer) && valid_transition(consumer));
  assert(tokens >= 0);
  const PlaceId p = num_places();
  producer_.push_back(producer);
  consumer_.push_back(consumer);
  tokens_.push_back(tokens);
  splice_place(producer, p, &out_begin_, &out_place_);
  splice_place(consumer, p, &in_begin_, &in_place_);
  return p;
}

void MarkedGraph::set_delay(TransitionId t, std::int64_t delay) {
  assert(valid_transition(t) && delay >= 0);
  delay_[static_cast<std::size_t>(t)] = delay;
}

void MarkedGraph::set_tokens(PlaceId p, std::int64_t tokens) {
  assert(valid_place(p) && tokens >= 0);
  tokens_[static_cast<std::size_t>(p)] = tokens;
}

std::int64_t MarkedGraph::total_tokens() const {
  std::int64_t total = 0;
  for (const std::int64_t tokens : tokens_) total += tokens;
  return total;
}

graph::Digraph MarkedGraph::transition_graph() const {
  graph::Digraph g;
  g.reserve(num_transitions(), num_places());
  if (num_transitions() > 0) g.add_nodes(num_transitions());
  for (PlaceId p = 0; p < num_places(); ++p) {
    [[maybe_unused]] const graph::ArcId a =
        g.add_arc(producer(p), consumer(p));
    assert(a == p);  // arc ids mirror place ids by construction
  }
  return g;
}

}  // namespace ermes::tmg
