#include "lp_oracle/token_game.h"

#include <algorithm>
#include <cassert>
#include <queue>

#include "util/period.h"

namespace ermes::tmg {

TokenGame::TokenGame(const MarkedGraph& tmg)
    : tmg_(tmg),
      marking_(tmg.initial_marking()),
      fire_count_(static_cast<std::size_t>(tmg.num_transitions()), 0) {}

bool TokenGame::is_enabled(TransitionId t) const {
  for (PlaceId p : tmg_.in_places(t)) {
    if (marking_[static_cast<std::size_t>(p)] == 0) return false;
  }
  return true;
}

std::vector<TransitionId> TokenGame::enabled() const {
  std::vector<TransitionId> list;
  for (TransitionId t = 0; t < tmg_.num_transitions(); ++t) {
    if (is_enabled(t)) list.push_back(t);
  }
  return list;
}

void TokenGame::fire(TransitionId t) {
  assert(is_enabled(t));
  for (PlaceId p : tmg_.in_places(t)) {
    --marking_[static_cast<std::size_t>(p)];
  }
  for (PlaceId p : tmg_.out_places(t)) {
    ++marking_[static_cast<std::size_t>(p)];
  }
  ++fire_count_[static_cast<std::size_t>(t)];
}

bool TokenGame::is_deadlocked() const {
  for (TransitionId t = 0; t < tmg_.num_transitions(); ++t) {
    if (is_enabled(t)) return false;
  }
  return true;
}

std::int64_t TokenGame::tokens_on(const std::vector<PlaceId>& places) const {
  std::int64_t total = 0;
  for (PlaceId p : places) total += marking_[static_cast<std::size_t>(p)];
  return total;
}

void TokenGame::reset() {
  marking_ = tmg_.initial_marking();
  std::fill(fire_count_.begin(), fire_count_.end(), 0);
}

namespace {

// Discrete event: transition t completes its k-th firing at `time`,
// depositing tokens into its output places.
struct Completion {
  std::int64_t time;
  TransitionId transition;
  bool operator>(const Completion& other) const {
    return time > other.time ||
           (time == other.time && transition > other.transition);
  }
};

}  // namespace

TimedSimResult simulate_asap(const MarkedGraph& tmg, TransitionId observed,
                             std::int64_t num_firings) {
  assert(tmg.valid_transition(observed));
  TimedSimResult result;

  // Event-driven ASAP: marking holds *available* tokens; a transition with
  // all inputs available fires immediately (consuming tokens) and schedules
  // a completion event at now + delay which deposits output tokens.
  std::vector<std::int64_t> marking = tmg.initial_marking();
  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<Completion>>
      events;

  auto enabled = [&](TransitionId t) {
    for (PlaceId p : tmg.in_places(t)) {
      if (marking[static_cast<std::size_t>(p)] == 0) return false;
    }
    return true;
  };

  // Transitions to (re)examine for enabling.
  std::vector<TransitionId> dirty;
  dirty.reserve(static_cast<std::size_t>(tmg.num_transitions()));
  for (TransitionId t = 0; t < tmg.num_transitions(); ++t) dirty.push_back(t);

  std::int64_t now = 0;
  std::int64_t observed_fired = 0;

  auto fire_ready = [&]() {
    // Keep firing until no dirty transition is enabled. A transition may be
    // enabled several times in a row (multi-token places), so loop per item.
    while (!dirty.empty()) {
      const TransitionId t = dirty.back();
      dirty.pop_back();
      while (enabled(t)) {
        for (PlaceId p : tmg.in_places(t)) {
          --marking[static_cast<std::size_t>(p)];
        }
        events.push(Completion{now + tmg.delay(t), t});
        ++result.total_firings;
        if (t == observed) {
          result.observed_starts.push_back(now);
          ++observed_fired;
          if (observed_fired >= num_firings) return;
        }
      }
    }
  };

  fire_ready();
  while (observed_fired < num_firings && !events.empty()) {
    // Pop all completions at the next time point.
    now = events.top().time;
    while (!events.empty() && events.top().time == now) {
      const Completion done = events.top();
      events.pop();
      for (PlaceId p : tmg.out_places(done.transition)) {
        ++marking[static_cast<std::size_t>(p)];
        dirty.push_back(tmg.consumer(p));
      }
    }
    fire_ready();
  }

  if (observed_fired < num_firings) {
    result.deadlocked = true;
    return result;
  }
  result.measured_cycle_time = util::estimate_period(result.observed_starts);
  return result;
}

}  // namespace ermes::tmg
