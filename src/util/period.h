#pragma once
// Steady-state period estimation from a sequence of event times.
//
// Marked graphs (and the rendezvous systems built on them) enter a periodic
// regime after a finite transient: event times eventually satisfy
// t[k + K] = t[k] + K * period for some integer K. A naive
// (t[last] - t[mid]) / (last - mid) estimator carries an O(1/n) bias when
// last - mid is not a multiple of K, which breaks exact comparisons against
// the analytic cycle time. This helper detects K on the tail of the trace
// and returns the exact average period.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ermes::util {

/// An event-time sequence whose periodic middle is stored once: an
/// explicit head, then `repeats` further copies of the head's last `window`
/// times, copy m shifted by m * stride, then an explicit tail. A simulator
/// that jumps whole periods of a steady state records the sequence in
/// O(transient + one period + tail) memory, yet every reader sees each
/// element exactly as if all of them had been stored.
class EventTimes {
 public:
  void clear() {
    stored_.clear();
    repeat_at_ = window_ = 0;
    repeats_ = stride_ = 0;
  }
  void push_back(std::int64_t time) { stored_.push_back(time); }
  /// Appends `repeats` copies of the last `window` times, copy m (1-based)
  /// shifted by m * stride. At most once per sequence.
  void repeat_last(std::size_t window, std::int64_t repeats,
                   std::int64_t stride) {
    assert(repeats_ == 0 && window > 0 && window <= stored_.size());
    repeat_at_ = stored_.size();
    window_ = window;
    repeats_ = repeats;
    stride_ = stride;
  }

  std::size_t size() const { return stored_.size() + repeated(); }
  /// Times actually held in memory.
  std::size_t stored() const { return stored_.size(); }
  std::int64_t operator[](std::size_t i) const {
    if (i < repeat_at_) return stored_[i];
    const std::size_t j = i - repeat_at_;
    if (j >= repeated()) return stored_[i - repeated()];
    const std::size_t copy = j / window_;
    return stored_[repeat_at_ - window_ + (j - copy * window_)] +
           static_cast<std::int64_t>(copy + 1) * stride_;
  }

 private:
  std::size_t repeated() const {
    return static_cast<std::size_t>(repeats_) * window_;
  }

  std::vector<std::int64_t> stored_;
  std::size_t repeat_at_ = 0;  // stored_ index the copies are spliced in at
  std::size_t window_ = 0;
  std::int64_t repeats_ = 0;
  std::int64_t stride_ = 0;
};

/// Returns the steady-state period of `times` (cycles per event). Uses the
/// final third of the trace; if no exact periodicity is found there, falls
/// back to the biased average over the tail. Returns 0 for fewer than 4
/// samples. `Times` is a std::vector or an EventTimes; it is read through
/// size() and operator[] one element at a time, never materialized.
template <typename Times>
double estimate_period(const Times& times) {
  const std::size_t n = times.size();
  if (n < 4) return 0.0;

  // Work on the last third: diffs d[k] = times[start+k+1] - times[start+k].
  const std::size_t start = (2 * n) / 3;
  const std::size_t m = n - 1 - start;
  if (m == 0) return 0.0;
  const auto diff = [&](std::size_t k) {
    return times[start + k + 1] - times[start + k];
  };

  // Find the smallest K such that the diff window is K-periodic and at least
  // two full periods are visible.
  for (std::size_t period = 1; period * 2 <= m; ++period) {
    bool ok = true;
    for (std::size_t k = 0; k + period < m && ok; ++k) {
      ok = diff(k) == diff(k + period);
    }
    if (!ok) continue;
    return static_cast<double>(times[start + period] - times[start]) /
           static_cast<double>(period);
  }

  // Fallback: biased average over the tail.
  return static_cast<double>(times[n - 1] - times[start]) /
         static_cast<double>(n - 1 - start);
}

/// The same for a plain vector; also takes a braced list of times.
double estimate_period(const std::vector<std::int64_t>& times);

}  // namespace ermes::util
