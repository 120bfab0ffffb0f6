#pragma once
// Compact per-channel wait histograms for the compiled simulator.
//
// Every channel has two wait distributions — producer (put) waits and
// consumer (get) waits — bucketed like obs::HistogramData (log2 buckets,
// count/sum/min/max). A dense HistogramData is 544 bytes, 64 buckets wide,
// yet a channel of a live TMG settles into a K-periodic schedule and its
// waits land in a handful of buckets: on a 10k-process, 15k-channel SoC,
// 72% of the sides hit one bucket, 99.4% at most three, none more than
// five. So each side here is one 64-byte record — count, sum, min, max and
// kInlineCells (bucket, count) cells filled in first-hit order — and only a
// side that hits a fourth distinct bucket spills its buckets into a dense
// block of the overflow store (the block index lives in the record, so the
// records stay trivially copyable and a snapshot is one memcpy).
//
// Dense obs::HistogramData values are built on demand (dense()) for the
// consumers that need one: metrics publication, the stall report, and the
// bit-identity comparison against the Kernel oracle.

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "sim/program.h"

namespace ermes::sim {

class WaitHistograms {
 public:
  enum Side : std::uint8_t { kPut = 0, kGet = 1 };
  static constexpr int kInlineCells = 3;

  /// Zeroes every histogram and sizes the set for `num_channels` channels.
  void reset(std::size_t num_channels);

  std::size_t num_channels() const { return sides_.size() / 2; }
  /// Sides that outgrew their inline cells in this run.
  std::size_t spilled() const { return spill_.size(); }

  /// Records one wait episode, exactly like obs::HistogramData::observe.
  void observe(SimChannelId c, Side side, std::int64_t value) {
    Hist& h = at(c, side);
    if (h.count == 0) {
      h.min = h.max = value;
    } else {
      h.min = value < h.min ? value : h.min;
      h.max = value > h.max ? value : h.max;
    }
    ++h.count;
    h.sum += value;
    const auto bucket = static_cast<std::uint8_t>(obs::bucket_index(value));
    if (h.spill >= 0) {
      ++spill_[static_cast<std::size_t>(h.spill)][bucket];
      return;
    }
    for (std::uint8_t k = 0; k < h.cells; ++k) {
      if (h.cell_bucket[k] == bucket) {
        ++h.cell_count[k];
        return;
      }
    }
    if (h.cells < kInlineCells) {
      h.cell_bucket[h.cells] = bucket;
      h.cell_count[h.cells] = 1;
      ++h.cells;
      return;
    }
    spill(h);
    ++spill_[static_cast<std::size_t>(h.spill)][bucket];
  }

  /// Replaces one side with the distribution `data` (the Kernel oracle's
  /// dense form). The side must be empty (fresh from reset()).
  void assign(SimChannelId c, Side side, const obs::HistogramData& data);

  /// The dense form of one side, field for field what a
  /// HistogramData fed the same observations would hold.
  obs::HistogramData dense(SimChannelId c, Side side) const;

  /// Exact periodic extrapolation: `start` is this set at the start of a
  /// period that has just recurred; every side advances by n x its change
  /// since `start` (count, sum and each bucket). min and max stay put — the
  /// period already produced every value later periods revisit.
  void extrapolate(const WaitHistograms& start, std::int64_t n);

 private:
  struct Hist {
    std::int64_t count = 0;
    std::int64_t sum = 0;
    std::int64_t min = 0;  // meaningful only when count > 0
    std::int64_t max = 0;
    std::array<std::int64_t, kInlineCells> cell_count{};
    std::array<std::uint8_t, kInlineCells> cell_bucket{};
    std::uint8_t cells = 0;  // inline cells in use, in first-hit order
    std::int32_t spill = -1;  // index into spill_ once the cells overflow
  };
  static_assert(sizeof(Hist) == 64, "one cache line per channel side");
  using Block = std::array<std::int64_t, obs::kHistogramBuckets>;

  Hist& at(SimChannelId c, Side side) {
    assert(c >= 0 && 2 * static_cast<std::size_t>(c) < sides_.size());
    return sides_[2 * static_cast<std::size_t>(c) + side];
  }
  const Hist& at(SimChannelId c, Side side) const {
    assert(c >= 0 && 2 * static_cast<std::size_t>(c) < sides_.size());
    return sides_[2 * static_cast<std::size_t>(c) + side];
  }
  /// Moves `h`'s inline cells into a fresh dense block.
  void spill(Hist& h);
  std::int64_t bucket_count(const Hist& h, std::uint8_t bucket) const;

  std::vector<Hist> sides_;  // [2c] = put waits of channel c, [2c+1] = gets
  std::vector<Block> spill_;
};

}  // namespace ermes::sim
