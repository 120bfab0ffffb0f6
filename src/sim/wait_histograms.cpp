#include "sim/wait_histograms.h"

namespace ermes::sim {

void WaitHistograms::reset(std::size_t num_channels) {
  sides_.assign(2 * num_channels, Hist{});
  spill_.clear();
}

void WaitHistograms::spill(Hist& h) {
  h.spill = static_cast<std::int32_t>(spill_.size());
  Block& block = spill_.emplace_back();
  for (std::uint8_t k = 0; k < h.cells; ++k) {
    block[h.cell_bucket[k]] = h.cell_count[k];
  }
  h.cells = 0;
  h.cell_count = {};
  h.cell_bucket = {};
}

std::int64_t WaitHistograms::bucket_count(const Hist& h,
                                          std::uint8_t bucket) const {
  if (h.spill >= 0) return spill_[static_cast<std::size_t>(h.spill)][bucket];
  for (std::uint8_t k = 0; k < h.cells; ++k) {
    if (h.cell_bucket[k] == bucket) return h.cell_count[k];
  }
  return 0;
}

void WaitHistograms::assign(SimChannelId c, Side side,
                            const obs::HistogramData& data) {
  Hist& h = at(c, side);
  assert(h.count == 0 && h.cells == 0 && h.spill < 0);
  h.count = data.count;
  h.sum = data.sum;
  h.min = data.min;
  h.max = data.max;
  for (int b = 0; b < obs::kHistogramBuckets; ++b) {
    const std::int64_t n = data.buckets[static_cast<std::size_t>(b)];
    if (n == 0) continue;
    if (h.spill < 0 && h.cells == kInlineCells) spill(h);
    if (h.spill >= 0) {
      spill_[static_cast<std::size_t>(h.spill)][static_cast<std::size_t>(b)] = n;
    } else {
      h.cell_bucket[h.cells] = static_cast<std::uint8_t>(b);
      h.cell_count[h.cells] = n;
      ++h.cells;
    }
  }
}

obs::HistogramData WaitHistograms::dense(SimChannelId c, Side side) const {
  const Hist& h = at(c, side);
  obs::HistogramData out;
  out.count = h.count;
  out.sum = h.sum;
  out.min = h.min;
  out.max = h.max;
  if (h.spill >= 0) {
    out.buckets = spill_[static_cast<std::size_t>(h.spill)];
  } else {
    for (std::uint8_t k = 0; k < h.cells; ++k) {
      out.buckets[h.cell_bucket[k]] = h.cell_count[k];
    }
  }
  return out;
}

void WaitHistograms::extrapolate(const WaitHistograms& start, std::int64_t n) {
  assert(start.sides_.size() == sides_.size());
  for (std::size_t i = 0; i < sides_.size(); ++i) {
    Hist& cur = sides_[i];
    const Hist& old = start.sides_[i];
    const std::int64_t delta = cur.count - old.count;
    if (delta == 0) continue;  // no episode this period: nothing moves
    cur.count += n * delta;
    cur.sum += n * (cur.sum - old.sum);
    if (cur.spill < 0) {
      // Still inline, so it was inline at the start too; cells only ever
      // append, so the start's cells are a prefix of the current ones.
      assert(old.spill < 0 && old.cells <= cur.cells);
      for (std::uint8_t k = 0; k < cur.cells; ++k) {
        assert(k >= old.cells || old.cell_bucket[k] == cur.cell_bucket[k]);
        const std::int64_t before = k < old.cells ? old.cell_count[k] : 0;
        cur.cell_count[k] += n * (cur.cell_count[k] - before);
      }
      continue;
    }
    Block& block = spill_[static_cast<std::size_t>(cur.spill)];
    for (std::size_t b = 0; b < block.size(); ++b) {
      const std::int64_t before =
          start.bucket_count(old, static_cast<std::uint8_t>(b));
      block[b] += n * (block[b] - before);
    }
  }
}

}  // namespace ermes::sim
