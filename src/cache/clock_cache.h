#pragma once
// Sharded, byte-budgeted cache core with clock (second-chance) eviction.
//
// The shared evaluation memo (analysis::EvalCache) grew without bound — fine
// for one CLI run, fatal for a long-lived daemon under diverse traffic.
// ClockCache is the bounded storage it now sits on: a fixed number of shards
// (one mutex each, so concurrent workers on different keys rarely contend),
// a per-entry byte cost charged against a global budget, and a clock hand
// per shard approximating LRU the way the classic buffer-cache design does:
// every hit sets the entry's reference bit; the hand sweeps the ring giving
// each referenced entry one second chance (clearing the bit) before evicting
// the first unreferenced, unpinned victim it meets. Two full sweeps clear
// every reference bit, so a victim is found whenever any entry is unpinned —
// and when *nothing* is evictable the insert is refused rather than let the
// tracked bytes exceed the budget. The budget is a hard invariant:
// bytes() <= byte_budget() at every instant, which is what lets a serving
// daemon promise flat memory under arbitrary traffic.
//
// Pin-while-in-use: lookups pin their entry, release the shard mutex, copy
// the payload, then unpin — so copying a payload never holds the shard
// lock, and the clock hand skips pinned entries, so an entry being read
// (or held via acquire()) is never destroyed mid-flight. Values
// are immutable after insert (first write wins), which is what makes the
// unlocked copy safe: unordered_map nodes are stable under rehash, nothing
// ever writes a stored value again, and erasure is exactly what the pin
// blocks. The pin count is atomic so the unpin after the copy is lock-free
// (one mutex acquisition per hit, not two): pins are only *taken* under the
// shard lock, so an evictor that reads zero pins under that lock knows no
// new reader can appear, and the release-fence on the unpin orders the
// reader's copy before the evictor's erase.
//
// The core is deliberately free of domain knowledge and telemetry: the cost
// function, key derivation, and obs mirroring belong to the caller (see
// analysis/eval_cache.cpp). Snapshot/restore lives in cache/snapshot.h; this
// header only exposes for_each() so owners can serialize their entries.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace ermes::cache {

struct InsertResult {
  bool inserted = false;  // false: duplicate key or admission refused
  bool rejected = false;  // refused by the budget (oversized / all pinned)
  int evicted = 0;        // entries evicted to make room
};

template <typename V>
class ClockCache {
 public:
  /// Payload byte estimate (the key + bookkeeping overhead is added on top).
  using CostFn = std::function<std::int64_t(const V&)>;

  /// Charged per entry in addition to the payload cost: key, ring slot, map
  /// node, and entry bookkeeping. An estimate, not an exact allocator
  /// measurement — what matters is that it is deterministic (save/restore
  /// reproduces the same tracked bytes) and conservative enough that the
  /// budget is a real memory bound.
  static constexpr std::int64_t kEntryOverhead = 64;

  /// `byte_budget` 0 = unbounded. The budget splits evenly across shards
  /// (each shard enforces budget/num_shards), so the cache-wide tracked
  /// bytes can never exceed the budget. A positive budget smaller than the
  /// shard count clamps to 1 byte per shard — still effectively "admit
  /// nothing", never silently unbounded (0 is the unbounded sentinel).
  ClockCache(std::size_t num_shards, std::int64_t byte_budget, CostFn cost)
      : cost_(std::move(cost)),
        byte_budget_(byte_budget < 0 ? 0 : byte_budget) {
    if (num_shards == 0) num_shards = 1;
    shard_budget_ =
        byte_budget_ > 0
            ? std::max<std::int64_t>(
                  1, byte_budget_ / static_cast<std::int64_t>(num_shards))
            : 0;
    shards_.reserve(num_shards);
    for (std::size_t i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }
  ClockCache(const ClockCache&) = delete;
  ClockCache& operator=(const ClockCache&) = delete;

  /// Copies the value into *out on a hit (sets the reference bit, counts a
  /// shard hit). The copy happens outside the shard lock under a pin; the
  /// unpin is a lock-free atomic decrement, so a hit costs one mutex
  /// acquisition.
  bool lookup(std::uint64_t key, V* out) {
    Shard& shard = shard_of(key);
    Entry* entry = nullptr;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      const auto it = shard.map.find(key);
      if (it == shard.map.end()) {
        shard.misses.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      entry = &it->second;
      entry->referenced = true;
      entry->pins.fetch_add(1, std::memory_order_relaxed);
      shard.hits.fetch_add(1, std::memory_order_relaxed);
    }
    if (out != nullptr) *out = entry->value;
    entry->pins.fetch_sub(1, std::memory_order_release);
    return true;
  }

  /// First write wins; re-inserting an existing key is a no-op. When the
  /// budget requires it, unpinned entries are evicted clock-wise; if the
  /// entry alone exceeds the shard budget, or everything else is pinned,
  /// the insert is refused (the budget invariant is never broken).
  InsertResult insert(std::uint64_t key, const V& value) {
    InsertResult result;
    const std::int64_t cost =
        cost_(value) + kEntryOverhead + static_cast<std::int64_t>(sizeof(key));
    Shard& shard = shard_of(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.map.find(key) != shard.map.end()) return result;
    if (shard_budget_ > 0) {
      if (cost > shard_budget_) {
        result.rejected = true;
        shard.rejects.fetch_add(1, std::memory_order_relaxed);
        return result;
      }
      while (shard.bytes.load(std::memory_order_relaxed) + cost >
             shard_budget_) {
        if (!evict_one(shard)) {
          result.rejected = true;
          shard.rejects.fetch_add(1, std::memory_order_relaxed);
          return result;
        }
        ++result.evicted;
      }
    }
    const auto [it, fresh] = shard.map.try_emplace(key, value, cost);
    (void)fresh;
    it->second.ring_pos = shard.ring.size();
    shard.ring.push_back(key);
    shard.bytes.fetch_add(cost, std::memory_order_relaxed);
    result.inserted = true;
    return result;
  }

  /// RAII pin: holds a pointer to the stored value and blocks its eviction
  /// (and clear()) until released. Empty (value() == nullptr) on a miss.
  class PinnedRef {
   public:
    PinnedRef() = default;
    PinnedRef(PinnedRef&& other) noexcept : entry_(other.entry_) {
      other.entry_ = nullptr;
    }
    PinnedRef& operator=(PinnedRef&& other) noexcept {
      if (this != &other) {
        release();
        entry_ = other.entry_;
        other.entry_ = nullptr;
      }
      return *this;
    }
    PinnedRef(const PinnedRef&) = delete;
    PinnedRef& operator=(const PinnedRef&) = delete;
    ~PinnedRef() { release(); }

    const V* value() const {
      return entry_ != nullptr ? &entry_->value : nullptr;
    }
    void release() {
      if (entry_ != nullptr) {
        entry_->pins.fetch_sub(1, std::memory_order_release);
        entry_ = nullptr;
      }
    }

   private:
    friend class ClockCache;
    explicit PinnedRef(typename ClockCache::Entry* entry) : entry_(entry) {}
    typename ClockCache::Entry* entry_ = nullptr;
  };

  /// Pins the entry (counts a hit, sets the reference bit). The returned
  /// ref keeps the value address stable until released.
  PinnedRef acquire(std::uint64_t key) {
    Shard& shard = shard_of(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      shard.misses.fetch_add(1, std::memory_order_relaxed);
      return PinnedRef();
    }
    it->second.referenced = true;
    it->second.pins.fetch_add(1, std::memory_order_relaxed);
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    return PinnedRef(&it->second);
  }

  /// Drops every unpinned entry (pinned ones survive — a reader mid-copy is
  /// never destroyed; its entry goes on the next clear or eviction).
  void clear() {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      std::vector<std::uint64_t> keep;
      for (const std::uint64_t key : shard->ring) {
        auto& entry = shard->map.at(key);
        if (entry.pins.load(std::memory_order_acquire) > 0) {
          entry.ring_pos = keep.size();
          keep.push_back(key);
        } else {
          shard->bytes.fetch_sub(entry.cost, std::memory_order_relaxed);
          shard->map.erase(key);
        }
      }
      shard->ring = std::move(keep);
      shard->hand = 0;
    }
  }

  /// Visits every entry shard by shard (the callback runs under that
  /// shard's lock and must not reenter the cache).
  void for_each(
      const std::function<void(std::uint64_t, const V&)>& fn) const {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (const auto& [key, entry] : shard->map) fn(key, entry.value);
    }
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total += shard->map.size();
    }
    return total;
  }

  /// Tracked bytes across all shards; <= byte_budget() whenever a budget is
  /// set (the insert path refuses rather than overflow).
  std::int64_t bytes() const {
    std::int64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->bytes.load(std::memory_order_relaxed);
    }
    return total;
  }

  std::int64_t byte_budget() const { return byte_budget_; }
  std::size_t num_shards() const { return shards_.size(); }

  std::int64_t evictions() const {
    std::int64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->evictions.load(std::memory_order_relaxed);
    }
    return total;
  }
  /// Inserts refused by the budget (oversized entry, or all entries pinned).
  std::int64_t admission_rejects() const {
    std::int64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->rejects.load(std::memory_order_relaxed);
    }
    return total;
  }

  struct ShardStats {
    std::size_t entries = 0;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t bytes = 0;
  };
  std::vector<ShardStats> shard_stats() const {
    std::vector<ShardStats> out(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      {
        std::lock_guard<std::mutex> lock(shards_[i]->mu);
        out[i].entries = shards_[i]->map.size();
      }
      out[i].hits = shards_[i]->hits.load(std::memory_order_relaxed);
      out[i].misses = shards_[i]->misses.load(std::memory_order_relaxed);
      out[i].bytes = shards_[i]->bytes.load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  struct Entry {
    Entry(const V& v, std::int64_t c) : value(v), cost(c) {}
    V value;
    std::int64_t cost = 0;
    std::size_t ring_pos = 0;
    bool referenced = true;  // set on insert and on every hit
    // Incremented only under the shard lock; decremented lock-free with
    // release ordering (paired with the acquire load in evict_one/clear).
    std::atomic<std::int32_t> pins{0};
  };

  struct Shard {
    mutable std::mutex mu;
    // Node-based map: element addresses survive rehash, so a pinned entry
    // can be read outside the lock while other keys come and go.
    std::unordered_map<std::uint64_t, Entry> map;
    std::vector<std::uint64_t> ring;  // clock order; position in Entry
    std::size_t hand = 0;
    std::atomic<std::int64_t> bytes{0};
    mutable std::atomic<std::int64_t> hits{0};
    mutable std::atomic<std::int64_t> misses{0};
    std::atomic<std::int64_t> evictions{0};
    std::atomic<std::int64_t> rejects{0};
  };

  Shard& shard_of(std::uint64_t key) const {
    return *shards_[static_cast<std::size_t>(key) % shards_.size()];
  }

  /// One clock step sequence: sweep until a victim falls. Caller holds the
  /// shard lock. Bounded by two full revolutions — the first clears every
  /// reference bit, the second must find an unpinned victim or every entry
  /// is pinned (return false; the caller refuses the insert).
  bool evict_one(Shard& shard) {
    const std::size_t n = shard.ring.size();
    if (n == 0) return false;
    for (std::size_t step = 0; step < 2 * n + 1; ++step) {
      if (shard.hand >= shard.ring.size()) shard.hand = 0;
      const std::uint64_t key = shard.ring[shard.hand];
      Entry& entry = shard.map.at(key);
      if (entry.pins.load(std::memory_order_acquire) > 0) {
        ++shard.hand;
        continue;
      }
      if (entry.referenced) {
        entry.referenced = false;
        ++shard.hand;
        continue;
      }
      // Victim: swap-remove its ring slot, fix the moved entry's position.
      shard.bytes.fetch_sub(entry.cost, std::memory_order_relaxed);
      const std::size_t pos = shard.hand;
      shard.ring[pos] = shard.ring.back();
      shard.ring.pop_back();
      if (pos < shard.ring.size()) {
        shard.map.at(shard.ring[pos]).ring_pos = pos;
      }
      shard.map.erase(key);
      shard.evictions.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return false;  // everything pinned
  }

  CostFn cost_;
  std::int64_t byte_budget_ = 0;
  std::int64_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ermes::cache
