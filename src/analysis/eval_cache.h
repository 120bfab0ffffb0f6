#pragma once
// Memoized system evaluation.
//
// The cycle time, critical cycle, and liveness of a system are pure
// functions of its TMG labeling — process latencies, channel delays and
// capacities, I/O orders, and the initial marking (primed flags). Millo &
// de Simone's periodic-scheduling results make this precise: throughput is
// determined by the (delay, marking) pair alone. That purity is what makes
// evaluations safely cacheable across DSE iterations, TCT sweep points, and
// threads: two candidates that agree on the labeling agree on the report,
// bit for bit.
//
// system_fingerprint hashes exactly the fields the TMG elaboration reads
// (and nothing else — areas and names are excluded on purpose), so the
// fingerprint is a sound memo key up to 64-bit collisions. Debug builds
// guard against collisions and staleness by re-analyzing a sampled subset
// of hits and asserting bit-identical reports.
//
// EvalCache is sharded: lookups take one shard mutex, so concurrent workers
// evaluating different candidates rarely contend. Hit/miss counts are kept
// per shard (shard_stats() exposes occupancy and traffic per shard, so skew
// — a hot shard serializing lookups — is observable) and in aggregate, and
// are mirrored into the obs registry (analysis.eval_cache.hits / .misses)
// when telemetry is enabled. A sliding-window hit rate (window_hit_rate())
// tracks the last ~10 seconds for the serving stats plane, where the
// cumulative rate is dominated by history.
//
// Storage sits on cache::ClockCache (src/cache), which adds two properties
// an unbounded memo lacks:
//
//   * A byte budget. Each report charges a deterministic per-entry cost
//     estimate against the budget; when full, clock/second-chance eviction
//     drops the coldest entries first. Eviction is *safe by purity*: every
//     cached report is a pure function of its fingerprint, so losing an
//     entry can only cost a recomputation, never change a result —
//     analyze() stays bit-identical to the uncached path at any budget.
//   * Snapshot/restore. save_snapshot() serializes the reports into the
//     versioned, checksummed cache::Snapshot container so a restarted
//     daemon comes back warm; load_snapshot() refuses corrupt or
//     incompatible files cleanly (the cache simply starts cold).
//
// The report memo is the only one: channel orders and selection proposals
// are recomputed per candidate, and the partitioned/incremental engines
// (src/comp) solve their components without a memo.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/performance.h"
#include "cache/clock_cache.h"
#include "obs/quantile.h"
#include "sysmodel/system.h"

namespace ermes::analysis {

/// 64-bit fingerprint of everything performance analysis depends on:
/// process latencies and primed flags, per-process get/put orders, channel
/// endpoints, delays, and capacities. Names and areas are excluded (they do
/// not affect the TMG). FNV-style combination of splitmix64-diffused words.
std::uint64_t system_fingerprint(const sysmodel::SystemModel& sys);

class EvalCache {
 public:
  /// `byte_budget` bounds the tracked bytes of the stored reports; 0 (the
  /// default, and the CLI default) keeps the historical unbounded
  /// behaviour. The budget is enforced by clock eviction — see
  /// cache::ClockCache — and holds as an invariant: bytes() <= byte_budget()
  /// at every instant.
  explicit EvalCache(std::size_t num_shards = 16,
                     std::int64_t byte_budget = 0);
  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  /// Memoized analysis::analyze_system: returns the cached report when the
  /// fingerprint of `sys` was seen before, computes and stores it otherwise.
  /// Thread-safe; results are bit-identical to the uncached path.
  ///
  /// Misses are deduplicated in flight: the first thread to miss on a
  /// fingerprint computes the report, and threads missing on it meanwhile
  /// wait for that report and count as hits. Without a byte budget, misses()
  /// therefore equals the number of distinct fingerprints analyzed, however
  /// many threads share the cache.
  ///
  /// Cache misses are computed through `solver` (see tmg/csr.h), so
  /// repeated same-topology misses reuse the compiled CSR and workspace.
  /// The solver is NOT internally synchronized: concurrent callers must
  /// pass distinct solvers (e.g. one per pool worker).
  PerformanceReport analyze(const sysmodel::SystemModel& sys,
                            tmg::CycleMeanSolver& solver);

  /// Direct probe (no computation). Returns true and fills *out on a hit.
  /// Counts toward the hit/miss statistics.
  bool lookup(std::uint64_t fingerprint, PerformanceReport* out) const;

  /// Stores a report under a fingerprint (first write wins).
  void insert(std::uint64_t fingerprint, const PerformanceReport& report);

  /// Drops every entry; statistics are kept.
  void clear();

  std::int64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  std::int64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Number of reports stored.
  std::size_t size() const { return reports_.size(); }
  /// hits / (hits + misses); 0 when empty.
  double hit_rate() const;

  /// Tracked bytes (deterministic cost estimates, not allocator
  /// measurements); <= byte_budget() always when a budget is set.
  std::int64_t bytes() const { return reports_.bytes(); }
  /// The configured budget; 0 = unbounded.
  std::int64_t byte_budget() const { return reports_.byte_budget(); }
  /// Entries evicted by the clock hand to make room.
  std::int64_t evictions() const { return reports_.evictions(); }
  /// Inserts refused by the budget (entry alone over a shard's budget, or
  /// every resident entry pinned).
  std::int64_t admission_rejects() const {
    return reports_.admission_rejects();
  }

  /// Serializes the stored reports into the versioned cache::Snapshot
  /// container at `path` (atomic write). Returns false and sets *error on
  /// I/O failure.
  bool save_snapshot(const std::string& path, std::string* error) const;
  /// Restores entries from a snapshot written by save_snapshot. Respects
  /// the byte budget (restored entries are admitted like inserts — a
  /// snapshot larger than the budget restores only what fits). On any
  /// rejection — missing file, bad magic, format-version mismatch,
  /// checksum failure, malformed payload — returns false with *error set
  /// and leaves the cache exactly as it was (cold start). `restored`, when
  /// non-null, receives the number of entries admitted.
  bool load_snapshot(const std::string& path, std::string* error,
                     std::size_t* restored = nullptr);

  /// Per-shard occupancy and traffic.
  using ShardStats = cache::ClockCache<PerformanceReport>::ShardStats;
  std::size_t num_shards() const { return reports_.num_shards(); }
  std::vector<ShardStats> shard_stats() const {
    return reports_.shard_stats();
  }

  /// Hit rate over roughly the last 10 seconds (hits and misses recorded
  /// into sliding windows, see obs::WindowRate); 0 when the window is empty.
  double window_hit_rate() const;

 private:
  // A miss being computed; waiters read `report` once `done` is set.
  struct InFlight {
    bool done = false;
    bool ok = false;  // false when the computing thread threw
    PerformanceReport report;
  };

  void record_insert(const cache::InsertResult& result) const;
  // Counts one request's outcome: per shard, in aggregate, in the windows
  // and in the obs registry.
  void record_probe(std::uint64_t fingerprint, bool hit) const;

  // mutable: const lookups still set reference bits and hit counters
  // (logically const — observable values never change).
  mutable cache::ClockCache<PerformanceReport> reports_;
  mutable std::atomic<std::int64_t> hits_{0};
  mutable std::atomic<std::int64_t> misses_{0};
  mutable obs::WindowRate window_hits_;
  mutable obs::WindowRate window_misses_;
  std::atomic<std::uint64_t> verify_tick_{0};  // debug-only sampling cursor

  // Misses being computed, by fingerprint (touched on misses only).
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  std::unordered_map<std::uint64_t, std::shared_ptr<InFlight>> inflight_;
};

}  // namespace ermes::analysis
