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
//   * A byte budget. Each of the three memo families (report, ordered-eval,
//     aux) charges a deterministic per-entry cost estimate against one
//     shared budget; when full, clock/second-chance eviction drops the
//     coldest entries first. Eviction is *safe by purity*: every cached
//     value is a pure function of its fingerprint, so losing an entry can
//     only cost a recomputation, never change a result — analyze() stays
//     bit-identical to the uncached path at any budget.
//   * Snapshot/restore. save_snapshot() serializes all three families into
//     the versioned, checksummed cache::Snapshot container so a restarted
//     daemon comes back warm; load_snapshot() refuses corrupt or
//     incompatible files cleanly (the cache simply starts cold).

#include <atomic>
#include <cstdint>
#include <string>
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

/// Companion fingerprint of the implementation space: each process' Pareto
/// set as (latency, area-bits) pairs. system_fingerprint deliberately
/// excludes areas (they do not affect the TMG); solvers that *do* read areas
/// — the DSE selection ILPs — fold this in alongside the current selection.
/// Constant across an exploration (only the selection changes, never the
/// sets), so callers compute it once per run.
std::uint64_t implementation_fingerprint(const sysmodel::SystemModel& sys);

/// Folds one more word into a memo key with the same FNV/splitmix
/// combination the fingerprints use (for solver parameters, tags, ...).
std::uint64_t fingerprint_mix(std::uint64_t h, std::uint64_t word);

/// Memoized result of a full candidate evaluation (reorder + analyze): the
/// channel orders Algorithm 1 chose and the analysis of the ordered system.
/// Keyed by the fingerprint of the *pre-reorder* system — the ordering pass
/// is deterministic, so its output is as cacheable as the analysis itself
/// (and in the DSE loop it is the larger share of the evaluation cost).
struct OrderedEval {
  std::vector<std::vector<sysmodel::ChannelId>> input_orders;   // per process
  std::vector<std::vector<sysmodel::ChannelId>> output_orders;  // per process
  PerformanceReport report;
};

class EvalCache {
 public:
  /// `byte_budget` bounds the tracked bytes of all three memo families
  /// combined; 0 (the default, and the CLI default) keeps the historical
  /// unbounded behaviour. The budget is enforced by clock eviction — see
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
  /// Cache misses are computed through `solver` (see tmg/csr.h), so
  /// repeated same-topology misses reuse the compiled CSR and workspace; a
  /// null solver means a call-local one. The solver is NOT internally
  /// synchronized: concurrent callers must pass distinct solvers (e.g. one
  /// per pool worker).
  PerformanceReport analyze(const sysmodel::SystemModel& sys,
                            tmg::CycleMeanSolver* solver = nullptr);

  /// Direct probe (no computation). Returns true and fills *out on a hit.
  /// Counts toward the hit/miss statistics.
  bool lookup(std::uint64_t fingerprint, PerformanceReport* out) const;

  /// Stores a report under a fingerprint (first write wins).
  void insert(std::uint64_t fingerprint, const PerformanceReport& report);

  /// Ordered-evaluation memo (see OrderedEval). Counts into the same
  /// hit/miss statistics; obs counters analysis.eval_cache.eval_hits /
  /// .eval_misses split it out.
  bool lookup_eval(std::uint64_t pre_reorder_fingerprint,
                   OrderedEval* out) const;
  void insert_eval(std::uint64_t pre_reorder_fingerprint,
                   const OrderedEval& eval);

  /// Auxiliary memo for pure solver results derived from a fingerprint
  /// (the DSE selection ILPs memoize through this). The caller owns the key
  /// derivation — the key must cover everything the solver reads — and the
  /// payload encoding; the cache only provides sharded, counted storage.
  bool lookup_aux(std::uint64_t key, std::vector<std::int64_t>* out) const;
  void insert_aux(std::uint64_t key, const std::vector<std::int64_t>& payload);

  /// Drops every entry; statistics are kept.
  void clear();

  std::int64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  std::int64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Number of distinct fingerprints stored (all memo kinds).
  std::size_t size() const;
  /// hits / (hits + misses); 0 when empty.
  double hit_rate() const;

  /// Tracked bytes across all three memo families (deterministic cost
  /// estimates, not allocator measurements); <= byte_budget() always when a
  /// budget is set.
  std::int64_t bytes() const;
  /// The configured budget; 0 = unbounded.
  std::int64_t byte_budget() const { return byte_budget_; }
  /// Entries evicted by the clock hand to make room.
  std::int64_t evictions() const;
  /// Inserts refused by the budget (entry alone over a shard's budget, or
  /// every resident entry pinned).
  std::int64_t admission_rejects() const;

  /// Serializes all three memo families into the versioned cache::Snapshot
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

  /// Per-shard occupancy and traffic, folded across the three memo families
  /// (report, ordered-eval, aux) that share the shard index.
  struct ShardStats {
    std::size_t entries = 0;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t bytes = 0;
  };
  std::size_t num_shards() const { return reports_.num_shards(); }
  std::vector<ShardStats> shard_stats() const;

  /// Per-family occupancy and pressure. The three memo families split the
  /// total byte budget unevenly (reports 1/2, ordered evals 3/8, aux the
  /// remainder), so a full cache can be one family's budget saturating
  /// while the others sit near-empty — the serving stats plane reports
  /// this split so that is observable, not inferred.
  struct FamilyStats {
    const char* name = "";
    std::size_t entries = 0;
    std::int64_t bytes = 0;
    std::int64_t byte_budget = 0;  // 0 = unbounded
    std::int64_t evictions = 0;
    std::int64_t admission_rejects = 0;
  };
  /// Always three entries, in the fixed order reports, evals, aux.
  std::vector<FamilyStats> family_stats() const;

  /// Hit rate over roughly the last 10 seconds (hits and misses recorded
  /// into sliding windows, see obs::WindowRate); 0 when the window is empty.
  double window_hit_rate() const;

 private:
  void record_hit(const char* counter) const;
  void record_miss(const char* counter) const;
  void record_insert(const cache::InsertResult& result) const;

  std::int64_t byte_budget_ = 0;
  // mutable: const lookups still set reference bits and hit counters
  // (logically const — observable values never change).
  mutable cache::ClockCache<PerformanceReport> reports_;
  mutable cache::ClockCache<OrderedEval> evals_;
  mutable cache::ClockCache<std::vector<std::int64_t>> aux_;
  mutable std::atomic<std::int64_t> hits_{0};
  mutable std::atomic<std::int64_t> misses_{0};
  mutable obs::WindowRate window_hits_;
  mutable obs::WindowRate window_misses_;
  std::atomic<std::uint64_t> verify_tick_{0};  // debug-only sampling cursor
};

}  // namespace ermes::analysis
