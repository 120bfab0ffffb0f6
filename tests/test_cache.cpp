// Tests for the bounded cache subsystem (src/cache) and its EvalCache
// integration: clock/second-chance eviction, byte-budget accounting,
// pin-while-in-use semantics, the versioned snapshot container (including
// rejection of corrupt and incompatible files), EvalCache snapshot
// round-trips of the report memo, bit-identity of bounded analysis, and the
// shard-stats/window-rate surface under concurrent mutation (the suite CI
// runs under TSan).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis/eval_cache.h"
#include "analysis/performance.h"
#include "cache/clock_cache.h"
#include "cache/snapshot.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sysmodel/builder.h"
#include "tmg/csr.h"
#include "util/rng.h"

namespace ermes {
namespace {

// ---------------------------------------------------------------------------
// ClockCache core

// A fixed-cost payload makes budget arithmetic exact in the tests below.
cache::ClockCache<std::string>::CostFn string_cost() {
  return [](const std::string& s) {
    return static_cast<std::int64_t>(s.size());
  };
}

// Per-entry tracked cost for a string payload (cost fn + key + overhead).
std::int64_t entry_cost(const std::string& s) {
  return static_cast<std::int64_t>(s.size()) +
         cache::ClockCache<std::string>::kEntryOverhead +
         static_cast<std::int64_t>(sizeof(std::uint64_t));
}

TEST(ClockCache, HitMissAndFirstWriteWins) {
  cache::ClockCache<std::string> c(4, 0, string_cost());
  std::string out;
  EXPECT_FALSE(c.lookup(1, &out));
  EXPECT_TRUE(c.insert(1, "alpha").inserted);
  ASSERT_TRUE(c.lookup(1, &out));
  EXPECT_EQ(out, "alpha");
  // Re-inserting the same key is a no-op: the first value is immutable.
  EXPECT_FALSE(c.insert(1, "beta").inserted);
  ASSERT_TRUE(c.lookup(1, &out));
  EXPECT_EQ(out, "alpha");
  EXPECT_EQ(c.size(), 1u);
}

TEST(ClockCache, TracksBytesAndReleasesOnEviction) {
  const std::string value(100, 'x');
  const std::int64_t cost = entry_cost(value);
  // Single shard, room for exactly 3 entries.
  cache::ClockCache<std::string> c(1, 3 * cost, string_cost());
  for (std::uint64_t k = 0; k < 3; ++k) {
    EXPECT_TRUE(c.insert(k, value).inserted);
  }
  EXPECT_EQ(c.bytes(), 3 * cost);
  // A fourth insert must evict exactly one entry; the tracked bytes never
  // exceed the budget.
  const cache::InsertResult r = c.insert(3, value);
  EXPECT_TRUE(r.inserted);
  EXPECT_EQ(r.evicted, 1);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.bytes(), 3 * cost);
  EXPECT_LE(c.bytes(), c.byte_budget());
  EXPECT_EQ(c.evictions(), 1);
}

TEST(ClockCache, SecondChanceKeepsRecentlyTouchedEntry) {
  const std::string value(100, 'x');
  const std::int64_t cost = entry_cost(value);
  cache::ClockCache<std::string> c(1, 3 * cost, string_cost());
  ASSERT_TRUE(c.insert(0, value).inserted);  // A
  ASSERT_TRUE(c.insert(1, value).inserted);  // B
  ASSERT_TRUE(c.insert(2, value).inserted);  // C
  // All three carry insert-time reference bits, so the first eviction sweep
  // clears every bit in one revolution and evicts where the hand started:
  ASSERT_TRUE(c.insert(3, value).inserted);  // D evicts A
  EXPECT_FALSE(c.lookup(0, nullptr));
  // Residents now: B and C with cleared bits, D referenced. A hit on B sets
  // its bit again — the second chance — so the next eviction must take the
  // untouched C, never the re-referenced B.
  EXPECT_TRUE(c.lookup(1, nullptr));
  ASSERT_TRUE(c.insert(4, value).inserted);  // E evicts C
  EXPECT_TRUE(c.lookup(1, nullptr)) << "re-referenced entry was evicted";
  EXPECT_FALSE(c.lookup(2, nullptr)) << "unreferenced entry survived";
  EXPECT_EQ(c.size(), 3u);
}

TEST(ClockCache, OversizedEntryIsRejected) {
  cache::ClockCache<std::string> c(1, 128, string_cost());
  const cache::InsertResult r = c.insert(1, std::string(1024, 'x'));
  EXPECT_FALSE(r.inserted);
  EXPECT_TRUE(r.rejected);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.bytes(), 0);
  EXPECT_EQ(c.admission_rejects(), 1);
}

TEST(ClockCache, TinyBudgetNeverGoesUnbounded) {
  // A positive budget smaller than the shard count used to truncate the
  // per-shard budget to 0 — ClockCache's "unbounded" sentinel — silently
  // disabling the bound. It now clamps to 1 byte per shard: nothing is
  // admitted, but bytes() <= byte_budget() holds.
  cache::ClockCache<std::string> c(16, 7, string_cost());
  for (std::uint64_t k = 0; k < 64; ++k) {
    const cache::InsertResult r = c.insert(k, "payload");
    EXPECT_FALSE(r.inserted);
    EXPECT_TRUE(r.rejected);
  }
  EXPECT_EQ(c.size(), 0u);
  EXPECT_LE(c.bytes(), c.byte_budget());
}

TEST(ClockCache, PinnedEntryIsNeverEvicted) {
  const std::string value(100, 'x');
  const std::int64_t cost = entry_cost(value);
  cache::ClockCache<std::string> c(1, 2 * cost, string_cost());
  ASSERT_TRUE(c.insert(1, value).inserted);
  ASSERT_TRUE(c.insert(2, value).inserted);
  auto pin1 = c.acquire(1);
  auto pin2 = c.acquire(2);
  ASSERT_NE(pin1.value(), nullptr);
  ASSERT_NE(pin2.value(), nullptr);
  // Both residents pinned: the insert cannot make room and must refuse
  // rather than break the budget or destroy a pinned entry.
  const cache::InsertResult r = c.insert(3, value);
  EXPECT_FALSE(r.inserted);
  EXPECT_TRUE(r.rejected);
  EXPECT_EQ(*pin1.value(), value);
  EXPECT_LE(c.bytes(), c.byte_budget());
  pin1.release();
  // With one pin released, the next insert evicts the unpinned entry and
  // the pinned one survives.
  EXPECT_TRUE(c.insert(3, value).inserted);
  EXPECT_NE(pin2.value(), nullptr);
  EXPECT_EQ(*pin2.value(), value);
  EXPECT_TRUE(c.lookup(2, nullptr));
  EXPECT_FALSE(c.lookup(1, nullptr));
}

TEST(ClockCache, ClearSkipsPinnedEntries) {
  cache::ClockCache<std::string> c(2, 0, string_cost());
  ASSERT_TRUE(c.insert(1, "keep").inserted);
  ASSERT_TRUE(c.insert(2, "drop").inserted);
  ASSERT_TRUE(c.insert(3, "drop").inserted);
  auto pin = c.acquire(1);
  c.clear();
  EXPECT_EQ(c.size(), 1u);
  ASSERT_NE(pin.value(), nullptr);
  EXPECT_EQ(*pin.value(), "keep");
  pin.release();
  c.clear();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.bytes(), 0);
}

TEST(ClockCache, ShardStatsFoldToTotals) {
  cache::ClockCache<std::string> c(4, 0, string_cost());
  for (std::uint64_t k = 0; k < 64; ++k) {
    c.insert(k, "v" + std::to_string(k));
  }
  for (std::uint64_t k = 0; k < 64; ++k) c.lookup(k, nullptr);
  for (std::uint64_t k = 64; k < 96; ++k) c.lookup(k, nullptr);
  std::size_t entries = 0;
  std::int64_t hits = 0, misses = 0, bytes = 0;
  for (const auto& s : c.shard_stats()) {
    entries += s.entries;
    hits += s.hits;
    misses += s.misses;
    bytes += s.bytes;
  }
  EXPECT_EQ(entries, c.size());
  EXPECT_EQ(hits, 64);
  EXPECT_EQ(misses, 32);
  EXPECT_EQ(bytes, c.bytes());
}

// Randomized differential check against a reference map: whatever the
// insert/lookup/evict interleaving, (a) tracked bytes never exceed the
// budget, (b) every hit returns the exact value the reference holds, and
// (c) entry counts and byte accounting agree with a recount.
TEST(ClockCache, RandomizedBudgetAndIntegrityInvariants) {
  util::Rng rng(20260807);
  const std::string small(40, 's');
  const std::string big(400, 'b');
  cache::ClockCache<std::string> c(2, 4096, string_cost());
  std::map<std::uint64_t, std::string> reference;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = rng.index(256);
    if (rng.flip()) {
      const std::string& value = rng.flip(0.25) ? big : small;
      if (c.insert(key, value).inserted) reference[key] = value;
    } else {
      std::string out;
      if (c.lookup(key, &out)) {
        // The cache may have evicted a key the reference still holds (the
        // reference never evicts), but a HIT must match the reference: the
        // cache never invents or mutates values.
        ASSERT_TRUE(reference.count(key)) << "hit for a never-inserted key";
        EXPECT_EQ(out, reference[key]);
      }
    }
    ASSERT_LE(c.bytes(), c.byte_budget());
  }
  // Recount: per-shard stats and global accessors agree.
  std::int64_t bytes = 0;
  std::size_t entries = 0;
  for (const auto& s : c.shard_stats()) {
    bytes += s.bytes;
    entries += s.entries;
  }
  EXPECT_EQ(bytes, c.bytes());
  EXPECT_EQ(entries, c.size());
  EXPECT_GT(c.evictions(), 0);
}

TEST(ClockCache, ConcurrentHammerHoldsInvariants) {
  const std::string value(64, 'x');
  cache::ClockCache<std::string> c(4, 8192, string_cost());
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&c, &value, t] {
      util::Rng rng = util::Rng::for_shard(1000, t);
      for (int i = 0; i < 5000; ++i) {
        const std::uint64_t key = rng.index(512);
        if (rng.flip()) {
          c.insert(key, value);
        } else {
          std::string out;
          c.lookup(key, &out);
        }
      }
    });
  }
  // A stats poller races the mutators (the TSan target of this suite).
  std::thread poller([&c, &stop] {
    while (!stop.load()) {
      std::int64_t bytes = 0;
      for (const auto& s : c.shard_stats()) bytes += s.bytes;
      EXPECT_LE(bytes, c.byte_budget());
      EXPECT_LE(c.bytes(), c.byte_budget());
      c.size();
    }
  });
  for (auto& w : workers) w.join();
  stop.store(true);
  poller.join();
  EXPECT_LE(c.bytes(), c.byte_budget());
}

// ---------------------------------------------------------------------------
// Snapshot container

cache::Snapshot sample_snapshot() {
  cache::Snapshot snapshot;
  snapshot.build = "ermes-test 9.9.9";
  cache::SnapshotSection section;
  section.id = 7;
  section.records.push_back({42, "payload-a"});
  section.records.push_back({7, "payload-b"});
  section.records.push_back({1000, std::string("\x00\x01\xff", 3)});
  snapshot.sections.push_back(section);
  return snapshot;
}

TEST(Snapshot, RoundTripsSectionsAndRecords) {
  const std::string data = cache::write_snapshot(sample_snapshot());
  cache::Snapshot restored;
  std::string error;
  ASSERT_TRUE(cache::read_snapshot(data, &restored, &error)) << error;
  EXPECT_EQ(restored.build, "ermes-test 9.9.9");
  ASSERT_EQ(restored.sections.size(), 1u);
  EXPECT_EQ(restored.sections[0].id, 7u);
  ASSERT_EQ(restored.sections[0].records.size(), 3u);
  // Records come back sorted by key (deterministic serialization).
  EXPECT_EQ(restored.sections[0].records[0].key, 7u);
  EXPECT_EQ(restored.sections[0].records[1].key, 42u);
  EXPECT_EQ(restored.sections[0].records[2].key, 1000u);
  EXPECT_EQ(restored.sections[0].records[2].payload.size(), 3u);
}

TEST(Snapshot, SerializationIsDeterministic) {
  cache::Snapshot a = sample_snapshot();
  cache::Snapshot b = sample_snapshot();
  // Same contents in a different record order serialize byte-identically.
  std::reverse(b.sections[0].records.begin(), b.sections[0].records.end());
  EXPECT_EQ(cache::write_snapshot(a), cache::write_snapshot(b));
}

TEST(Snapshot, RejectsBadMagic) {
  std::string data = cache::write_snapshot(sample_snapshot());
  data[0] = 'X';
  cache::Snapshot out;
  std::string error;
  EXPECT_FALSE(cache::read_snapshot(data, &out, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(Snapshot, RejectsFutureFormatVersionNamingBothVersions) {
  std::string data = cache::write_snapshot(sample_snapshot());
  data[4] = static_cast<char>(cache::kSnapshotFormatVersion + 1);
  cache::Snapshot out;
  std::string error;
  EXPECT_FALSE(cache::read_snapshot(data, &out, &error));
  // The error names the file's version, the supported version, and the
  // writing build, so "written by a newer ermes" is diagnosable.
  EXPECT_NE(error.find("v" + std::to_string(cache::kSnapshotFormatVersion + 1)),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("v" + std::to_string(cache::kSnapshotFormatVersion)),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("ermes-test 9.9.9"), std::string::npos) << error;
}

TEST(Snapshot, RejectsTruncation) {
  const std::string data = cache::write_snapshot(sample_snapshot());
  cache::Snapshot out;
  std::string error;
  for (const std::size_t keep : {data.size() - 1, data.size() / 2,
                                 std::size_t{5}, std::size_t{0}}) {
    EXPECT_FALSE(cache::read_snapshot(data.substr(0, keep), &out, &error))
        << "accepted a file truncated to " << keep << " bytes";
  }
}

TEST(Snapshot, RejectsCorruptBody) {
  std::string data = cache::write_snapshot(sample_snapshot());
  data[data.size() - 3] ^= 0x40;  // flip a bit inside the body
  cache::Snapshot out;
  std::string error;
  EXPECT_FALSE(cache::read_snapshot(data, &out, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// EvalCache on the bounded core

// Distinct systems derived from the motivating example by re-labeling one
// process latency; each gets a distinct fingerprint and report.
sysmodel::SystemModel variant(std::int64_t i) {
  sysmodel::SystemModel sys = sysmodel::make_dac14_motivating_example();
  sys.set_latency(1, 5 + (i % 17));
  sys.set_channel_latency(0, 2 + (i % 11));
  return sys;
}

TEST(EvalCacheBounded, AnalyzeIsBitIdenticalToUncachedUnderEviction) {
  // A budget small enough to force constant eviction across the loop.
  analysis::EvalCache cache(4, 16 * 1024);
  tmg::CycleMeanSolver solver;
  for (int round = 0; round < 3; ++round) {
    for (std::int64_t i = 0; i < 64; ++i) {
      const sysmodel::SystemModel sys = variant(i);
      const analysis::PerformanceReport cached = cache.analyze(sys, solver);
      const analysis::PerformanceReport direct = analysis::analyze_system(sys);
      ASSERT_EQ(cached.live, direct.live);
      ASSERT_EQ(cached.ct_num, direct.ct_num);
      ASSERT_EQ(cached.ct_den, direct.ct_den);
      ASSERT_EQ(cached.cycle_time, direct.cycle_time);
      ASSERT_EQ(cached.critical_channels, direct.critical_channels);
      ASSERT_LE(cache.bytes(), cache.byte_budget());
    }
  }
  EXPECT_GT(cache.evictions(), 0);
}

// The TMG build is its own span inside every analysis, so traces split
// build from solve: one analysis.build_tmg span per miss, none per hit.
TEST(EvalCacheSpans, BuildTmgSpanRecordedOncePerMiss) {
  obs::set_enabled(true);
  obs::SpanRecorder& recorder = obs::SpanRecorder::global();
  recorder.clear();
  analysis::EvalCache cache;
  tmg::CycleMeanSolver solver;
  for (int round = 0; round < 2; ++round) {
    for (std::int64_t i = 0; i < 5; ++i) cache.analyze(variant(i), solver);
  }
  obs::set_enabled(false);
  std::int64_t builds = 0;
  for (const obs::SpanEvent& event : recorder.events()) {
    if (event.name == "analysis.build_tmg") ++builds;
  }
  EXPECT_EQ(cache.misses(), 5);
  EXPECT_EQ(cache.hits(), 5);
#ifdef NDEBUG
  EXPECT_EQ(builds, cache.misses());
#else
  // Debug builds also re-analyze every 16th hit (the sampled guard).
  EXPECT_EQ(builds, cache.misses() + (cache.hits() + 15) / 16);
#endif
  recorder.clear();
}

// Concurrent misses on one fingerprint compute it once: the first thread
// computes, the others wait for its report and count as hits.
TEST(EvalCacheInFlight, ConcurrentMissesOnOneFingerprintComputeOnce) {
  constexpr int kThreads = 4;
  constexpr std::int64_t kModels = 24;
  for (int trial = 0; trial < 5; ++trial) {
    analysis::EvalCache cache;
    std::vector<std::thread> threads;
    std::vector<std::vector<analysis::PerformanceReport>> got(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&cache, &got, t] {
        tmg::CycleMeanSolver solver;
        for (std::int64_t i = 0; i < kModels; ++i) {
          got[static_cast<std::size_t>(t)].push_back(
              cache.analyze(variant(i), solver));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(cache.misses(), kModels);
    EXPECT_EQ(cache.hits(), (kThreads - 1) * kModels);
    EXPECT_EQ(cache.size(), static_cast<std::size_t>(kModels));
    for (std::int64_t i = 0; i < kModels; ++i) {
      const analysis::PerformanceReport want =
          analysis::analyze_system(variant(i));
      for (const auto& reports : got) {
        EXPECT_TRUE(analysis::reports_bit_identical(
            reports[static_cast<std::size_t>(i)], want));
      }
    }
  }
}

TEST(EvalCacheBounded, SnapshotRoundTripsReports) {
  const std::string path = ::testing::TempDir() + "/eval_cache_rt.snap";
  analysis::EvalCache cache(4);
  tmg::CycleMeanSolver solver;
  const sysmodel::SystemModel sys = sysmodel::make_dac14_motivating_example();
  const std::uint64_t fp = analysis::system_fingerprint(sys);
  const analysis::PerformanceReport report = cache.analyze(sys, solver);
  for (std::int64_t i = 0; i < 8; ++i) cache.analyze(variant(i), solver);

  std::string error;
  ASSERT_TRUE(cache.save_snapshot(path, &error)) << error;

  analysis::EvalCache restored(4);
  std::size_t count = 0;
  ASSERT_TRUE(restored.load_snapshot(path, &error, &count)) << error;
  EXPECT_EQ(count, cache.size());
  EXPECT_EQ(restored.size(), cache.size());
  // Byte accounting is reproduced exactly (costs use size(), not capacity).
  EXPECT_EQ(restored.bytes(), cache.bytes());

  analysis::PerformanceReport r2;
  ASSERT_TRUE(restored.lookup(fp, &r2));
  EXPECT_EQ(r2.ct_num, report.ct_num);
  EXPECT_EQ(r2.ct_den, report.ct_den);
  EXPECT_EQ(r2.cycle_time, report.cycle_time);
  EXPECT_EQ(r2.critical_processes, report.critical_processes);
  EXPECT_EQ(r2.critical_channels, report.critical_channels);
  EXPECT_EQ(r2.critical_places, report.critical_places);
}

TEST(EvalCacheBounded, RestoreRespectsByteBudget) {
  const std::string path = ::testing::TempDir() + "/eval_cache_budget.snap";
  analysis::EvalCache big(4);  // unbounded
  tmg::CycleMeanSolver solver;
  for (std::int64_t i = 0; i < 128; ++i) big.analyze(variant(i), solver);
  std::string error;
  ASSERT_TRUE(big.save_snapshot(path, &error)) << error;

  analysis::EvalCache small(4, big.bytes() / 4);
  std::size_t count = 0;
  ASSERT_TRUE(small.load_snapshot(path, &error, &count)) << error;
  EXPECT_GT(count, 0u);
  // Restored entries pass through normal admission: whatever over-fills the
  // budget is evicted or refused, so only a fraction stays resident and the
  // budget invariant holds at the end of the load.
  EXPECT_LT(small.size(), big.size());
  EXPECT_GT(small.size(), 0u);
  EXPECT_LE(small.bytes(), small.byte_budget());
}

TEST(EvalCacheBounded, LoadRejectsCorruptFileAndStaysCold) {
  const std::string path = ::testing::TempDir() + "/eval_cache_bad.snap";
  analysis::EvalCache cache(4);
  tmg::CycleMeanSolver solver;
  cache.analyze(sysmodel::make_dac14_motivating_example(), solver);
  std::string error;
  ASSERT_TRUE(cache.save_snapshot(path, &error)) << error;

  // Corrupt one payload byte: checksum must catch it.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -2, SEEK_END);
    const int c = std::fgetc(f);
    std::fseek(f, -2, SEEK_END);
    std::fputc(c ^ 0x10, f);
    std::fclose(f);
  }
  analysis::EvalCache fresh(4);
  std::size_t count = 123;
  EXPECT_FALSE(fresh.load_snapshot(path, &error, &count));
  EXPECT_EQ(count, 0u);
  EXPECT_EQ(fresh.size(), 0u) << "rejected snapshot must leave cache cold";
  EXPECT_EQ(fresh.bytes(), 0);
  EXPECT_FALSE(error.empty());

  // And a missing file fails cleanly too.
  EXPECT_FALSE(fresh.load_snapshot(path + ".does-not-exist", &error));
  EXPECT_EQ(fresh.size(), 0u);

  // A well-formed format-1 file (the report section plus the retired
  // ordering-replay and aux sections 2 and 3) is refused by version, not
  // misread; the error names both versions.
  {
    cache::Snapshot old;
    old.build = "ermes-test 0.1";
    for (const std::uint32_t id : {1u, 2u, 3u}) {
      cache::SnapshotSection section;
      section.id = id;
      section.records.push_back({id, "payload"});
      old.sections.push_back(section);
    }
    std::string data = cache::write_snapshot(old);
    data[4] = 1;  // the u16 format field, little-endian
    std::ofstream(path, std::ios::binary | std::ios::trunc) << data;
  }
  count = 123;
  EXPECT_FALSE(fresh.load_snapshot(path, &error, &count));
  EXPECT_EQ(count, 0u);
  EXPECT_EQ(fresh.size(), 0u) << "a format-1 snapshot must leave cache cold";
  EXPECT_NE(error.find("v1"), std::string::npos) << error;
  EXPECT_NE(error.find("v" + std::to_string(cache::kSnapshotFormatVersion)),
            std::string::npos)
      << error;
  EXPECT_EQ(cache::kSnapshotFormatVersion, 2);
}

// The satellite regression: shard_stats(), window_hit_rate(), bytes(), and
// size() polled concurrently with mutating traffic (CI runs this binary
// under TSan; the assertions also pin the fold-to-totals contract).
TEST(EvalCacheBounded, ShardStatsAndWindowRateUnderConcurrentMutation) {
  analysis::EvalCache cache(8, 64 * 1024);
  std::atomic<bool> stop{false};
  std::vector<std::thread> mutators;
  for (int t = 0; t < 3; ++t) {
    mutators.emplace_back([&cache, t] {
      tmg::CycleMeanSolver solver;
      for (std::int64_t i = 0; i < 200; ++i) {
        const analysis::PerformanceReport report =
            cache.analyze(variant(t * 200 + (i % 97)), solver);
        // Direct probes and inserts under keys analyze() never uses.
        analysis::PerformanceReport probe;
        const std::uint64_t key = util::splitmix64(
            (static_cast<std::uint64_t>(t) << 32) |
            static_cast<std::uint64_t>(i));
        if (!cache.lookup(key, &probe)) cache.insert(key, report);
      }
    });
  }
  std::thread poller([&cache, &stop] {
    while (!stop.load()) {
      std::size_t entries = 0;
      std::int64_t bytes = 0;
      for (const auto& s : cache.shard_stats()) {
        entries += s.entries;
        bytes += s.bytes;
      }
      EXPECT_LE(bytes, cache.byte_budget());
      const double rate = cache.window_hit_rate();
      EXPECT_GE(rate, 0.0);
      EXPECT_LE(rate, 1.0);
      const double cumulative = cache.hit_rate();
      EXPECT_GE(cumulative, 0.0);
      EXPECT_LE(cumulative, 1.0);
      cache.bytes();
      cache.size();
    }
  });
  for (auto& m : mutators) m.join();
  stop.store(true);
  poller.join();

  // Quiescent recount: per-shard stats fold exactly to the totals.
  std::size_t entries = 0;
  std::int64_t hits = 0, misses = 0, bytes = 0;
  for (const auto& s : cache.shard_stats()) {
    entries += s.entries;
    hits += s.hits;
    misses += s.misses;
    bytes += s.bytes;
  }
  EXPECT_EQ(entries, cache.size());
  EXPECT_EQ(hits, cache.hits());
  EXPECT_EQ(misses, cache.misses());
  EXPECT_EQ(bytes, cache.bytes());
  EXPECT_LE(cache.bytes(), cache.byte_budget());
}

}  // namespace
}  // namespace ermes
