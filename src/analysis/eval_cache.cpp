#include "analysis/eval_cache.h"

#include <cassert>

#include "cache/snapshot.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "tmg/csr.h"
#include "util/build_info.h"
#include "util/rng.h"

namespace ermes::analysis {

namespace {

// Deterministic payload byte estimate for budget accounting. It uses
// size() rather than capacity() so a save/restore round trip reproduces the
// same tracked bytes (capacity is an allocator artifact).
std::int64_t report_cost(const PerformanceReport& r) {
  return static_cast<std::int64_t>(sizeof(PerformanceReport)) +
         static_cast<std::int64_t>(
             (r.dead_cycle.size() + r.critical_processes.size() +
              r.critical_channels.size() + r.critical_places.size()) *
             sizeof(std::int32_t));
}

// Snapshot payload codec. The section id and the per-record encoding below
// ARE the on-disk contract for kSnapshotFormatVersion = 2 (format 1 also
// carried the retired ordering-replay and aux sections 2 and 3); any change
// to them must bump cache::kSnapshotFormatVersion so old files are rejected
// instead of misread.
constexpr std::uint32_t kSectionReports = 1;

template <typename T>
void encode_i32_vec(cache::Encoder* e, const std::vector<T>& v) {
  static_assert(sizeof(T) == sizeof(std::int32_t));
  e->u32(static_cast<std::uint32_t>(v.size()));
  for (const T x : v) e->i32(static_cast<std::int32_t>(x));
}

template <typename T>
bool decode_i32_vec(cache::Decoder* d, std::vector<T>* v) {
  const std::uint32_t n = d->u32();
  if (static_cast<std::size_t>(n) * 4 > d->remaining()) return false;
  v->resize(n);
  for (std::uint32_t i = 0; i < n; ++i) (*v)[i] = static_cast<T>(d->i32());
  return d->ok();
}

void encode_report(cache::Encoder* e, const PerformanceReport& r) {
  e->u8(r.live ? 1 : 0);
  encode_i32_vec(e, r.dead_cycle);
  e->f64(r.cycle_time);
  e->i64(r.ct_num);
  e->i64(r.ct_den);
  e->f64(r.throughput);
  encode_i32_vec(e, r.critical_processes);
  encode_i32_vec(e, r.critical_channels);
  encode_i32_vec(e, r.critical_places);
}

bool decode_report(cache::Decoder* d, PerformanceReport* r) {
  r->live = d->u8() != 0;
  if (!decode_i32_vec(d, &r->dead_cycle)) return false;
  r->cycle_time = d->f64();
  r->ct_num = d->i64();
  r->ct_den = d->i64();
  r->throughput = d->f64();
  return decode_i32_vec(d, &r->critical_processes) &&
         decode_i32_vec(d, &r->critical_channels) &&
         decode_i32_vec(d, &r->critical_places) && d->ok();
}

// FNV-1a offset/prime over splitmix64-diffused words: FNV alone mixes low
// bytes poorly for small integers (latencies are tiny), so each word is
// avalanche-mixed first. Near-identical systems — two processes swapping
// latencies, one order transposition — must land on distinct fingerprints.
struct Hasher {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void word(std::uint64_t w) {
    h = (h ^ util::splitmix64(w)) * 0x100000001b3ULL;
  }
  void sword(std::int64_t w) { word(static_cast<std::uint64_t>(w)); }
};

}  // namespace

std::uint64_t system_fingerprint(const sysmodel::SystemModel& sys) {
  Hasher hasher;
  hasher.sword(sys.num_processes());
  hasher.sword(sys.num_channels());
  for (sysmodel::ProcessId p = 0; p < sys.num_processes(); ++p) {
    hasher.sword(sys.latency(p));
    hasher.word(sys.primed(p) ? 0x9e37 : 0x79b9);
    // Orders are length-prefixed so that shifting a channel between the two
    // lists cannot alias a permutation within one list.
    const auto& inputs = sys.input_order(p);
    hasher.word(inputs.size());
    for (sysmodel::ChannelId c : inputs) hasher.sword(c);
    const auto& outputs = sys.output_order(p);
    hasher.word(outputs.size());
    for (sysmodel::ChannelId c : outputs) hasher.sword(c);
  }
  for (sysmodel::ChannelId c = 0; c < sys.num_channels(); ++c) {
    hasher.sword(sys.channel_source(c));
    hasher.sword(sys.channel_target(c));
    hasher.sword(sys.channel_latency(c));
    hasher.sword(sys.channel_capacity(c));
  }
  return hasher.h;
}

EvalCache::EvalCache(std::size_t num_shards, std::int64_t byte_budget)
    : reports_(num_shards, byte_budget, report_cost) {}

void EvalCache::record_insert(const cache::InsertResult& result) const {
  if (!obs::enabled()) return;
  if (result.evicted > 0) {
    obs::count("analysis.eval_cache.evictions", result.evicted);
  }
  if (result.rejected) obs::count("analysis.eval_cache.admit_rejects");
  if (result.inserted || result.evicted > 0) {
    obs::gauge_set("analysis.eval_cache.bytes", bytes());
  }
}

void EvalCache::record_probe(std::uint64_t fingerprint, bool hit) const {
  reports_.record(fingerprint, hit);
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) {
    (hit ? window_hits_ : window_misses_).record();
    obs::count(hit ? "analysis.eval_cache.hits" : "analysis.eval_cache.misses");
  }
}

bool EvalCache::lookup(std::uint64_t fingerprint,
                       PerformanceReport* out) const {
  obs::StageTimer probe_timer(obs::Stage::kCacheProbe);
  const bool hit = reports_.peek(fingerprint, out);
  record_probe(fingerprint, hit);
  return hit;
}

void EvalCache::insert(std::uint64_t fingerprint,
                       const PerformanceReport& report) {
  record_insert(reports_.insert(fingerprint, report));
}

PerformanceReport EvalCache::analyze(const sysmodel::SystemModel& sys,
                                     tmg::CycleMeanSolver& solver) {
  const std::uint64_t fingerprint = system_fingerprint(sys);
  PerformanceReport report;
  bool hit = false;
  std::shared_ptr<InFlight> flight;  // set when this thread computes
  {
    obs::StageTimer probe_timer(obs::Stage::kCacheProbe);
    hit = reports_.peek(fingerprint, &report);
    if (!hit) {
      // Join the computation another thread already runs for this
      // fingerprint, or register as its owner. The re-probe under the lock
      // closes the window in which an owner inserted and unregistered after
      // the probe above (owners insert before they unregister).
      std::unique_lock<std::mutex> lock(inflight_mu_);
      hit = reports_.peek(fingerprint, &report);
      if (!hit) {
        std::shared_ptr<InFlight>& slot = inflight_[fingerprint];
        if (slot == nullptr) {
          slot = std::make_shared<InFlight>();
          flight = slot;
        } else {
          const std::shared_ptr<InFlight> joined = slot;
          inflight_cv_.wait(lock, [&] { return joined->done; });
          hit = joined->ok;
          if (hit) report = joined->report;
        }
      }
    }
  }
  record_probe(fingerprint, hit);
  if (hit) {
#ifndef NDEBUG
    // Sampled collision/staleness guard: every 16th hit re-runs the full
    // sequential analysis and insists on a bit-identical report.
    if (verify_tick_.fetch_add(1, std::memory_order_relaxed) % 16 == 0) {
      assert(reports_bit_identical(report, analyze_system(sys)) &&
             "EvalCache: cached report diverges from sequential re-analysis "
             "(fingerprint collision or stale entry)");
    }
#endif
    return report;
  }
  if (flight == nullptr) {
    // The owner this thread waited for threw: compute without dedup.
    report = analyze_system(sys, solver);
    insert(fingerprint, report);
    return report;
  }
  // Unregisters the flight on every exit; after an exception `ok` stays
  // false and the waiters compute for themselves. Waiters read `report` and
  // `ok` only after seeing `done`, which is set under inflight_mu_.
  struct Finish {
    EvalCache& cache;
    std::uint64_t fingerprint;
    InFlight& flight;
    ~Finish() {
      const std::lock_guard<std::mutex> lock(cache.inflight_mu_);
      flight.done = true;
      cache.inflight_.erase(fingerprint);
      cache.inflight_cv_.notify_all();
    }
  } finish{*this, fingerprint, *flight};
  report = analyze_system(sys, solver);
  insert(fingerprint, report);
  flight->report = report;
  flight->ok = true;
  return report;
}

void EvalCache::clear() { reports_.clear(); }

double EvalCache::hit_rate() const {
  const double h = static_cast<double>(hits());
  const double m = static_cast<double>(misses());
  return h + m > 0.0 ? h / (h + m) : 0.0;
}

bool EvalCache::save_snapshot(const std::string& path,
                              std::string* error) const {
  cache::Snapshot snapshot;
  snapshot.build = util::build_info();
  snapshot.sections.resize(1);
  snapshot.sections[0].id = kSectionReports;
  reports_.for_each([&](std::uint64_t key, const PerformanceReport& r) {
    cache::Encoder e;
    encode_report(&e, r);
    snapshot.sections[0].records.push_back({key, e.take()});
  });
  return cache::write_snapshot_file(path, snapshot, error);
}

bool EvalCache::load_snapshot(const std::string& path, std::string* error,
                              std::size_t* restored) {
  if (restored != nullptr) *restored = 0;
  cache::Snapshot snapshot;
  if (!cache::read_snapshot_file(path, &snapshot, error)) return false;

  // Decode every payload before touching the cache: a snapshot that fails
  // halfway must leave the cache exactly as it was (cold, if starting up).
  // An unknown section within a known format version is malformed (new
  // sections require a format bump): the file is rejected whole.
  std::vector<std::pair<std::uint64_t, PerformanceReport>> reports;
  for (const cache::SnapshotSection& section : snapshot.sections) {
    for (const cache::SnapshotRecord& record : section.records) {
      cache::Decoder d(record.payload);
      PerformanceReport r;
      if (section.id == kSectionReports && decode_report(&d, &r) &&
          d.at_end()) {
        reports.emplace_back(record.key, std::move(r));
      } else {
        if (error != nullptr) {
          *error = "cache snapshot record malformed (section " +
                   std::to_string(section.id) + ")";
        }
        return false;
      }
    }
  }

  // Admission goes through the normal insert path, so a snapshot larger
  // than the budget restores only what fits (clock eviction applies).
  std::size_t admitted = 0;
  for (const auto& [key, value] : reports) {
    if (reports_.insert(key, value).inserted) ++admitted;
  }
  if (restored != nullptr) *restored = admitted;
  if (obs::enabled()) obs::gauge_set("analysis.eval_cache.bytes", bytes());
  return true;
}

double EvalCache::window_hit_rate() const {
  const std::int64_t now_s = obs::steady_seconds();
  const double h = static_cast<double>(window_hits_.sum_at(now_s));
  const double m = static_cast<double>(window_misses_.sum_at(now_s));
  return h + m > 0.0 ? h / (h + m) : 0.0;
}

}  // namespace ermes::analysis
