#include "analysis/eval_cache.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "cache/snapshot.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/span.h"
#include "tmg/csr.h"
#include "tmg/liveness.h"
#include "util/build_info.h"
#include "util/rng.h"

namespace ermes::analysis {

namespace {

// Deterministic payload byte estimates for budget accounting. They use
// size() rather than capacity() so a save/restore round trip reproduces the
// same tracked bytes (capacity is an allocator artifact).
template <typename T>
std::int64_t vec_cost(const std::vector<T>& v) {
  return static_cast<std::int64_t>(sizeof(v) + v.size() * sizeof(T));
}

std::int64_t report_cost(const PerformanceReport& r) {
  return static_cast<std::int64_t>(sizeof(PerformanceReport)) +
         static_cast<std::int64_t>(
             (r.dead_cycle.size() + r.critical_processes.size() +
              r.critical_channels.size() + r.critical_places.size()) *
             sizeof(std::int32_t));
}

std::int64_t eval_cost(const OrderedEval& e) {
  std::int64_t orders = 0;
  for (const auto& v : e.input_orders) orders += vec_cost(v);
  for (const auto& v : e.output_orders) orders += vec_cost(v);
  return static_cast<std::int64_t>(sizeof(OrderedEval) -
                                   sizeof(PerformanceReport)) +
         orders + report_cost(e.report);
}

std::int64_t aux_cost(const std::vector<std::int64_t>& v) {
  return vec_cost(v);
}

// Snapshot payload codecs. Section ids and the per-record encodings below
// ARE the on-disk contract for kSnapshotFormatVersion = 1; any change to
// them must bump cache::kSnapshotFormatVersion so old files are rejected
// instead of misread.
constexpr std::uint32_t kSectionReports = 1;
constexpr std::uint32_t kSectionEvals = 2;
constexpr std::uint32_t kSectionAux = 3;

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

void encode_eval(cache::Encoder* e, const OrderedEval& eval) {
  e->u32(static_cast<std::uint32_t>(eval.input_orders.size()));
  for (const auto& v : eval.input_orders) encode_i32_vec(e, v);
  e->u32(static_cast<std::uint32_t>(eval.output_orders.size()));
  for (const auto& v : eval.output_orders) encode_i32_vec(e, v);
  encode_report(e, eval.report);
}

bool decode_eval(cache::Decoder* d, OrderedEval* eval) {
  std::uint32_t n = d->u32();
  if (static_cast<std::size_t>(n) * 4 > d->remaining()) return false;
  eval->input_orders.resize(n);
  for (auto& v : eval->input_orders) {
    if (!decode_i32_vec(d, &v)) return false;
  }
  n = d->u32();
  if (static_cast<std::size_t>(n) * 4 > d->remaining()) return false;
  eval->output_orders.resize(n);
  for (auto& v : eval->output_orders) {
    if (!decode_i32_vec(d, &v)) return false;
  }
  return decode_report(d, &eval->report);
}

void encode_aux(cache::Encoder* e, const std::vector<std::int64_t>& v) {
  e->u32(static_cast<std::uint32_t>(v.size()));
  for (const std::int64_t x : v) e->i64(x);
}

bool decode_aux(cache::Decoder* d, std::vector<std::int64_t>* v) {
  const std::uint32_t n = d->u32();
  if (static_cast<std::size_t>(n) * 8 > d->remaining()) return false;
  v->resize(n);
  for (std::uint32_t i = 0; i < n; ++i) (*v)[i] = d->i64();
  return d->ok();
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

#ifndef NDEBUG
bool reports_bit_identical(const PerformanceReport& a,
                           const PerformanceReport& b) {
  const auto bits = [](double d) {
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
  };
  return a.live == b.live && bits(a.cycle_time) == bits(b.cycle_time) &&
         a.ct_num == b.ct_num && a.ct_den == b.ct_den &&
         bits(a.throughput) == bits(b.throughput) &&
         a.dead_cycle == b.dead_cycle &&
         a.critical_processes == b.critical_processes &&
         a.critical_channels == b.critical_channels &&
         a.critical_places == b.critical_places;
}
#endif

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

std::uint64_t implementation_fingerprint(const sysmodel::SystemModel& sys) {
  Hasher hasher;
  hasher.sword(sys.num_processes());
  for (sysmodel::ProcessId p = 0; p < sys.num_processes(); ++p) {
    const sysmodel::ParetoSet& set = sys.implementations(p);
    hasher.word(set.size());
    for (const sysmodel::Implementation& impl : set.implementations()) {
      hasher.sword(impl.latency);
      std::uint64_t area_bits;
      std::memcpy(&area_bits, &impl.area, sizeof(area_bits));
      hasher.word(area_bits);
    }
  }
  return hasher.h;
}

std::uint64_t fingerprint_mix(std::uint64_t h, std::uint64_t word) {
  return (h ^ util::splitmix64(word)) * 0x100000001b3ULL;
}

// The budget is statically partitioned across the three memo families:
// reports (one per analyzed labeling, small but by far the most numerous
// under serving traffic) get half, ordered evals (bulky: per-process orders
// plus a report) three-eighths, ILP aux payloads the rest. A static split
// keeps every family's admission decision local to one ClockCache shard —
// no cross-family coordination — while the family budgets sum to at most
// the configured total, so the combined-bytes invariant holds trivially.
// A positive total must never truncate a family share to 0 — that is
// ClockCache's "unbounded" sentinel, which would invert the bound — so
// degenerate budgets clamp to 1 byte (admit nothing) instead.
namespace {
std::int64_t family_share(std::int64_t total, std::int64_t share) {
  return total > 0 ? std::max<std::int64_t>(1, share) : 0;
}
}  // namespace

EvalCache::EvalCache(std::size_t num_shards, std::int64_t byte_budget)
    : byte_budget_(byte_budget < 0 ? 0 : byte_budget),
      reports_(num_shards, family_share(byte_budget_, byte_budget_ / 2),
               report_cost),
      evals_(num_shards, family_share(byte_budget_, byte_budget_ * 3 / 8),
             eval_cost),
      aux_(num_shards,
           family_share(byte_budget_, byte_budget_ - byte_budget_ / 2 -
                                          byte_budget_ * 3 / 8),
           aux_cost) {}

void EvalCache::record_hit(const char* counter) const {
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) {
    window_hits_.record();
    obs::count(counter);
  }
}

void EvalCache::record_miss(const char* counter) const {
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) {
    window_misses_.record();
    obs::count(counter);
  }
}

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

bool EvalCache::lookup(std::uint64_t fingerprint,
                       PerformanceReport* out) const {
  obs::StageTimer probe_timer(obs::Stage::kCacheProbe);
  if (reports_.lookup(fingerprint, out)) {
    record_hit("analysis.eval_cache.hits");
    return true;
  }
  record_miss("analysis.eval_cache.misses");
  return false;
}

void EvalCache::insert(std::uint64_t fingerprint,
                       const PerformanceReport& report) {
  record_insert(reports_.insert(fingerprint, report));
}

bool EvalCache::lookup_eval(std::uint64_t pre_reorder_fingerprint,
                            OrderedEval* out) const {
  obs::StageTimer probe_timer(obs::Stage::kCacheProbe);
  if (evals_.lookup(pre_reorder_fingerprint, out)) {
    record_hit("analysis.eval_cache.eval_hits");
    return true;
  }
  record_miss("analysis.eval_cache.eval_misses");
  return false;
}

void EvalCache::insert_eval(std::uint64_t pre_reorder_fingerprint,
                            const OrderedEval& eval) {
  record_insert(evals_.insert(pre_reorder_fingerprint, eval));
}

bool EvalCache::lookup_aux(std::uint64_t key,
                           std::vector<std::int64_t>* out) const {
  obs::StageTimer probe_timer(obs::Stage::kCacheProbe);
  if (aux_.lookup(key, out)) {
    record_hit("analysis.eval_cache.aux_hits");
    return true;
  }
  record_miss("analysis.eval_cache.aux_misses");
  return false;
}

void EvalCache::insert_aux(std::uint64_t key,
                           const std::vector<std::int64_t>& payload) {
  record_insert(aux_.insert(key, payload));
}

PerformanceReport EvalCache::analyze(const sysmodel::SystemModel& sys,
                                     tmg::CycleMeanSolver* solver) {
  const std::uint64_t fingerprint = system_fingerprint(sys);
  PerformanceReport report;
  if (lookup(fingerprint, &report)) {
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
  report = solver != nullptr ? analyze_system(sys, *solver)
                             : analyze_system(sys);
  insert(fingerprint, report);
  return report;
}

std::vector<PerformanceReport> EvalCache::analyze_batch(
    std::span<const sysmodel::SystemModel* const> systems,
    tmg::CycleMeanSolver* solver) {
  const std::size_t k = systems.size();
  std::vector<PerformanceReport> out(k);
  if (k == 0) return out;
  obs::ObsSpan span("analysis.analyze_batch", "analysis");
  tmg::CycleMeanSolver local_solver;
  if (solver == nullptr) solver = &local_solver;

  // Pass 1: fingerprint and probe every system once, in order. The first
  // occurrence of a fingerprint (its "leader") resolves as the serial loop's
  // first call would (hit or miss); later duplicates defer to pass 3, which
  // copies the leader's report from out[] once it is computed.
  std::vector<std::uint64_t> fps(k);
  std::vector<char> resolved(k, 0);
  std::vector<std::size_t> misses;
  std::unordered_map<std::uint64_t, std::size_t> first_seen;
  first_seen.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    fps[i] = system_fingerprint(*systems[i]);
    if (!first_seen.emplace(fps[i], i).second) continue;  // in-batch duplicate
    if (lookup(fps[i], &out[i])) {
      resolved[i] = 1;
#ifndef NDEBUG
      if (verify_tick_.fetch_add(1, std::memory_order_relaxed) % 16 == 0) {
        assert(reports_bit_identical(out[i], analyze_system(*systems[i])) &&
               "EvalCache: cached report diverges from sequential re-analysis "
               "(fingerprint collision or stale entry)");
      }
#endif
    } else {
      misses.push_back(i);
    }
  }

  // Pass 2: elaborate the misses, then sweep runs of consecutive live misses
  // that share one TMG structure through a single solve_batch call each.
  struct Miss {
    std::size_t idx;
    SystemTmg stmg;
  };
  std::vector<Miss> live;
  live.reserve(misses.size());
  for (const std::size_t i : misses) {
    obs::count("analysis.analyses");
    SystemTmg stmg = build_tmg(*systems[i]);
    const tmg::LivenessResult liveness = tmg::check_liveness(stmg.graph);
    if (!liveness.live) {
      out[i].live = false;
      out[i].dead_cycle = liveness.dead_cycle;
      resolved[i] = 1;
      insert(fps[i], out[i]);
      continue;
    }
    live.push_back(Miss{i, std::move(stmg)});
  }
  std::vector<tmg::WeightVector> weights;
  std::vector<tmg::BatchSolveReport> reports;
  std::size_t g = 0;
  while (g < live.size()) {
    solver->prepare(live[g].stmg.graph);
    std::size_t end = g + 1;
    while (end < live.size() && solver->csr().matches(live[end].stmg.graph)) {
      ++end;
    }
    weights.assign(end - g, tmg::WeightVector());
    for (std::size_t j = g; j < end; ++j) {
      const tmg::MarkedGraph& graph = live[j].stmg.graph;
      tmg::WeightVector& w = weights[j - g];
      w.resize(static_cast<std::size_t>(graph.num_places()));
      for (tmg::PlaceId p = 0; p < graph.num_places(); ++p) {
        w[static_cast<std::size_t>(p)] = graph.delay(graph.producer(p));
      }
    }
    reports.assign(end - g, tmg::BatchSolveReport());
    solver->solve_batch(std::span<const tmg::WeightVector>(weights),
                        std::span<tmg::BatchSolveReport>(reports));
    for (std::size_t j = g; j < end; ++j) {
      const std::size_t i = live[j].idx;
      out[i] = report_from_ratio(live[j].stmg, reports[j - g].result);
      resolved[i] = 1;
#ifndef NDEBUG
      // The batch promises bit-identity with the sequential path; sample it
      // with the same cadence as hits.
      if (verify_tick_.fetch_add(1, std::memory_order_relaxed) % 16 == 0) {
        assert(reports_bit_identical(out[i], analyze_system(*systems[i])) &&
               "EvalCache: batched solver report diverges from sequential "
               "analysis");
      }
#endif
      insert(fps[i], out[i]);
    }
    g = end;
  }

  // Pass 3: in-batch duplicates copy their leader's report directly — the
  // leader's insert() may have been refused by the byte budget (oversized
  // entry, pinned shard) or its entry evicted by concurrent inserts, so the
  // result must not depend on a cache round trip. The probe is still issued
  // so hit/miss accounting matches what the serial loop would record.
  for (std::size_t i = 0; i < k; ++i) {
    if (resolved[i]) continue;
    lookup(fps[i], nullptr);
    out[i] = out[first_seen.at(fps[i])];
  }
  return out;
}

void EvalCache::clear() {
  reports_.clear();
  evals_.clear();
  aux_.clear();
}

std::size_t EvalCache::size() const {
  return reports_.size() + evals_.size() + aux_.size();
}

double EvalCache::hit_rate() const {
  const double h = static_cast<double>(hits());
  const double m = static_cast<double>(misses());
  return h + m > 0.0 ? h / (h + m) : 0.0;
}

std::int64_t EvalCache::bytes() const {
  return reports_.bytes() + evals_.bytes() + aux_.bytes();
}

std::int64_t EvalCache::evictions() const {
  return reports_.evictions() + evals_.evictions() + aux_.evictions();
}

std::int64_t EvalCache::admission_rejects() const {
  return reports_.admission_rejects() + evals_.admission_rejects() +
         aux_.admission_rejects();
}

std::vector<EvalCache::ShardStats> EvalCache::shard_stats() const {
  std::vector<ShardStats> out(num_shards());
  const auto fold = [&out](const auto& family) {
    const auto stats = family.shard_stats();
    for (std::size_t i = 0; i < stats.size(); ++i) {
      out[i].entries += stats[i].entries;
      out[i].hits += stats[i].hits;
      out[i].misses += stats[i].misses;
      out[i].bytes += stats[i].bytes;
    }
  };
  fold(reports_);
  fold(evals_);
  fold(aux_);
  return out;
}

std::vector<EvalCache::FamilyStats> EvalCache::family_stats() const {
  const auto one = [](const char* name, const auto& family) {
    FamilyStats s;
    s.name = name;
    s.entries = family.size();
    s.bytes = family.bytes();
    s.byte_budget = family.byte_budget();
    s.evictions = family.evictions();
    s.admission_rejects = family.admission_rejects();
    return s;
  };
  return {one("reports", reports_), one("evals", evals_), one("aux", aux_)};
}

bool EvalCache::save_snapshot(const std::string& path,
                              std::string* error) const {
  cache::Snapshot snapshot;
  snapshot.build = util::build_info();
  snapshot.sections.resize(3);
  snapshot.sections[0].id = kSectionReports;
  reports_.for_each([&](std::uint64_t key, const PerformanceReport& r) {
    cache::Encoder e;
    encode_report(&e, r);
    snapshot.sections[0].records.push_back({key, e.take()});
  });
  snapshot.sections[1].id = kSectionEvals;
  evals_.for_each([&](std::uint64_t key, const OrderedEval& v) {
    cache::Encoder e;
    encode_eval(&e, v);
    snapshot.sections[1].records.push_back({key, e.take()});
  });
  snapshot.sections[2].id = kSectionAux;
  aux_.for_each([&](std::uint64_t key, const std::vector<std::int64_t>& v) {
    cache::Encoder e;
    encode_aux(&e, v);
    snapshot.sections[2].records.push_back({key, e.take()});
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
  std::vector<std::pair<std::uint64_t, PerformanceReport>> reports;
  std::vector<std::pair<std::uint64_t, OrderedEval>> evals;
  std::vector<std::pair<std::uint64_t, std::vector<std::int64_t>>> aux;
  for (const cache::SnapshotSection& section : snapshot.sections) {
    for (const cache::SnapshotRecord& record : section.records) {
      cache::Decoder d(record.payload);
      bool ok = false;
      switch (section.id) {
        case kSectionReports: {
          PerformanceReport r;
          ok = decode_report(&d, &r) && d.at_end();
          if (ok) reports.emplace_back(record.key, std::move(r));
          break;
        }
        case kSectionEvals: {
          OrderedEval v;
          ok = decode_eval(&d, &v) && d.at_end();
          if (ok) evals.emplace_back(record.key, std::move(v));
          break;
        }
        case kSectionAux: {
          std::vector<std::int64_t> v;
          ok = decode_aux(&d, &v) && d.at_end();
          if (ok) aux.emplace_back(record.key, std::move(v));
          break;
        }
        default:
          // Unknown section within a known format version: malformed file
          // (new sections require a format bump), reject it whole.
          ok = false;
          break;
      }
      if (!ok) {
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
  for (const auto& [key, value] : evals) {
    if (evals_.insert(key, value).inserted) ++admitted;
  }
  for (const auto& [key, value] : aux) {
    if (aux_.insert(key, value).inserted) ++admitted;
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
