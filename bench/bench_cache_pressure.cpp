// Cache-pressure benchmark (analysis::EvalCache on cache::ClockCache).
//
// Workload: a hot set of H systems hammered with 75% of the traffic plus a
// one-shot cold tail (every cold access is a distinct system), sized so the
// distinct results total >= 4x the byte budget under test. Three phases:
//
//   unbounded: the historical EvalCache(no budget) runs the trace and
//              establishes the byte high-water mark U and the best-case
//              hit rate (cold one-shots miss in any cache);
//   bounded:   a fresh EvalCache with budget U/4 runs the identical trace.
//              Asserted per step: tracked bytes <= budget (the hard
//              invariant) and the returned report is bit-identical to an
//              uncached analyze_system of the same system. Asserted at the
//              end: the hit rate lands within 5 points of unbounded —
//              clock eviction keeps the hot set resident while the cold
//              tail churns through.
//   warm:      the bounded cache is snapshotted to disk, restored into a
//              fresh bounded cache (a daemon restart), and the hot set is
//              replayed: > 80% of the replays must hit, and every body must
//              be bit-identical to ground truth.
//
// Flags: --smoke (small sizes, used as the bench-smoke CTest entry),
// --hot N, --steps N, --out path (default BENCH_cache.json).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "analysis/eval_cache.h"
#include "analysis/performance.h"
#include "svc/json.h"
#include "sysmodel/builder.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "tmg/csr.h"
#include "util/table.h"

using namespace ermes;

namespace {

// Distinct systems derived from the motivating example: the varied process
// and channel latencies land in the fingerprint, so every index is a
// distinct memo entry with a nontrivial report.
sysmodel::SystemModel variant(std::int64_t i) {
  sysmodel::SystemModel sys = sysmodel::make_dac14_motivating_example();
  sys.set_latency(0, 1 + i);
  sys.set_latency(1, 3 + (i % 13));
  sys.set_channel_latency(0, 1 + (i % 7));
  return sys;
}

// The trace: step -> variant index. Hot indices are [0, hot); cold indices
// ascend from `hot` so every cold access is first-touch in any cache —
// which is what makes the unbounded hit rate a fair target for bounded.
std::vector<std::int64_t> make_trace(int steps, int hot) {
  util::Rng rng(0xCAC4E);
  std::vector<std::int64_t> trace;
  trace.reserve(static_cast<std::size_t>(steps));
  std::int64_t next_cold = hot;
  for (int s = 0; s < steps; ++s) {
    if (rng.flip(0.75)) {
      trace.push_back(static_cast<std::int64_t>(rng.index(
          static_cast<std::size_t>(hot))));
    } else {
      trace.push_back(next_cold++);
    }
  }
  return trace;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  // Sizing invariant: the bounded phase can hold roughly 1/4 of the
  // distinct results (budget U/4, all of it for reports, the memo's only
  // family), and the hot set must be a minority of that capacity or it
  // thrashes. With distinct ~= hot + steps/4, steps = 128 * hot puts the hot
  // set at ~12% of bounded capacity — resident under churn, honest pressure
  // above it.
  int hot = 64;
  int steps = 8192;
  std::string out_path = "BENCH_cache.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--hot") == 0 && i + 1 < argc) {
      hot = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
      steps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  if (smoke) {
    hot = 16;
    steps = 2048;
  }
  if (hot < 2 || steps < 4 * hot) {
    std::fprintf(stderr, "bad sizes (need steps >= 4*hot)\n");
    return 2;
  }

  const std::vector<std::int64_t> trace = make_trace(steps, hot);
  std::printf("bench_cache_pressure: %d hot systems, %d-step trace%s\n", hot,
              steps, smoke ? " [smoke]" : "");

  // Ground truth: one uncached analyze_system per distinct variant.
  std::map<std::int64_t, analysis::PerformanceReport> truth;
  for (const std::int64_t idx : trace) {
    if (truth.find(idx) == truth.end()) {
      truth.emplace(idx, analysis::analyze_system(variant(idx)));
    }
  }

  constexpr std::size_t kShards = 8;
  tmg::CycleMeanSolver solver;  // cache misses solve warm (same topology)

  // Phase 1: unbounded — byte high-water mark and best-case hit rate.
  analysis::EvalCache unbounded(kShards);
  util::Stopwatch sw;
  for (const std::int64_t idx : trace) {
    unbounded.analyze(variant(idx), solver);
  }
  const double unbounded_ms = sw.elapsed_ms();
  const double unbounded_rate = unbounded.hit_rate();
  const std::int64_t workload_bytes = unbounded.bytes();
  const std::int64_t budget = workload_bytes / 4;

  // Phase 2: bounded to a quarter of the workload, identical trace.
  analysis::EvalCache bounded(kShards, budget);
  int mismatches = 0;
  int budget_violations = 0;
  sw.reset();
  for (const std::int64_t idx : trace) {
    const analysis::PerformanceReport report =
        bounded.analyze(variant(idx), solver);
    if (!analysis::reports_bit_identical(report, truth.at(idx))) {
      ++mismatches;
    }
    if (bounded.bytes() > bounded.byte_budget()) ++budget_violations;
  }
  const double bounded_ms = sw.elapsed_ms();
  const double bounded_rate = bounded.hit_rate();
  const double rate_gap = unbounded_rate - bounded_rate;

  // A final pass over the hot set models the traffic a daemon sees just
  // before shutdown: the hot entries are resident when the snapshot lands.
  for (std::int64_t h = 0; h < hot; ++h) bounded.analyze(variant(h), solver);

  // Phase 3: snapshot -> fresh cache (a restart) -> hot replay.
  const std::string snap_path = out_path + ".snap";
  std::string error;
  if (!bounded.save_snapshot(snap_path, &error)) {
    std::fprintf(stderr, "snapshot save failed: %s\n", error.c_str());
    return 1;
  }
  analysis::EvalCache warmed(kShards, budget);
  std::size_t restored = 0;
  if (!warmed.load_snapshot(snap_path, &error, &restored)) {
    std::fprintf(stderr, "snapshot load failed: %s\n", error.c_str());
    return 1;
  }
  int warm_mismatches = 0;
  const std::int64_t warm_hits_before = warmed.hits();
  for (std::int64_t h = 0; h < hot; ++h) {
    if (!analysis::reports_bit_identical(warmed.analyze(variant(h), solver),
                                         truth.at(h))) {
      ++warm_mismatches;
    }
  }
  const double warm_rate =
      static_cast<double>(warmed.hits() - warm_hits_before) /
      static_cast<double>(hot);
  std::remove(snap_path.c_str());

  util::Table table({"configuration", "time (ms)", "hit rate", "bytes",
                     "evictions", "bit-identical"});
  table.add_row({"unbounded", util::format_double(unbounded_ms, 1),
                 util::format_double(unbounded_rate, 3),
                 std::to_string(workload_bytes), "0", "baseline"});
  table.add_row({"bounded (U/4)", util::format_double(bounded_ms, 1),
                 util::format_double(bounded_rate, 3),
                 std::to_string(bounded.bytes()),
                 std::to_string(bounded.evictions()),
                 mismatches == 0 ? "yes" : "NO"});
  std::printf("%s\n", table.to_text(2).c_str());
  std::printf("  warm restart: %zu entries restored, %.0f%% hot replay hits\n",
              restored, warm_rate * 100.0);

  const bool bytes_ok = budget_violations == 0;
  const bool workload_ok = workload_bytes >= 4 * budget;
  const bool identical = mismatches == 0 && warm_mismatches == 0;
  const bool rate_ok = rate_gap <= 0.05;
  const bool warm_ok = warm_rate > 0.8;

  svc::JsonValue report = svc::JsonValue::object();
  report.set("bench", svc::JsonValue::string("cache_pressure"));
  report.set("smoke", svc::JsonValue::boolean(smoke));
  report.set("hot", svc::JsonValue::integer(hot));
  report.set("steps", svc::JsonValue::integer(steps));
  report.set("distinct_systems",
             svc::JsonValue::integer(static_cast<std::int64_t>(truth.size())));
  report.set("workload_bytes", svc::JsonValue::integer(workload_bytes));
  report.set("byte_budget", svc::JsonValue::integer(budget));
  report.set("unbounded_ms", svc::JsonValue::number(unbounded_ms));
  report.set("bounded_ms", svc::JsonValue::number(bounded_ms));
  report.set("unbounded_hit_rate", svc::JsonValue::number(unbounded_rate));
  report.set("bounded_hit_rate", svc::JsonValue::number(bounded_rate));
  report.set("hit_rate_gap", svc::JsonValue::number(rate_gap));
  report.set("gap_tolerance", svc::JsonValue::number(0.05));
  report.set("bounded_bytes", svc::JsonValue::integer(bounded.bytes()));
  report.set("evictions", svc::JsonValue::integer(bounded.evictions()));
  report.set("admission_rejects",
             svc::JsonValue::integer(bounded.admission_rejects()));
  report.set("bytes_within_budget", svc::JsonValue::boolean(bytes_ok));
  report.set("bit_identical", svc::JsonValue::boolean(identical));
  report.set("snapshot_restored",
             svc::JsonValue::integer(static_cast<std::int64_t>(restored)));
  report.set("warm_hit_rate", svc::JsonValue::number(warm_rate));
  report.set("warm_floor", svc::JsonValue::number(0.8));
  report.set("warm_ok", svc::JsonValue::boolean(warm_ok));

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  const std::string json = report.to_string();
  std::fwrite(json.data(), 1, json.size(), out);
  std::fputc('\n', out);
  std::fclose(out);
  std::printf("  report written to %s\n", out_path.c_str());

  if (!bytes_ok || !workload_ok || !identical || !rate_ok || !warm_ok) {
    std::fprintf(stderr,
                 "bench_cache_pressure FAILED: bytes_ok=%d workload_ok=%d "
                 "identical=%d rate_gap=%.3f warm_rate=%.3f\n",
                 bytes_ok, workload_ok, identical, rate_gap, warm_rate);
    return 1;
  }
  std::printf("bench_cache_pressure PASSED\n");
  return 0;
}
