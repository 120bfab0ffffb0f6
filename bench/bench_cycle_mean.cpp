// A3 — Microbenchmarks of the cycle-time engines: Howard's policy iteration
// (production) vs Lawler's binary search vs Karp vs brute-force enumeration,
// the warm CSR solver core, and the end-to-end analysis pipeline. Quantifies
// why the paper picked Howard's algorithm.
//
// Besides the google-benchmark suite, every run first emits a compact
// cold-vs-warm summary to BENCH_cycle_mean.json (override with --out);
// --json-only stops after that, which is what the bench-smoke CTest entry
// runs. All other flags pass through to google-benchmark.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "analysis/performance.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "ordering/channel_ordering.h"
#include "svc/json.h"
#include "synth/generator.h"
#include "tmg/brute_force.h"
#include "tmg/csr.h"
#include "tmg/howard.h"
#include "tmg/karp.h"
#include "tmg/marked_graph.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace ermes;

namespace {

// A random strongly connected TMG of n transitions: a ring (the place out
// of transition 0 marked, the rest marked at random) plus 2n marked chords,
// so every cycle carries a token.
tmg::MarkedGraph random_tmg(std::int32_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::int64_t> delay(static_cast<std::size_t>(n));
  for (std::int64_t& d : delay) d = rng.uniform_int(1, 100);
  std::vector<tmg::TransitionId> producer, consumer;
  std::vector<std::int64_t> tokens;
  for (std::int32_t i = 0; i < n; ++i) {
    producer.push_back(i);
    consumer.push_back((i + 1) % n);
    tokens.push_back(i == 0 ? 1 : rng.uniform_int(0, 1));
  }
  for (std::int32_t e = 0; e < 2 * n; ++e) {
    producer.push_back(static_cast<tmg::TransitionId>(
        rng.index(static_cast<std::size_t>(n))));
    consumer.push_back(static_cast<tmg::TransitionId>(
        rng.index(static_cast<std::size_t>(n))));
    tokens.push_back(1);
  }
  return tmg::MarkedGraph(std::move(delay), std::move(producer),
                          std::move(consumer), std::move(tokens));
}

// The oracles' input: the ratio graph of random_tmg(n, seed).
tmg::RatioGraph random_ratio_graph(std::int32_t n, std::uint64_t seed) {
  return tmg::to_ratio_graph(random_tmg(n, seed));
}

sysmodel::SystemModel soc_of(std::int32_t processes) {
  synth::GeneratorConfig config;
  config.num_processes = processes;
  config.num_channels = processes * 3 / 2;
  config.feedback_fraction = 0.1;
  config.seed = 7;
  return synth::generate_soc(config);
}

void BM_Howard(benchmark::State& state) {
  const tmg::RatioGraph rg =
      random_ratio_graph(static_cast<std::int32_t>(state.range(0)), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tmg::max_cycle_ratio_howard(rg));
  }
}
BENCHMARK(BM_Howard)->Arg(32)->Arg(256)->Arg(2048)->Arg(16384);

// The CSR solver core on the same workload, warm: the structure is compiled
// once and each iteration is a delay change, a weight refresh and a
// canonical-start solve — bit-identical results without ratio-graph
// construction, Tarjan, or scratch allocation (see tmg/csr.h).
void BM_HowardWarmCsr(benchmark::State& state) {
  tmg::MarkedGraph g =
      random_tmg(static_cast<std::int32_t>(state.range(0)), 11);
  tmg::CycleMeanSolver solver;
  solver.prepare(g);
  util::Rng rng(23);
  for (auto _ : state) {
    g.set_delay(static_cast<tmg::TransitionId>(rng.index(
                    static_cast<std::size_t>(g.num_transitions()))),
                rng.uniform_int(1, 100));
    solver.prepare(g);
    benchmark::DoNotOptimize(solver.solve());
  }
}
BENCHMARK(BM_HowardWarmCsr)->Arg(32)->Arg(256)->Arg(2048)->Arg(16384);

// Same workload with telemetry collection on: quantifies the overhead
// contract (must stay within a few percent of BM_Howard). The span ring is
// shrunk so a long benchmark run cannot grow the event vector unboundedly.
void BM_HowardTelemetry(benchmark::State& state) {
  const tmg::RatioGraph rg =
      random_ratio_graph(static_cast<std::int32_t>(state.range(0)), 11);
  obs::SpanRecorder::global().set_capacity(1 << 10);
  obs::set_enabled(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tmg::max_cycle_ratio_howard(rg));
  }
  obs::set_enabled(false);
  obs::SpanRecorder::global().clear();
  obs::Registry::global().reset();
}
BENCHMARK(BM_HowardTelemetry)->Arg(32)->Arg(256)->Arg(2048)->Arg(16384);

void BM_Lawler(benchmark::State& state) {
  const tmg::RatioGraph rg =
      random_ratio_graph(static_cast<std::int32_t>(state.range(0)), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tmg::max_cycle_ratio_lawler(rg));
  }
}
BENCHMARK(BM_Lawler)->Arg(32)->Arg(256)->Arg(2048);

void BM_Karp(benchmark::State& state) {
  const tmg::RatioGraph rg =
      random_ratio_graph(static_cast<std::int32_t>(state.range(0)), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tmg::max_cycle_mean_karp(rg));
  }
}
BENCHMARK(BM_Karp)->Arg(32)->Arg(256);

void BM_BruteForce(benchmark::State& state) {
  const tmg::RatioGraph rg =
      random_ratio_graph(static_cast<std::int32_t>(state.range(0)), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tmg::max_cycle_ratio_brute_force(rg));
  }
}
BENCHMARK(BM_BruteForce)->Arg(8)->Arg(12);

void BM_AnalyzeSystem(benchmark::State& state) {
  const sysmodel::SystemModel sys =
      soc_of(static_cast<std::int32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::analyze_system(sys));
  }
}
BENCHMARK(BM_AnalyzeSystem)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ChannelOrdering(benchmark::State& state) {
  const sysmodel::SystemModel sys =
      soc_of(static_cast<std::int32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ordering::channel_ordering(sys));
  }
}
BENCHMARK(BM_ChannelOrdering)->Arg(100)->Arg(1000)->Arg(10000);

// Compact cold-vs-warm summary for the CI artifact: one random strongly
// connected TMG, a deterministic delay-mutation loop, per-step
// bit-identity. cold = monolithic max_cycle_ratio_howard per step on the
// ratio graph (its out-arc weights patched in place); warm =
// CycleMeanSolver weight refresh + solve on the TMG (compile outside the
// loop).
bool write_summary_json(const std::string& out_path) {
  const std::int32_t n = 2048;
  const int steps = 48;
  const tmg::MarkedGraph base = random_tmg(n, 11);
  tmg::RatioGraph rg = tmg::to_ratio_graph(base);
  const auto arcs = static_cast<std::int64_t>(base.num_places());

  util::Rng rng(29);
  std::vector<tmg::TransitionId> transition_of(
      static_cast<std::size_t>(steps));
  std::vector<std::int64_t> delay_of(static_cast<std::size_t>(steps));
  for (int s = 0; s < steps; ++s) {
    transition_of[static_cast<std::size_t>(s)] =
        static_cast<tmg::TransitionId>(rng.index(static_cast<std::size_t>(n)));
    delay_of[static_cast<std::size_t>(s)] = rng.uniform_int(1, 100);
  }

  std::vector<tmg::CycleRatioResult> cold(static_cast<std::size_t>(steps));
  util::Stopwatch sw;
  for (int s = 0; s < steps; ++s) {
    for (const tmg::PlaceId p :
         base.out_places(transition_of[static_cast<std::size_t>(s)])) {
      rg.weight[static_cast<std::size_t>(p)] =
          delay_of[static_cast<std::size_t>(s)];
    }
    cold[static_cast<std::size_t>(s)] = tmg::max_cycle_ratio_howard(rg);
  }
  const double cold_ms = sw.elapsed_ms();

  tmg::MarkedGraph warm_g = base;
  tmg::CycleMeanSolver solver;
  solver.prepare(warm_g);
  bool identical = true;
  sw.reset();
  for (int s = 0; s < steps; ++s) {
    warm_g.set_delay(transition_of[static_cast<std::size_t>(s)],
                     delay_of[static_cast<std::size_t>(s)]);
    solver.prepare(warm_g);
    const tmg::CycleRatioResult r = solver.solve();
    const tmg::CycleRatioResult& c = cold[static_cast<std::size_t>(s)];
    identical = identical && r.has_cycle == c.has_cycle &&
                r.ratio_num == c.ratio_num && r.ratio_den == c.ratio_den &&
                r.critical_cycle == c.critical_cycle;
  }
  const double warm_ms = sw.elapsed_ms();

  const double cold_ns = cold_ms * 1e6 / steps;
  const double warm_ns = warm_ms * 1e6 / steps;
  const double speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;

  svc::JsonValue report = svc::JsonValue::object();
  report.set("name", svc::JsonValue::string("cycle_mean"));
  report.set("n", svc::JsonValue::integer(n));
  report.set("arcs", svc::JsonValue::integer(arcs));
  report.set("steps", svc::JsonValue::integer(steps));
  report.set("cold_ns", svc::JsonValue::number(cold_ns));
  report.set("warm_ns", svc::JsonValue::number(warm_ns));
  report.set("speedup", svc::JsonValue::number(speedup));
  report.set("bit_identical", svc::JsonValue::boolean(identical));

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return false;
  }
  const std::string json = report.to_string();
  std::fwrite(json.data(), 1, json.size(), out);
  std::fputc('\n', out);
  std::fclose(out);
  std::printf("cycle_mean summary: cold %.1f us, warm %.1f us, speedup "
              "%.2fx, bit_identical=%d -> %s\n",
              cold_ns / 1e3, warm_ns / 1e3, speedup, identical ? 1 : 0,
              out_path.c_str());
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  bool json_only = false;
  std::string out_path = "BENCH_cycle_mean.json";
  // Strip our own flags before handing the rest to google-benchmark.
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-only") == 0) {
      json_only = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }

  if (!write_summary_json(out_path)) return 1;
  if (json_only) return 0;

  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
