// Solver-core benchmark: warm CSR re-solves vs the legacy oracle's cold path.
//
// Workload: a random strongly connected TMG (a delay ring plus chords; the
// ring-closing place and every chord carry a token, so no zero-token cycle
// exists) whose transition delays mutate every step — the exact shape of the
// analysis hot path in the DSE/sweep/serve loops, where structure is fixed
// and only latencies move. Per step:
//
//   cold:   set_delay + to_ratio_graph + max_cycle_ratio_howard: rebuild
//           the ratio graph, re-run Tarjan and the zero-token screens,
//           re-allocate all solver scratch. The "cold (rebuild + howard)"
//           row is the oracle baseline, not a production path — production
//           runs only the CSR engine;
//   warm:   set_delay + CycleMeanSolver::prepare (weight-only refresh) +
//           solve — the CSR core; the initial compile is outside the timed
//           loop (paid once per structure).
//
// Every step asserts bit-identity of the warm result against the cold one
// (num/den, critical cycle, and the raw double bits). The run fails on any mismatch or when the warm
// speedup falls below 3x — the floor, asserted in --smoke too. Each loop is
// timed as the best of 5 repetitions of the same work (fresh graph, fresh
// solver): load on the machine only ever slows a repetition down, so the
// minimum is the steadiest estimate of the loop's own cost.
//
// Flags: --smoke (small graph, used as the bench-smoke CTest entry), --n N
// (transitions), --steps N, --out path (default BENCH_solver_core.json).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "lp_oracle/howard.h"
#include "svc/json.h"
#include "tmg/csr.h"
#include "tmg/cycle_ratio.h"
#include "tmg/marked_graph.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

using namespace ermes;

namespace {

tmg::MarkedGraph make_tmg(std::int32_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  tmg::MarkedGraph g;
  g.reserve(n, 3 * n);
  for (std::int32_t t = 0; t < n; ++t) {
    g.add_transition(rng.uniform_int(1, 100));
  }
  for (std::int32_t t = 0; t < n; ++t) {
    // The only token-free path segments lie on the ring, and the lone pure
    // ring cycle is closed by a marked place — so every cycle carries a
    // token and the maximum cycle ratio is finite.
    g.add_place(t, (t + 1) % n, /*tokens=*/t == n - 1 ? 1 : 0);
  }
  for (std::int32_t e = 0; e < 2 * n; ++e) {
    const auto from = static_cast<tmg::TransitionId>(
        rng.index(static_cast<std::size_t>(n)));
    const auto to = static_cast<tmg::TransitionId>(
        rng.index(static_cast<std::size_t>(n)));
    g.add_place(from, to, /*tokens=*/1);
  }
  return g;
}

bool bits_equal(double a, double b) {
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

bool results_bit_identical(const tmg::CycleRatioResult& a,
                           const tmg::CycleRatioResult& b) {
  return a.has_cycle == b.has_cycle && bits_equal(a.ratio, b.ratio) &&
         a.ratio_num == b.ratio_num && a.ratio_den == b.ratio_den &&
         a.critical_cycle == b.critical_cycle;
}

struct Mutation {
  tmg::TransitionId transition;
  std::int64_t delay;
};

constexpr int kRepetitions = 5;
// Start of every best-of-kRepetitions minimum.
constexpr double kNoTime = std::numeric_limits<double>::infinity();

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::int32_t n = 2048;
  int steps = 64;
  std::string out_path = "BENCH_solver_core.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      n = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
      steps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  if (smoke) {
    n = 256;
    steps = 24;
  }
  if (n < 4 || steps < 1) {
    std::fprintf(stderr, "bad sizes\n");
    return 2;
  }

  const std::int32_t arcs = 3 * n;
  std::printf("bench_solver_core: %d transitions, %d places, %d "
              "weight-mutation steps%s\n",
              n, arcs, steps, smoke ? " [smoke]" : "");

  // One deterministic mutation sequence, replayed by every engine.
  std::vector<Mutation> mutations;
  mutations.reserve(static_cast<std::size_t>(steps));
  {
    util::Rng rng(0xc5d50c0deULL);
    for (int s = 0; s < steps; ++s) {
      mutations.push_back(
          {static_cast<tmg::TransitionId>(rng.index(static_cast<std::size_t>(n))),
           rng.uniform_int(1, 100)});
    }
  }

  // Cold baseline: ratio-graph rebuild + monolithic Howard per step.
  std::vector<tmg::CycleRatioResult> cold_results;
  cold_results.reserve(mutations.size());
  double cold_ms = kNoTime;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    tmg::MarkedGraph cold_g = make_tmg(n, 42);
    cold_results.clear();
    util::Stopwatch sw;
    for (const Mutation& m : mutations) {
      cold_g.set_delay(m.transition, m.delay);
      const tmg::RatioGraph rg = tmg::to_ratio_graph(cold_g);
      cold_results.push_back(tmg::max_cycle_ratio_howard(rg));
    }
    cold_ms = std::min(cold_ms, sw.elapsed_ms());
  }

  // Warm CSR path: the compile happens once, outside the timed loop; each
  // step is a weight refresh + a canonical-start solve.
  tmg::CycleMeanSolver::Stats stats;
  int mismatches = 0;
  double warm_ms = kNoTime;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    tmg::MarkedGraph warm_g = make_tmg(n, 42);
    tmg::CycleMeanSolver solver;
    solver.prepare(warm_g);
    util::Stopwatch sw;
    for (std::size_t s = 0; s < mutations.size(); ++s) {
      warm_g.set_delay(mutations[s].transition, mutations[s].delay);
      if (!solver.prepare(warm_g)) {
        std::fprintf(stderr, "step %zu: prepare went cold on a warm graph\n",
                     s);
        return 1;
      }
      if (!results_bit_identical(solver.solve(), cold_results[s])) {
        ++mismatches;
      }
    }
    warm_ms = std::min(warm_ms, sw.elapsed_ms());
    stats = solver.stats();
  }

  const double cold_ns = cold_ms * 1e6 / steps;
  const double warm_ns = warm_ms * 1e6 / steps;
  const double speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;

  util::Table table({"engine", "per solve (us)", "speedup", "correct"});
  table.add_row({"cold (rebuild + howard)",
                 util::format_double(cold_ns / 1e3, 2), "1.00", "baseline"});
  table.add_row({"warm (csr refresh + solve)",
                 util::format_double(warm_ns / 1e3, 2),
                 util::format_double(speedup, 2),
                 mismatches == 0 ? "bit-identical" : "MISMATCH"});
  std::printf("%s\n", table.to_text(2).c_str());
  std::printf("  solver: %lld compiles, %lld weight refreshes\n",
              static_cast<long long>(stats.compiles),
              static_cast<long long>(stats.weight_refreshes));

  const bool identical = mismatches == 0;
  const bool fast_enough = speedup >= 3.0;

  svc::JsonValue report = svc::JsonValue::object();
  report.set("name", svc::JsonValue::string("solver_core"));
  report.set("smoke", svc::JsonValue::boolean(smoke));
  report.set("n", svc::JsonValue::integer(n));
  report.set("arcs", svc::JsonValue::integer(arcs));
  report.set("steps", svc::JsonValue::integer(steps));
  report.set("cold_ns", svc::JsonValue::number(cold_ns));
  report.set("warm_ns", svc::JsonValue::number(warm_ns));
  report.set("speedup", svc::JsonValue::number(speedup));
  report.set("speedup_floor", svc::JsonValue::number(3.0));
  report.set("meets_floor", svc::JsonValue::boolean(fast_enough));
  report.set("bit_identical", svc::JsonValue::boolean(identical));
  report.set("compiles", svc::JsonValue::integer(stats.compiles));
  report.set("weight_refreshes",
             svc::JsonValue::integer(stats.weight_refreshes));

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

  if (!identical || !fast_enough) {
    std::fprintf(stderr,
                 "bench_solver_core FAILED: identical=%d speedup=%.2f\n",
                 identical, speedup);
    return 1;
  }
  std::printf("bench_solver_core PASSED\n");
  return 0;
}
