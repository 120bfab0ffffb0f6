// Compiled batch simulation: sim::simulate_batch on one CompiledSim vs k
// serial legacy Kernel runs (model copy + build_kernel + run per scenario —
// the pre-compiled sweep path).
//
// Workload: a generate_soc system (>= 512 processes, feedback loops and
// reconvergent paths included) swept under k >= 64 FIFO-capacity scenarios:
// every scenario re-randomizes each channel's capacity in {rendezvous,
// 1..4 slots}. Capacity only adds slack on top of the live rendezvous base,
// so every scenario terminates by reaching the transfer target rather than
// deadlocking — the run measures steady-state simulation, not bail-outs.
//
// Every scenario asserts bit-identity of the compiled result against the
// legacy Kernel oracle (events, final marking, stall accounting, histogram
// buckets — see sim/compiled.h). The run fails on any mismatch or when the
// batch speedup falls below 4x, asserted in --smoke too. The floor holds
// even single-threaded: the string-free core runs ~2x the kernel's event
// rate, and periodic steady-state detection (BatchOptions::detect_period)
// jumps the periodic bulk of each run in O(state) — deterministic TMG
// orbits recur exactly, so the skipped periods are replayed arithmetically
// without losing bit-identity. The CompiledSim compile sits inside the
// batch timed region; the serial side pays its per-scenario build_kernel
// the same way the old sweep did.
//
// Flags: --smoke (same system and scenario count, smaller transfer target;
// the bench-smoke CTest entry), --procs N, --chans N, --scenarios K,
// --target T (transfers on the observed channel), --jobs N (pool size,
// default: one per hardware thread), --out path (default BENCH_sim.json).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "sim/compiled.h"
#include "svc/json.h"
#include "synth/generator.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

using namespace ermes;

namespace {

// Per-scenario capacity vectors: each channel independently draws a 1..4
// slot FIFO. Latencies stay at the compiled base — this is the FIFO-sizing
// sweep shape, k capacity candidates over one fixed structure. All-FIFO
// keeps every scenario live: the generated SoC's reconvergent skip
// channels deadlock under pure rendezvous (that is what sizing is *for*),
// and capacity is monotone, so >= 1 slot everywhere simulates to the
// transfer target instead of bailing out.
std::vector<sim::SimScenario> make_scenarios(std::int32_t num_channels,
                                             std::int32_t count,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<sim::SimScenario> scenarios(static_cast<std::size_t>(count));
  for (sim::SimScenario& s : scenarios) {
    s.channel_capacity.resize(static_cast<std::size_t>(num_channels));
    for (std::int64_t& cap : s.channel_capacity) {
      cap = rng.uniform_int(1, 4);
    }
  }
  return scenarios;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::int32_t procs = 512;
  std::int32_t chans = 768;
  std::int32_t scenarios = 64;
  std::int64_t target = 300;
  std::int32_t jobs = 0;
  std::string out_path = "BENCH_sim.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--procs") == 0 && i + 1 < argc) {
      procs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--chans") == 0 && i + 1 < argc) {
      chans = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--scenarios") == 0 && i + 1 < argc) {
      scenarios = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--target") == 0 && i + 1 < argc) {
      target = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  if (smoke) {
    // Same structural floor as the full run (the ISSUE's >= 512 processes,
    // >= 64 scenarios), fewer transfers per scenario to fit CI.
    target = 60;
  }
  if (procs < 3 || chans < procs - 1 || scenarios < 2 || target < 1 ||
      jobs < 0 || jobs > 256) {
    std::fprintf(stderr, "bad sizes\n");
    return 2;
  }

  synth::GeneratorConfig config;
  config.num_processes = procs;
  config.num_channels = chans;
  config.seed = 0x51dec0dedULL;
  const sysmodel::SystemModel sys = synth::generate_soc(config);
  const std::vector<sim::SimScenario> sweep = make_scenarios(
      sys.num_channels(), scenarios, /*seed=*/0xf1f0ca95ULL);

  sim::BatchOptions opts;
  opts.target_transfers = target;
  std::printf("bench_sim: %d processes, %d channels, %d capacity scenarios, "
              "target %lld transfers%s\n",
              sys.num_processes(), sys.num_channels(), scenarios,
              static_cast<long long>(target), smoke ? " [smoke]" : "");

  // Serial baseline vs compiled batch. The serial side re-applies the
  // scenario to a model copy and rebuilds the Kernel every time (that IS
  // the baseline's cost model); the batch side compiles once inside its
  // timed region. Deterministic results, so bit-identity checks the last
  // rep. Best-of-reps to shed scheduler noise on the small smoke runs.
  const int reps = smoke ? 3 : 1;
  exec::ThreadPool pool(static_cast<std::size_t>(jobs));
  double serial_ms = 0.0;
  double batch_ms = 0.0;
  std::vector<sim::ScenarioResult> serial_results;
  std::vector<sim::ScenarioResult> batch_results;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<sim::ScenarioResult> rep_serial;
    rep_serial.reserve(sweep.size());
    util::Stopwatch sw;
    for (const sim::SimScenario& s : sweep) {
      rep_serial.push_back(sim::run_legacy_kernel(sys, s, opts));
    }
    const double rep_serial_ms = sw.elapsed_ms();

    sw.reset();
    const sim::CompiledSim compiled(sys);
    std::vector<sim::ScenarioResult> rep_batch =
        sim::simulate_batch(compiled, sweep, opts, &pool);
    const double rep_batch_ms = sw.elapsed_ms();

    if (rep == 0 || rep_serial_ms < serial_ms) serial_ms = rep_serial_ms;
    if (rep == 0 || rep_batch_ms < batch_ms) batch_ms = rep_batch_ms;
    serial_results = std::move(rep_serial);
    batch_results = std::move(rep_batch);
  }

  int mismatches = 0;
  int deadlocks = 0;
  for (std::size_t s = 0; s < sweep.size(); ++s) {
    if (!sim::results_bit_identical(batch_results[s], serial_results[s])) {
      ++mismatches;
    }
    if (batch_results[s].deadlocked) ++deadlocks;
  }

  const double serial_us = serial_ms * 1e3 / scenarios;
  const double batch_us = batch_ms * 1e3 / scenarios;
  const double speedup = batch_ms > 0.0 ? serial_ms / batch_ms : 0.0;

  util::Table table({"engine", "per scenario (ms)", "speedup", "correct"});
  table.add_row({"serial (build_kernel + run)",
                 util::format_double(serial_us / 1e3, 3), "1.00", "baseline"});
  table.add_row({"batch (compile + simulate_batch)",
                 util::format_double(batch_us / 1e3, 3),
                 util::format_double(speedup, 2),
                 mismatches == 0 ? "bit-identical" : "MISMATCH"});
  std::printf("%s\n", table.to_text(2).c_str());
  std::printf("  %zu scenarios on %zu jobs, %d deadlocked\n", sweep.size(),
              pool.jobs(), deadlocks);

  const bool identical = mismatches == 0;
  const bool fast_enough = speedup >= 4.0;

  svc::JsonValue report = svc::JsonValue::object();
  report.set("name", svc::JsonValue::string("sim"));
  report.set("smoke", svc::JsonValue::boolean(smoke));
  report.set("processes", svc::JsonValue::integer(sys.num_processes()));
  report.set("channels", svc::JsonValue::integer(sys.num_channels()));
  report.set("scenarios", svc::JsonValue::integer(scenarios));
  report.set("target_transfers", svc::JsonValue::integer(target));
  report.set("jobs", svc::JsonValue::integer(
                         static_cast<std::int64_t>(pool.jobs())));
  report.set("serial_us", svc::JsonValue::number(serial_us));
  report.set("batch_us", svc::JsonValue::number(batch_us));
  report.set("speedup", svc::JsonValue::number(speedup));
  report.set("speedup_floor", svc::JsonValue::number(4.0));
  report.set("meets_floor", svc::JsonValue::boolean(fast_enough));
  report.set("bit_identical", svc::JsonValue::boolean(identical));
  report.set("deadlocked_scenarios", svc::JsonValue::integer(deadlocks));

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
    std::fprintf(stderr, "bench_sim FAILED: identical=%d speedup=%.2f\n",
                 identical, speedup);
    return 1;
  }
  std::printf("bench_sim PASSED\n");
  return 0;
}
