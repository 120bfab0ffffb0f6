// Randomized differential testing of the compiled batch simulator.
//
// The legacy event-heap Kernel is the oracle; sim::CompiledSim must be
// bit-identical to it, step for step, on every instance:
//
//  S1. Random strongly connected systems (a process ring with a primed
//      token carrier, plus random chord channels mixing rendezvous, finite
//      FIFO, and unbounded capacities): the full ScenarioResult — final
//      marking (pc/status/buffered), stall accounting, wait histograms,
//      deadlock cycles, double bits of the measured cycle time — matches
//      run_legacy_kernel exactly.
//  S2. Scenario sweeps: simulate_batch over random latency/capacity weight
//      vectors equals per-scenario legacy runs, serial and on a thread
//      pool, with results in scenario order either way.
//  S3. Sparse timelines: latencies far beyond the calendar wheel horizon
//      route through the overflow heap and stay bit-identical.
//  S4. Instance reuse: one Instance run back-to-back over a scenario list
//      equals a fresh Instance per scenario (reset is complete).
//  S5. Model validation: on live generated SoCs (rendezvous channels, no
//      capacity constraints) the sim-measured steady-state cycle time
//      equals the Howard max cycle mean from analyze_system.
//  S6. Periodic extrapolation: a jumped run equals the full grind and the
//      Kernel, and stores only O(transient + one period) observation times.
//  S7. Compact wait histograms: sides that spill past the inline cells,
//      period jumps on multi-bucket sides, and one Instance reused across
//      scenarios with different bucket sets all match the Kernel.
//
// Failures shrink the offending system (dropping chords, collapsing
// latencies, zeroing capacities) while the divergence persists, then print
// the seed and a compact reconstruction.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/performance.h"
#include "exec/thread_pool.h"
#include "sim/compiled.h"
#include "sim/event_queue.h"
#include "sim/system_sim.h"
#include "synth/generator.h"
#include "sysmodel/system.h"
#include "util/rng.h"

namespace ermes::sim {
namespace {

constexpr std::uint64_t kBaseSeed = 0x51dec0dedULL;

// A value-type recipe for a random system, kept separate from SystemModel
// so the shrinker can edit and rebuild it. Processes form a ring (strong
// connectivity); process 0 is primed, so the ring carries a token; chords
// add reconvergent and feedback structure.
struct SysSpec {
  struct Proc {
    std::int64_t latency = 1;
    bool primed = false;
  };
  struct Chan {
    int src = 0;
    int dst = 0;
    std::int64_t latency = 1;
    std::int64_t capacity = 0;  // sysmodel convention; -1 = unbounded
  };
  std::vector<Proc> procs;
  std::vector<Chan> rings;   // ring channel i: i -> (i+1) % n
  std::vector<Chan> chords;

  sysmodel::SystemModel build() const {
    sysmodel::SystemModel sys;
    for (std::size_t p = 0; p < procs.size(); ++p) {
      sys.add_process("p" + std::to_string(p), procs[p].latency);
      if (procs[p].primed) {
        sys.set_primed(static_cast<sysmodel::ProcessId>(p), true);
      }
    }
    auto add = [&](const Chan& chan, const std::string& name) {
      const sysmodel::ChannelId c =
          sys.add_channel(name, chan.src, chan.dst, chan.latency);
      sys.set_channel_capacity(c, chan.capacity);
    };
    for (std::size_t i = 0; i < rings.size(); ++i) {
      add(rings[i], "r" + std::to_string(i));
    }
    for (std::size_t i = 0; i < chords.size(); ++i) {
      add(chords[i], "x" + std::to_string(i));
    }
    return sys;
  }
};

std::int64_t random_capacity(util::Rng& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0:
    case 1:
    case 2:
      return 0;  // rendezvous (the common case)
    case 3:
      return 1;
    case 4:
      return rng.uniform_int(2, 4);
    default:
      return sysmodel::kUnboundedCapacity;
  }
}

SysSpec random_spec(util::Rng& rng) {
  SysSpec spec;
  const int n = static_cast<int>(rng.uniform_int(2, 8));
  for (int p = 0; p < n; ++p) {
    SysSpec::Proc proc;
    proc.latency = rng.uniform_int(0, 12);
    proc.primed = p == 0 || rng.flip(0.25);
    spec.procs.push_back(proc);
  }
  // Keep at least one nonzero latency: an all-zero system is a pure
  // zero-latency spin and both engines just trip the livelock guard slowly.
  if (spec.procs[0].latency == 0) spec.procs[0].latency = 1;
  for (int i = 0; i < n; ++i) {
    SysSpec::Chan chan;
    chan.src = i;
    chan.dst = (i + 1) % n;
    chan.latency = rng.uniform_int(0, 6);
    chan.capacity = random_capacity(rng);
    spec.rings.push_back(chan);
  }
  const std::int64_t extras = rng.uniform_int(0, n);
  for (std::int64_t e = 0; e < extras; ++e) {
    SysSpec::Chan chan;
    chan.src = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
    do {
      chan.dst = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
    } while (chan.dst == chan.src);
    chan.latency = rng.uniform_int(0, 6);
    chan.capacity = random_capacity(rng);
    spec.chords.push_back(chan);
  }
  return spec;
}

std::string describe(const SysSpec& spec) {
  std::ostringstream os;
  os << "procs (latency/primed):";
  for (std::size_t p = 0; p < spec.procs.size(); ++p) {
    os << " p" << p << "(" << spec.procs[p].latency
       << (spec.procs[p].primed ? ",primed" : "") << ")";
  }
  auto chans = [&](const char* tag, const std::vector<SysSpec::Chan>& list) {
    os << "\n" << tag << ":";
    for (const SysSpec::Chan& c : list) {
      os << " " << c.src << "->" << c.dst << "(lat " << c.latency << ", cap "
         << c.capacity << ")";
    }
  };
  chans("ring", spec.rings);
  chans("chords", spec.chords);
  return os.str();
}

BatchOptions quick_opts() {
  BatchOptions opts;
  opts.target_transfers = 50;
  opts.max_cycles = 500'000;
  return opts;
}

// One compiled run of the base scenario vs the legacy oracle.
bool engines_agree(const SysSpec& spec) {
  const sysmodel::SystemModel sys = spec.build();
  const BatchOptions opts = quick_opts();
  const ScenarioResult oracle = run_legacy_kernel(sys, {}, opts);
  CompiledSim compiled(sys);
  CompiledSim::Instance instance(compiled);
  const ScenarioResult got = instance.run({}, opts);
  return results_bit_identical(oracle, got);
}

// Greedy shrink: drop chords, then collapse latencies and capacities, while
// the failure (predicate returns false) persists.
SysSpec shrink(SysSpec spec, const std::function<bool(const SysSpec&)>& ok) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < spec.chords.size();) {
      SysSpec candidate = spec;
      candidate.chords.erase(candidate.chords.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (!ok(candidate)) {
        spec = std::move(candidate);
        changed = true;
      } else {
        ++i;
      }
    }
    auto try_mutate = [&](const std::function<void(SysSpec&)>& mutate) {
      SysSpec candidate = spec;
      mutate(candidate);
      if (!ok(candidate)) {
        spec = std::move(candidate);
        changed = true;
      }
    };
    for (std::size_t p = 0; p < spec.procs.size(); ++p) {
      if (spec.procs[p].latency > (p == 0 ? 1 : 0)) {
        try_mutate([&](SysSpec& s) { s.procs[p].latency = p == 0 ? 1 : 0; });
      }
    }
    for (std::size_t i = 0; i < spec.rings.size(); ++i) {
      if (spec.rings[i].latency > 0) {
        try_mutate([&](SysSpec& s) { s.rings[i].latency = 0; });
      }
      if (spec.rings[i].capacity != 0) {
        try_mutate([&](SysSpec& s) { s.rings[i].capacity = 0; });
      }
    }
    for (std::size_t i = 0; i < spec.chords.size(); ++i) {
      if (spec.chords[i].latency > 0) {
        try_mutate([&](SysSpec& s) { s.chords[i].latency = 0; });
      }
      if (spec.chords[i].capacity != 0) {
        try_mutate([&](SysSpec& s) { s.chords[i].capacity = 0; });
      }
    }
  }
  return spec;
}

void report_failure(const SysSpec& spec, std::uint64_t seed,
                    const std::function<bool(const SysSpec&)>& ok,
                    const char* what) {
  const SysSpec minimized = shrink(spec, ok);
  FAIL() << what << " (seed 0x" << std::hex << seed << std::dec
         << ")\nminimized system:\n"
         << describe(minimized);
}

// ---- S1: base-scenario differential ----------------------------------------

TEST(CompiledSimDifferentialTest, RandomSystemsMatchLegacyKernel) {
  for (std::uint64_t shard = 0; shard < 60; ++shard) {
    const std::uint64_t seed = kBaseSeed + shard;
    util::Rng rng(seed);
    const SysSpec spec = random_spec(rng);
    if (!engines_agree(spec)) {
      report_failure(spec, seed, engines_agree,
                     "CompiledSim diverged from the legacy Kernel");
      return;
    }
  }
}

// ---- S2: scenario sweeps, serial and pooled ---------------------------------

std::vector<SimScenario> random_scenarios(const sysmodel::SystemModel& sys,
                                          util::Rng& rng, std::size_t k) {
  std::vector<SimScenario> scenarios(k);
  for (SimScenario& s : scenarios) {
    if (rng.flip(0.7)) {
      for (sysmodel::ProcessId p = 0; p < sys.num_processes(); ++p) {
        s.process_latency.push_back(rng.uniform_int(0, 12));
      }
      if (!s.process_latency.empty() && s.process_latency[0] == 0) {
        s.process_latency[0] = 1;
      }
    }
    if (rng.flip(0.7)) {
      for (sysmodel::ChannelId c = 0; c < sys.num_channels(); ++c) {
        s.channel_latency.push_back(rng.uniform_int(0, 6));
      }
    }
    if (rng.flip(0.7)) {
      for (sysmodel::ChannelId c = 0; c < sys.num_channels(); ++c) {
        s.channel_capacity.push_back(random_capacity(rng));
      }
    }
  }
  return scenarios;
}

TEST(CompiledSimDifferentialTest, BatchSweepsMatchLegacyPerScenario) {
  for (std::uint64_t shard = 0; shard < 8; ++shard) {
    const std::uint64_t seed = kBaseSeed ^ (0xba7c4 + shard);
    util::Rng rng(seed);
    const SysSpec spec = random_spec(rng);
    const sysmodel::SystemModel sys = spec.build();
    const std::vector<SimScenario> scenarios = random_scenarios(sys, rng, 12);
    const BatchOptions opts = quick_opts();

    CompiledSim compiled(sys);
    const std::vector<ScenarioResult> serial =
        simulate_batch(compiled, scenarios, opts);
    exec::ThreadPool pool(4);
    const std::vector<ScenarioResult> pooled =
        simulate_batch(compiled, scenarios, opts, &pool);
    ASSERT_EQ(serial.size(), scenarios.size());
    ASSERT_EQ(pooled.size(), scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const ScenarioResult oracle =
          run_legacy_kernel(sys, scenarios[i], opts);
      EXPECT_TRUE(results_bit_identical(oracle, serial[i]))
          << "serial scenario " << i << " diverged (seed 0x" << std::hex
          << seed << std::dec << ")\n"
          << describe(spec);
      EXPECT_TRUE(results_bit_identical(oracle, pooled[i]))
          << "pooled scenario " << i << " diverged (seed 0x" << std::hex
          << seed << std::dec << ")\n"
          << describe(spec);
      if (HasFailure()) return;
    }
  }
}

// ---- S3: sparse timelines exercise the overflow heap ------------------------

TEST(CompiledSimDifferentialTest, SparseTimelinesMatchLegacyKernel) {
  for (std::uint64_t shard = 0; shard < 10; ++shard) {
    const std::uint64_t seed = kBaseSeed ^ (0x5fa45e + shard);
    util::Rng rng(seed);
    SysSpec spec = random_spec(rng);
    // Blow several latencies far past the 65536-bucket wheel horizon so
    // events overflow into the binary heap and migrate back.
    for (SysSpec::Proc& p : spec.procs) {
      if (rng.flip(0.4)) p.latency = rng.uniform_int(100'000, 2'000'000);
    }
    for (SysSpec::Chan& c : spec.rings) {
      if (rng.flip(0.4)) c.latency = rng.uniform_int(100'000, 2'000'000);
    }
    auto agree = [](const SysSpec& s) {
      const sysmodel::SystemModel sys = s.build();
      BatchOptions opts;
      opts.target_transfers = 8;
      opts.max_cycles = 500'000'000;
      const ScenarioResult oracle = run_legacy_kernel(sys, {}, opts);
      CompiledSim compiled(sys);
      CompiledSim::Instance instance(compiled);
      return results_bit_identical(oracle, instance.run({}, opts));
    };
    if (!agree(spec)) {
      report_failure(spec, seed, agree,
                     "sparse-timeline run diverged from the legacy Kernel");
      return;
    }
  }
}

// ---- S4: instance reuse is a complete reset ---------------------------------

TEST(CompiledSimDifferentialTest, InstanceReuseMatchesFreshInstances) {
  const std::uint64_t seed = kBaseSeed ^ 0x4e05e;
  util::Rng rng(seed);
  const SysSpec spec = random_spec(rng);
  const sysmodel::SystemModel sys = spec.build();
  const std::vector<SimScenario> scenarios = random_scenarios(sys, rng, 10);
  const BatchOptions opts = quick_opts();

  CompiledSim compiled(sys);
  CompiledSim::Instance reused(compiled);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    CompiledSim::Instance fresh(compiled);
    const ScenarioResult a = reused.run(scenarios[i], opts);
    const ScenarioResult b = fresh.run(scenarios[i], opts);
    EXPECT_TRUE(results_bit_identical(a, b))
        << "instance reuse leaked state into scenario " << i << " (seed 0x"
        << std::hex << seed << std::dec << ")";
  }
}

// ---- S5: sim-measured throughput == Howard MCM on live graphs ---------------

TEST(CompiledSimDifferentialTest, MeasuredCycleTimeMatchesHowardOnLiveSoCs) {
  for (std::uint64_t shard = 0; shard < 6; ++shard) {
    synth::GeneratorConfig config;
    config.num_processes = 24;
    config.num_channels = 36;
    config.max_channel_latency = 16;
    config.max_process_latency = 16;
    config.seed = kBaseSeed + 977 * shard;
    const sysmodel::SystemModel sys = synth::generate_soc(config);
    const analysis::PerformanceReport report = analysis::analyze_system(sys);
    ASSERT_TRUE(report.live) << "generator must produce live systems";

    BatchOptions opts;
    opts.target_transfers = 400;
    CompiledSim compiled(sys);
    CompiledSim::Instance instance(compiled);
    const ScenarioResult run = instance.run({}, opts);
    ASSERT_FALSE(run.deadlocked);
    EXPECT_NEAR(run.measured_cycle_time, report.cycle_time, 1e-9)
        << "seed " << config.seed;
    // And the compiled run itself must still match the oracle.
    EXPECT_TRUE(
        results_bit_identical(run_legacy_kernel(sys, {}, opts), run))
        << "seed " << config.seed;
  }
}

// ---- S6: periodic extrapolation is exact ------------------------------------

// Long-horizon runs force the steady-state detector to engage (thousands of
// observations over a handful of periods); the jumped result must equal
// both the full compiled grind (detect_period off) and the legacy Kernel,
// bit for bit — counters, histograms, and the estimate_period doubles that
// hang off the replayed observation times.
TEST(CompiledSimDifferentialTest, PeriodExtrapolationIsExact) {
  for (std::uint64_t shard = 0; shard < 12; ++shard) {
    const std::uint64_t seed = kBaseSeed ^ (0x9e210d + shard);
    util::Rng rng(seed);
    const SysSpec spec = random_spec(rng);
    const sysmodel::SystemModel sys = spec.build();
    BatchOptions opts;
    opts.target_transfers = 5000;
    opts.max_cycles = 5'000'000;
    BatchOptions grind = opts;
    grind.detect_period = false;

    CompiledSim compiled(sys);
    CompiledSim::Instance instance(compiled);
    const ScenarioResult jumped = instance.run({}, opts);
    const ScenarioResult ground = instance.run({}, grind);
    EXPECT_TRUE(results_bit_identical(jumped, ground))
        << "period jump diverged from the full compiled run (seed 0x"
        << std::hex << seed << std::dec << ")\n"
        << describe(spec);
    EXPECT_TRUE(results_bit_identical(run_legacy_kernel(sys, {}, opts), jumped))
        << "period jump diverged from the legacy Kernel (seed 0x" << std::hex
        << seed << std::dec << ")\n"
        << describe(spec);
    if (HasFailure()) return;
  }
}

// The same specs at a target 10x larger: the jump skips almost every
// observation, and the run keeps only the transient, one period and the
// tail in memory, yet every field — measured_cycle_time included — equals
// the full grind bit for bit.
TEST(CompiledSimDifferentialTest, PeriodJumpAtLargeTargetStoresOnePeriod) {
  for (std::uint64_t shard = 0; shard < 12; ++shard) {
    const std::uint64_t seed = kBaseSeed ^ (0x9e210d + shard);
    util::Rng rng(seed);
    const SysSpec spec = random_spec(rng);
    const sysmodel::SystemModel sys = spec.build();
    BatchOptions opts;
    opts.target_transfers = 50'000;
    opts.max_cycles = 1'000'000'000;
    BatchOptions grind = opts;
    grind.detect_period = false;

    CompiledSim compiled(sys);
    CompiledSim::Instance instance(compiled);
    const ScenarioResult ground = instance.run({}, grind);
    EXPECT_EQ(instance.observations_stored(),
              static_cast<std::size_t>(ground.observed_count));
    const ScenarioResult jumped = instance.run({}, opts);
    EXPECT_TRUE(results_bit_identical(jumped, ground))
        << "period jump diverged from the full compiled run (seed 0x"
        << std::hex << seed << std::dec << ")\n"
        << describe(spec);
    if (jumped.observed_count == opts.target_transfers) {
      EXPECT_LT(instance.observations_stored(), 2'000u)
          << "seed 0x" << std::hex << seed << std::dec;
    }
    if (HasFailure()) return;
  }
}

// ---- S7: compact wait histograms --------------------------------------------

bool same_histogram(const obs::HistogramData& a, const obs::HistogramData& b) {
  return a.count == b.count && a.sum == b.sum && a.min == b.min &&
         a.max == b.max && a.buckets == b.buckets;
}

std::size_t buckets_used(const obs::HistogramData& h) {
  std::size_t used = 0;
  for (const std::int64_t n : h.buckets) used += n != 0 ? 1 : 0;
  return used;
}

TEST(WaitHistogramsTest, DenseFormMatchesHistogramData) {
  // Channel 0's put side hits eight buckets (it spills on the fourth);
  // its get side and channel 1 stay inside the inline cells.
  const std::vector<std::int64_t> spread = {0, 3, 3, 1, 9, 100, 0, 5000, 2,
                                            std::int64_t{1} << 40, 7};
  const std::vector<std::int64_t> narrow = {4, 5, 6, 0, 4};
  WaitHistograms waits;
  waits.reset(2);
  obs::HistogramData put, get, other;
  for (const std::int64_t v : spread) {
    waits.observe(0, WaitHistograms::kPut, v);
    put.observe(v);
  }
  for (const std::int64_t v : narrow) {
    waits.observe(0, WaitHistograms::kGet, v);
    get.observe(v);
    waits.observe(1, WaitHistograms::kPut, v + 1);
    other.observe(v + 1);
  }
  EXPECT_EQ(buckets_used(put), 8u);
  EXPECT_EQ(waits.spilled(), 1u);
  EXPECT_TRUE(same_histogram(waits.dense(0, WaitHistograms::kPut), put));
  EXPECT_TRUE(same_histogram(waits.dense(0, WaitHistograms::kGet), get));
  EXPECT_TRUE(same_histogram(waits.dense(1, WaitHistograms::kPut), other));
  EXPECT_TRUE(same_histogram(waits.dense(1, WaitHistograms::kGet),
                             obs::HistogramData{}));

  // assign() takes the dense form back, spilled or inline.
  WaitHistograms copy;
  copy.reset(2);
  copy.assign(0, WaitHistograms::kPut, put);
  copy.assign(0, WaitHistograms::kGet, get);
  copy.assign(1, WaitHistograms::kPut, other);
  EXPECT_EQ(copy.spilled(), 1u);
  EXPECT_TRUE(same_histogram(copy.dense(0, WaitHistograms::kPut), put));
  EXPECT_TRUE(same_histogram(copy.dense(0, WaitHistograms::kGet), get));
  EXPECT_TRUE(same_histogram(copy.dense(1, WaitHistograms::kPut), other));

  // reset() empties every side and the overflow store.
  waits.reset(1);
  EXPECT_EQ(waits.num_channels(), 1u);
  EXPECT_EQ(waits.spilled(), 0u);
  EXPECT_TRUE(same_histogram(waits.dense(0, WaitHistograms::kPut),
                             obs::HistogramData{}));
}

// extrapolate(start, n) after one period must equal observing that period
// n more times, whether a side was inline throughout, spills inside the
// period, or had spilled before it began.
TEST(WaitHistogramsTest, ExtrapolateEqualsRepeatedPeriods) {
  struct Case {
    std::vector<std::int64_t> transient;
    std::vector<std::int64_t> period;
  };
  const std::vector<Case> cases = {
      {{0, 1}, {2, 2, 0}},                    // inline throughout
      {{0, 1, 2}, {40, 1, 300}},              // spills inside the period
      {{0, 1, 2, 8, 64}, {64, 3, 0}},         // spilled before the period
      {{5}, {}},                              // idle during the period
      {{}, {7, 900, 7, 1, 0, 20000, 33}},     // spills within one period
  };
  const std::int64_t n = 1000;
  const auto c_count = static_cast<std::size_t>(cases.size());
  WaitHistograms waits;
  waits.reset(c_count);
  std::vector<obs::HistogramData> expect(c_count);
  for (std::size_t c = 0; c < c_count; ++c) {
    for (const std::int64_t v : cases[c].transient) {
      waits.observe(static_cast<SimChannelId>(c), WaitHistograms::kGet, v);
      expect[c].observe(v);
    }
  }
  const WaitHistograms start = waits;
  for (std::size_t c = 0; c < c_count; ++c) {
    for (std::int64_t rep = 0; rep <= n; ++rep) {
      for (const std::int64_t v : cases[c].period) {
        if (rep == 0) {
          waits.observe(static_cast<SimChannelId>(c), WaitHistograms::kGet, v);
        }
        expect[c].observe(v);
      }
    }
  }
  waits.extrapolate(start, n);
  for (std::size_t c = 0; c < c_count; ++c) {
    EXPECT_TRUE(same_histogram(
        waits.dense(static_cast<SimChannelId>(c), WaitHistograms::kGet),
        expect[c]))
        << "case " << c;
    EXPECT_TRUE(same_histogram(
        waits.dense(static_cast<SimChannelId>(c), WaitHistograms::kPut),
        obs::HistogramData{}))
        << "case " << c;
  }
}

// Generated SoCs (feedback relays, reconvergent paths, latencies 1-64)
// settle into multi-token K-periodic schedules: like the 10k-process flow
// model, most sides hit one or two buckets, and a few spill past the
// inline cells.
sysmodel::SystemModel generated_soc(std::int32_t processes,
                                    std::uint64_t seed) {
  synth::GeneratorConfig config;
  config.num_processes = processes;
  config.num_channels = processes * 3 / 2;
  config.seed = seed;
  return synth::generate_soc(config);
}

TEST(CompiledSimDifferentialTest, SpilledWaitHistogramsMatchLegacyKernel) {
  int spilled_runs = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const sysmodel::SystemModel sys = generated_soc(48, seed);
    BatchOptions opts;
    opts.target_transfers = 400;
    CompiledSim compiled(sys);
    CompiledSim::Instance instance(compiled);
    const ScenarioResult got = instance.run({}, opts);
    EXPECT_TRUE(results_bit_identical(run_legacy_kernel(sys, {}, opts), got))
        << "generated SoC seed " << seed << " diverged from the Kernel";
    if (got.waits.spilled() > 0) ++spilled_runs;
  }
  EXPECT_GE(spilled_runs, 3) << "the corpus no longer exercises the spill";
}

TEST(CompiledSimDifferentialTest, PeriodJumpsOnMultiBucketChannelsAreExact) {
  int multi_bucket_jumps = 0;
  for (const std::int32_t processes : {24, 48}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const sysmodel::SystemModel sys = generated_soc(processes, seed);
      BatchOptions opts;
      opts.target_transfers = 1000;
      BatchOptions grind = opts;
      grind.detect_period = false;

      CompiledSim compiled(sys);
      CompiledSim::Instance instance(compiled);
      const ScenarioResult jumped = instance.run({}, opts);
      const bool jump_taken =
          instance.observations_stored() <
          static_cast<std::size_t>(jumped.observed_count);
      EXPECT_TRUE(results_bit_identical(jumped, instance.run({}, grind)))
          << processes << "-process SoC seed " << seed
          << ": period jump diverged from the full compiled run";
      EXPECT_TRUE(
          results_bit_identical(run_legacy_kernel(sys, {}, opts), jumped))
          << processes << "-process SoC seed " << seed
          << ": period jump diverged from the legacy Kernel";
      if (HasFailure()) return;
      // A side whose steady state spans several buckets: at least two
      // buckets each hold a tenth of the side's episodes.
      bool multi_bucket = false;
      for (SimChannelId c = 0; c < compiled.num_channels(); ++c) {
        for (const auto side : {WaitHistograms::kPut, WaitHistograms::kGet}) {
          const obs::HistogramData h = jumped.waits.dense(c, side);
          std::size_t heavy = 0;
          for (const std::int64_t n : h.buckets) {
            heavy += n > 0 && n >= h.count / 10 ? 1 : 0;
          }
          multi_bucket = multi_bucket || heavy >= 2;
        }
      }
      if (jump_taken && multi_bucket) ++multi_bucket_jumps;
    }
  }
  EXPECT_GE(multi_bucket_jumps, 2)
      << "the corpus no longer jumps over multi-bucket steady states";
}

TEST(CompiledSimDifferentialTest, InstanceReuseAcrossDifferentBucketSets) {
  const sysmodel::SystemModel sys = generated_soc(96, 5);
  // Alternate the generated latencies (waits over up to seven buckets)
  // with uniform ones (unit latencies keep every side inline).
  std::vector<SimScenario> scenarios(6);
  for (std::size_t i = 1; i < scenarios.size(); i += 2) {
    scenarios[i].process_latency.assign(
        static_cast<std::size_t>(sys.num_processes()),
        static_cast<std::int64_t>(i));
    scenarios[i].channel_latency.assign(
        static_cast<std::size_t>(sys.num_channels()), i == 3 ? 0 : 1);
  }
  BatchOptions opts;
  opts.target_transfers = 400;

  CompiledSim compiled(sys);
  CompiledSim::Instance reused(compiled);
  std::vector<std::size_t> spills;
  std::vector<std::vector<std::size_t>> bucket_sets;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const ScenarioResult a = reused.run(scenarios[i], opts);
    CompiledSim::Instance fresh(compiled);
    EXPECT_TRUE(results_bit_identical(a, fresh.run(scenarios[i], opts)))
        << "instance reuse leaked state into scenario " << i;
    EXPECT_TRUE(
        results_bit_identical(run_legacy_kernel(sys, scenarios[i], opts), a))
        << "scenario " << i << " diverged from the legacy Kernel";
    spills.push_back(a.waits.spilled());
    std::vector<std::size_t> used;
    for (SimChannelId c = 0; c < compiled.num_channels(); ++c) {
      for (const auto side : {WaitHistograms::kPut, WaitHistograms::kGet}) {
        used.push_back(buckets_used(a.waits.dense(c, side)));
      }
    }
    bucket_sets.push_back(std::move(used));
  }
  // Spilled, then all inline, then spilled again on the reused Instance.
  EXPECT_GT(spills[0], 0u);
  EXPECT_EQ(spills[1], 0u);
  EXPECT_GT(spills[2], 0u);
  for (std::size_t i = 1; i < scenarios.size(); ++i) {
    EXPECT_NE(bucket_sets[i - 1], bucket_sets[i]) << "scenario " << i;
  }
}

// ---- calendar queue unit coverage -------------------------------------------

TEST(CalendarQueueTest, OrdersAcrossWheelAndOverflow) {
  CalendarQueue queue;
  queue.configure(/*max_latency=*/100, /*expected_events=*/8);
  // In-window, beyond-horizon (overflow), and same-instant events.
  queue.push(5, 42);
  queue.push(1'000'000, 7);   // overflow
  queue.push(5, 40);
  queue.push(70'000, 9);      // overflow (past the 65536-capped wheel)
  queue.push(130, 3);

  EXPECT_EQ(queue.size(), 5u);
  std::vector<std::uint32_t> out;
  ASSERT_EQ(queue.next_time(), 5);
  queue.pop_at(5, out);
  ASSERT_EQ(out.size(), 2u);  // both instant-5 events, unsorted
  EXPECT_TRUE((out[0] == 40 && out[1] == 42) || (out[0] == 42 && out[1] == 40));

  out.clear();
  ASSERT_EQ(queue.next_time(), 130);
  queue.pop_at(130, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 3u);

  // Pushing after a drain lands relative to the advanced window.
  queue.push(131, 11);
  out.clear();
  ASSERT_EQ(queue.next_time(), 131);
  queue.pop_at(131, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 11u);

  out.clear();
  ASSERT_EQ(queue.next_time(), 70'000);
  queue.pop_at(70'000, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 9u);

  out.clear();
  ASSERT_EQ(queue.next_time(), 1'000'000);
  queue.pop_at(1'000'000, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 7u);
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace ermes::sim
