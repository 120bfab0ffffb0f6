// Unit tests for the execution layer: the fixed-worker thread pool
// (src/exec/thread_pool.h) and the memoized evaluation cache
// (src/analysis/eval_cache.h).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/eval_cache.h"
#include "analysis/performance.h"
#include "exec/thread_pool.h"
#include "sysmodel/system.h"
#include "tmg/csr.h"

namespace ermes {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, HardwareJobsIsPositive) {
  EXPECT_GE(exec::hardware_jobs(), 1u);
}

TEST(ThreadPool, JobsCountsCallerPlusWorkers) {
  EXPECT_EQ(exec::ThreadPool(1).jobs(), 1u);
  EXPECT_EQ(exec::ThreadPool(4).jobs(), 4u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  exec::ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelMapIsDeterministicallyOrdered) {
  exec::ThreadPool pool(4);
  const std::vector<std::int64_t> out = pool.parallel_map<std::int64_t>(
      512, [](std::size_t i) { return static_cast<std::int64_t>(i * i); });
  ASSERT_EQ(out.size(), 512u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<std::int64_t>(i * i));
  }
}

TEST(ThreadPool, SerialPoolMatchesParallelPool) {
  exec::ThreadPool serial(1);
  exec::ThreadPool parallel(4);
  const auto fn = [](std::size_t i) {
    return static_cast<std::int64_t>(3 * i + 7);
  };
  EXPECT_EQ(serial.parallel_map<std::int64_t>(100, fn),
            parallel.parallel_map<std::int64_t>(100, fn));
}

TEST(ThreadPool, ZeroIterationsIsANoOp) {
  exec::ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_TRUE(pool.parallel_map<int>(0, [](std::size_t) { return 1; }).empty());
}

TEST(ThreadPool, SingleIterationRunsInline) {
  exec::ThreadPool pool(4);
  const std::vector<int> out =
      pool.parallel_map<int>(1, [](std::size_t) { return 42; });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 42);
}

TEST(ThreadPool, RethrowsLowestIndexedFailure) {
  // With grain=1, chunk index == iteration index, so the contract pins the
  // observed exception to the lowest failing iteration at any worker count.
  exec::ThreadPool pool(4);
  const auto run = [&] {
    pool.parallel_for(
        64,
        [](std::size_t i) {
          if (i == 11 || i == 13 || i == 60) {
            throw std::runtime_error("failed at " + std::to_string(i));
          }
        },
        /*grain=*/1);
  };
  try {
    run();
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "failed at 11");
  }
}

TEST(ThreadPool, ExceptionDoesNotPoisonThePool) {
  exec::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(
                   8, [](std::size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  // The pool must remain fully usable after a failed batch.
  const std::vector<int> out =
      pool.parallel_map<int>(32, [](std::size_t i) { return int(i) + 1; });
  EXPECT_EQ(out[31], 32);
}

TEST(ThreadPool, NestedSubmitIsRejected) {
  exec::ThreadPool pool(4);
  std::atomic<int> caught{0};
  pool.parallel_for(8, [&](std::size_t) {
    try {
      pool.parallel_for(2, [](std::size_t) {});
    } catch (const std::logic_error&) {
      caught.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(caught.load(), 8);
}

TEST(ThreadPool, NestedSubmitIsRejectedOnSerialPoolToo) {
  // jobs=1 runs inline but must enforce the same contract, so code that is
  // wrong at jobs=N fails identically at jobs=1.
  exec::ThreadPool pool(1);
  EXPECT_THROW(
      pool.parallel_for(2, [&](std::size_t) { pool.parallel_for(1, [](std::size_t) {}); }),
      std::logic_error);
}

TEST(ThreadPool, SubmittingToADifferentPoolFromATaskIsAllowed) {
  // Only *self*-submission deadlocks a fixed-worker pool; an inner, distinct
  // pool (e.g. sweep-over-explorations, each exploring serially) is legal.
  exec::ThreadPool outer(2);
  std::atomic<int> total{0};
  outer.parallel_for(4, [&](std::size_t) {
    exec::ThreadPool inner(1);
    inner.parallel_for(3, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 12);
}

// ---------------------------------------------------------------------------
// EvalCache

// A small live system with a feedback loop: src -> a -> b -> src.
sysmodel::SystemModel make_ring_system() {
  sysmodel::SystemModel sys;
  const auto src = sys.add_process("src", 4);
  const auto a = sys.add_process("a", 7);
  const auto b = sys.add_process("b", 5);
  sys.add_channel("c0", src, a, 2);
  sys.add_channel("c1", a, b, 3);
  sys.add_channel("c2", b, src, 1);
  sys.set_primed(src, true);  // breaks the token-free loop
  return sys;
}

TEST(EvalCache, HitAndMissAccounting) {
  analysis::EvalCache cache;
  tmg::CycleMeanSolver solver;
  const sysmodel::SystemModel sys = make_ring_system();
  const analysis::PerformanceReport first = cache.analyze(sys, solver);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.size(), 1u);
  const analysis::PerformanceReport second = cache.analyze(sys, solver);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
  EXPECT_EQ(first.cycle_time, second.cycle_time);
  EXPECT_EQ(first.live, second.live);
  EXPECT_EQ(first.critical_processes, second.critical_processes);
}

TEST(EvalCache, CachedReportMatchesUncachedAnalysis) {
  analysis::EvalCache cache;
  tmg::CycleMeanSolver solver;
  const sysmodel::SystemModel sys = make_ring_system();
  cache.analyze(sys, solver);  // populate
  const analysis::PerformanceReport cached = cache.analyze(sys, solver);
  const analysis::PerformanceReport plain = analysis::analyze_system(sys);
  EXPECT_EQ(cached.cycle_time, plain.cycle_time);
  EXPECT_EQ(cached.ct_num, plain.ct_num);
  EXPECT_EQ(cached.ct_den, plain.ct_den);
  EXPECT_EQ(cached.live, plain.live);
  EXPECT_EQ(cached.critical_processes, plain.critical_processes);
}

TEST(EvalCache, FingerprintSeparatesNearIdenticalSystems) {
  // Every TMG-relevant mutation must move the fingerprint; a collision here
  // would silently serve a wrong report in release builds.
  const sysmodel::SystemModel base = make_ring_system();
  std::set<std::uint64_t> prints;
  prints.insert(analysis::system_fingerprint(base));

  {  // swap the latencies of two processes (same multiset of latencies)
    sysmodel::SystemModel sys = base;
    const std::int64_t la = sys.latency(1), lb = sys.latency(2);
    sys.set_latency(1, lb);
    sys.set_latency(2, la);
    prints.insert(analysis::system_fingerprint(sys));
  }
  {  // move latency between a process and its channel (same cycle sums)
    sysmodel::SystemModel sys = base;
    sys.set_latency(1, sys.latency(1) - 1);
    sys.set_channel_latency(1, sys.channel_latency(1) + 1);
    prints.insert(analysis::system_fingerprint(sys));
  }
  {  // capacity change
    sysmodel::SystemModel sys = base;
    sys.set_channel_capacity(0, 2);
    prints.insert(analysis::system_fingerprint(sys));
  }
  {  // marking change
    sysmodel::SystemModel sys = base;
    sys.set_primed(1, true);
    prints.insert(analysis::system_fingerprint(sys));
  }
  {  // permuted get order
    sysmodel::SystemModel sys = base;
    const auto extra = sys.add_channel("c3", 1, 0, 1);
    sysmodel::SystemModel swapped = sys;
    std::vector<sysmodel::ChannelId> order = swapped.input_order(0);
    std::swap(order.front(), order.back());
    swapped.set_input_order(0, order);
    prints.insert(analysis::system_fingerprint(sys));
    prints.insert(analysis::system_fingerprint(swapped));
    (void)extra;
  }
  EXPECT_EQ(prints.size(), 7u) << "fingerprint collision between "
                                  "near-identical systems";
}

TEST(EvalCache, NamesAndAreasDoNotAffectTheFingerprint) {
  sysmodel::SystemModel a = make_ring_system();
  sysmodel::SystemModel b;
  const auto p0 = b.add_process("renamed0", 4, /*area=*/123.0);
  const auto p1 = b.add_process("renamed1", 7, /*area=*/4.5);
  const auto p2 = b.add_process("renamed2", 5);
  b.add_channel("x0", p0, p1, 2);
  b.add_channel("x1", p1, p2, 3);
  b.add_channel("x2", p2, p0, 1);
  b.set_primed(p0, true);
  EXPECT_EQ(analysis::system_fingerprint(a), analysis::system_fingerprint(b));
}

TEST(EvalCache, MarkingChangeIsReanalyzedNotServedStale) {
  analysis::EvalCache cache;
  tmg::CycleMeanSolver solver;
  sysmodel::SystemModel sys = make_ring_system();
  const analysis::PerformanceReport live_report = cache.analyze(sys, solver);
  EXPECT_TRUE(live_report.live);
  sys.set_primed(0, false);  // token-free feedback loop -> deadlock
  const analysis::PerformanceReport dead_report = cache.analyze(sys, solver);
  EXPECT_FALSE(dead_report.live);
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(EvalCache, LookupInsertRoundtripAndClear) {
  analysis::EvalCache cache;
  const sysmodel::SystemModel sys = make_ring_system();
  const std::uint64_t fp = analysis::system_fingerprint(sys);
  analysis::PerformanceReport out;
  EXPECT_FALSE(cache.lookup(fp, &out));
  cache.insert(fp, analysis::analyze_system(sys));
  EXPECT_TRUE(cache.lookup(fp, &out));
  EXPECT_TRUE(out.live);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(fp, &out));
  EXPECT_EQ(cache.hits(), 1);   // statistics survive clear()
  EXPECT_EQ(cache.misses(), 2);
}

TEST(EvalCache, ConcurrentAnalyzeIsRaceFreeAndConsistent) {
  // Hammer one shared cache from many tasks over a handful of distinct
  // systems (this is the TSan target): every returned report must equal the
  // uncached analysis of its system.
  std::vector<sysmodel::SystemModel> variants;
  for (int v = 0; v < 8; ++v) {
    sysmodel::SystemModel sys = make_ring_system();
    sys.set_latency(1, 7 + v);
    variants.push_back(std::move(sys));
  }
  std::vector<analysis::PerformanceReport> expected;
  expected.reserve(variants.size());
  for (const auto& sys : variants) {
    expected.push_back(analysis::analyze_system(sys));
  }

  analysis::EvalCache cache;
  exec::ThreadPool pool(4);
  constexpr std::size_t kTasks = 256;
  std::atomic<int> mismatches{0};
  pool.parallel_for(
      kTasks,
      [&](std::size_t i) {
        const std::size_t v = i % variants.size();
        tmg::CycleMeanSolver solver;  // solvers are per task, not shared
        const analysis::PerformanceReport got =
            cache.analyze(variants[v], solver);
        if (got.cycle_time != expected[v].cycle_time ||
            got.live != expected[v].live ||
            got.critical_processes != expected[v].critical_processes) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      },
      /*grain=*/1);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache.size(), variants.size());
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::int64_t>(kTasks));
}

// ---- submit(): fire-and-forget task queue ------------------------------------

namespace {

// Polls until `done` reaches `expected` or ~5 s pass (workers have no join
// API by design; the service layer waits on its own counters).
void wait_for_count(const std::atomic<int>& done, int expected) {
  for (int spins = 0; spins < 5000 && done.load() < expected; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

TEST(ThreadPoolSubmit, RunsEveryTask) {
  exec::ThreadPool pool(4);
  std::atomic<int> done{0};
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  wait_for_count(done, kTasks);
  EXPECT_EQ(done.load(), kTasks);
  EXPECT_EQ(pool.pending_tasks(), 0u);
}

TEST(ThreadPoolSubmit, InlineWhenPoolHasNoWorkers) {
  exec::ThreadPool pool(1);
  std::atomic<int> done{0};
  pool.submit([&done] { done.fetch_add(1); });
  // jobs <= 1 means zero workers: the task ran inline, synchronously.
  EXPECT_EQ(done.load(), 1);
}

TEST(ThreadPoolSubmit, ThrowingTaskDoesNotKillWorkers) {
  exec::ThreadPool pool(2);
  std::atomic<int> done{0};
  pool.submit([] { throw std::runtime_error("task boom"); });
  pool.submit([&done] { done.fetch_add(1); });
  wait_for_count(done, 1);
  EXPECT_EQ(done.load(), 1);
}

TEST(ThreadPoolSubmit, NestedSubmitIsRejected) {
  exec::ThreadPool pool(2);
  std::atomic<bool> rejected{false};
  std::atomic<int> done{0};
  pool.submit([&] {
    try {
      pool.submit([] {});
    } catch (const std::logic_error&) {
      rejected.store(true);
    }
    done.fetch_add(1);
  });
  wait_for_count(done, 1);
  EXPECT_TRUE(rejected.load());
}

TEST(ThreadPoolSubmit, CoexistsWithParallelFor) {
  // Batches and tasks share the workers; interleaving them must lose
  // neither. The service serves requests (tasks) whose bodies run
  // parallel_for elsewhere, so this mix is the production shape.
  exec::ThreadPool pool(4);
  std::atomic<int> task_done{0};
  std::atomic<int> iter_done{0};
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 8; ++i) {
      pool.submit([&task_done] { task_done.fetch_add(1); });
    }
    pool.parallel_for(
        64, [&iter_done](std::size_t) { iter_done.fetch_add(1); },
        /*grain=*/4);
  }
  wait_for_count(task_done, 80);
  EXPECT_EQ(task_done.load(), 80);
  EXPECT_EQ(iter_done.load(), 640);
}

}  // namespace
}  // namespace ermes
