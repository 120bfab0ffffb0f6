#pragma once
// Fixed-worker thread pool with chunked data-parallel helpers.
//
// The execution layer exists for one job: fan the pure, embarrassingly
// parallel evaluations of the methodology (candidate analysis in the DSE
// loop, per-process sensitivity perturbations, multi-TCT sweeps) across
// cores without changing any result. The design is deliberately minimal:
//
//  * A ThreadPool owns jobs-1 worker threads; the calling thread always
//    participates, so ThreadPool(1) is a zero-thread, fully inline pool and
//    the serial and parallel code paths are literally the same code.
//  * parallel_for splits [0, n) into contiguous chunks placed on a shared
//    queue; workers and the caller claim chunks with an atomic cursor.
//    There is no work stealing and no nested parallelism — tasks here are
//    coarse (each one runs a full TMG analysis), so a chunked queue is
//    within noise of fancier schedulers and much easier to reason about.
//  * Determinism: parallel_map writes result i into slot i, so the output
//    never depends on scheduling. Exceptions are captured per chunk and the
//    one from the lowest-indexed chunk is rethrown, so a failing run fails
//    the same way at any worker count.
//  * Nested submits are rejected (std::logic_error): a task that blocks on
//    its own pool can deadlock a fixed-worker design, and every legitimate
//    use in this codebase parallelizes exactly one loop level.
//  * submit() adds a fire-and-forget task queue next to the batch queue so
//    long-lived services (src/svc) can dispatch independent requests onto
//    the same fixed workers. Workers prefer batches (the latency-sensitive
//    data-parallel path) and drain tasks otherwise; the caller thread never
//    executes submitted tasks.
//
// Instrumented through obs when enabled: exec.pool.batches / chunks /
// tasks counters, exec.pool.queue_depth / task_queue_depth gauges,
// exec.pool.chunk_ns histogram.

#include <cstddef>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ermes::exec {

/// std::thread::hardware_concurrency with a floor of 1.
std::size_t hardware_jobs();

/// Dense id of the calling thread within its owning pool: 0 for any thread
/// that is not a pool worker (including every pool's caller thread), i in
/// [1, jobs()) for a pool's i-th worker. Stable for the worker's lifetime,
/// which lets parallel bodies index per-worker state (e.g. one solver
/// workspace per worker) without locks: within one parallel_for, each slot
/// in [0, jobs()) is used by at most one thread.
std::size_t current_worker_slot();

class ThreadPool {
 public:
  /// A pool with total parallelism `jobs` (callers included): jobs-1 worker
  /// threads are spawned. jobs <= 1 runs everything inline on the caller.
  /// jobs == 0 uses hardware_jobs().
  explicit ThreadPool(std::size_t jobs = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (worker threads + the calling thread).
  std::size_t jobs() const { return workers_.size() + 1; }

  /// Runs body(i) for every i in [0, n). Blocks until all iterations
  /// completed; the caller executes chunks alongside the workers. `grain`
  /// iterations per chunk (0 = automatic). Rethrows the exception of the
  /// lowest-indexed failing chunk after the batch drains. Throws
  /// std::logic_error when invoked from inside a task of this pool.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                    std::size_t grain = 0);

  /// Deterministically ordered map: out[i] = fn(i), scheduling-independent.
  template <typename T>
  std::vector<T> parallel_map(std::size_t n,
                              const std::function<T(std::size_t)>& fn,
                              std::size_t grain = 0) {
    std::vector<T> out(n);
    parallel_for(
        n, [&](std::size_t i) { out[i] = fn(i); }, grain);
    return out;
  }

  /// Enqueues an independent task for asynchronous execution on a worker
  /// thread and returns immediately. Tasks run in FIFO order relative to
  /// each other (workers prefer parallel_for batches). A throwing task is
  /// caught and logged, never propagated — callers that care report errors
  /// through their own channel. On a pool with no workers (jobs <= 1) the
  /// task runs inline on the calling thread before submit() returns. Tasks
  /// still queued when the pool is destroyed are discarded; services must
  /// drain (wait for their own completion signals) before teardown.
  /// Throws std::logic_error when invoked from inside a task of this pool.
  void submit(std::function<void()> task);

  /// Submitted-but-not-yet-started task count (diagnostic; racy by nature).
  std::size_t pending_tasks() const;

 private:
  struct Batch;

  void worker_loop();
  /// Claims and runs chunks of `batch` until its cursor is exhausted.
  void run_chunks(Batch& batch);
  /// Runs one submitted task with the nested-submit guard armed.
  void run_task(std::function<void()>& task);

  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Batch>> queue_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
};

}  // namespace ermes::exec
