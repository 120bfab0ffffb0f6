#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "obs/metrics.h"
#include "util/log.h"
#include "util/stopwatch.h"

namespace ermes::exec {

namespace {

// The pool whose task the current thread is executing (nullptr outside
// tasks). Used to reject nested submits deterministically — including on the
// caller thread, which helps run chunks — regardless of worker count.
thread_local ThreadPool* t_running_pool = nullptr;

// Dense per-pool worker id: 0 on non-worker threads, i+1 on the pool's i-th
// worker. Set once at worker startup, constant thereafter.
thread_local std::size_t t_worker_slot = 0;

}  // namespace

std::size_t current_worker_slot() { return t_worker_slot; }

std::size_t hardware_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

struct ThreadPool::Batch {
  std::size_t n = 0;
  std::size_t chunk = 1;
  std::size_t num_chunks = 0;
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};   // chunk claim cursor
  std::atomic<std::size_t> done{0};   // completed chunks
  std::vector<std::exception_ptr> errors;  // one slot per chunk
  std::mutex mu;
  std::condition_variable finished_cv;
  bool finished = false;
};

ThreadPool::ThreadPool(std::size_t jobs) {
  if (jobs == 0) jobs = hardware_jobs();
  const std::size_t threads = jobs > 1 ? jobs - 1 : 0;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] {
      t_worker_slot = i + 1;  // slot 0 is every pool's caller thread
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Batch> batch;
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] {
        return stop_ || !queue_.empty() || !tasks_.empty();
      });
      if (stop_) return;
      if (!queue_.empty()) {
        batch = queue_.front();
      } else {
        task = std::move(tasks_.front());
        tasks_.pop_front();
        if (obs::enabled()) {
          obs::gauge_set("exec.pool.task_queue_depth",
                         static_cast<std::int64_t>(tasks_.size()));
        }
      }
    }
    if (batch == nullptr) {
      run_task(task);
      continue;
    }
    run_chunks(*batch);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!queue_.empty() && queue_.front() == batch) {
        queue_.pop_front();
        if (obs::enabled()) {
          obs::gauge_set("exec.pool.queue_depth",
                         static_cast<std::int64_t>(queue_.size()));
        }
      }
    }
  }
}

void ThreadPool::run_task(std::function<void()>& task) {
  ThreadPool* const previous = t_running_pool;
  t_running_pool = this;
  try {
    task();
  } catch (const std::exception& e) {
    ERMES_LOG(kError) << "exec::ThreadPool: submitted task threw: "
                      << e.what();
  } catch (...) {
    ERMES_LOG(kError) << "exec::ThreadPool: submitted task threw";
  }
  t_running_pool = previous;
  if (obs::enabled()) obs::count("exec.pool.tasks");
}

void ThreadPool::submit(std::function<void()> task) {
  if (t_running_pool == this) {
    throw std::logic_error(
        "exec::ThreadPool: nested submit from inside a task of the same pool");
  }
  if (workers_.empty()) {
    run_task(task);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
    if (obs::enabled()) {
      obs::gauge_set("exec.pool.task_queue_depth",
                     static_cast<std::int64_t>(tasks_.size()));
    }
  }
  work_cv_.notify_one();
}

std::size_t ThreadPool::pending_tasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_.size();
}

void ThreadPool::run_chunks(Batch& batch) {
  ThreadPool* const previous = t_running_pool;
  t_running_pool = this;
  const bool instrument = obs::enabled();
  for (;;) {
    const std::size_t index = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (index >= batch.num_chunks) break;
    const std::size_t begin = index * batch.chunk;
    const std::size_t end = std::min(batch.n, begin + batch.chunk);
    util::Stopwatch sw;
    try {
      for (std::size_t i = begin; i < end; ++i) (*batch.body)(i);
    } catch (...) {
      batch.errors[index] = std::current_exception();
    }
    if (instrument) {
      obs::count("exec.pool.chunks");
      obs::observe("exec.pool.chunk_ns", sw.elapsed_ns());
    }
    if (batch.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        batch.num_chunks) {
      std::lock_guard<std::mutex> lock(batch.mu);
      batch.finished = true;
      batch.finished_cv.notify_all();
    }
  }
  t_running_pool = previous;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body,
                              std::size_t grain) {
  if (t_running_pool == this) {
    throw std::logic_error(
        "exec::ThreadPool: nested submit from inside a task of the same pool");
  }
  if (n == 0) return;

  auto batch = std::make_shared<Batch>();
  batch->n = n;
  // Default grain: ~4 chunks per participant bounds claim-cursor contention
  // while keeping the tail imbalance under a quarter chunk per thread.
  batch->chunk = grain > 0 ? grain : std::max<std::size_t>(1, n / (jobs() * 4));
  batch->num_chunks = (n + batch->chunk - 1) / batch->chunk;
  batch->body = &body;
  batch->errors.resize(batch->num_chunks);

  if (obs::enabled()) obs::count("exec.pool.batches");

  if (!workers_.empty() && batch->num_chunks > 1) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(batch);
      if (obs::enabled()) {
        obs::gauge_set("exec.pool.queue_depth",
                       static_cast<std::int64_t>(queue_.size()));
      }
    }
    work_cv_.notify_all();
  }

  run_chunks(*batch);

  {
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->finished_cv.wait(lock, [&] { return batch->finished; });
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (*it == batch) {
        queue_.erase(it);
        break;
      }
    }
  }

  for (const std::exception_ptr& error : batch->errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace ermes::exec
