#pragma once
// Request broker of the analysis service: admission control, deadlines, and
// execution of protocol requests on a shared thread pool + warm cache.
//
// The broker is the transport-free core of `ermes serve` (the socket layer
// in svc/server.h feeds it lines and writes back whatever it produces), so
// every production behaviour is testable in-process:
//
//   * Bounded admission: at most `queue_depth` requests may be admitted but
//     not yet executing; request number queue_depth+1 is rejected with
//     `overloaded` immediately instead of blocking the connection. Heavy
//     requests therefore shed load instead of accumulating unbounded memory
//     and latency — the client retries against a healthier instant.
//   * Deadlines: an admitted request carries an absolute deadline (its
//     `deadline_ms`, else the broker default, else none). Expiry is checked
//     before execution starts and cooperatively between DSE iterations /
//     sweep points through dse::ExplorerOptions::should_stop; an expired
//     request returns `deadline_exceeded` and frees its worker — it is never
//     hard-killed, so caches and metrics stay coherent.
//   * One process-wide warm analysis::EvalCache shared by all clients and
//     requests: repeat targets (the DSE exploration-pressure workload) hit
//     the memo across connections, which is the entire point of running
//     ERMES as a daemon rather than a cold CLI process per evaluation.
//     Every admitted request executes on its own against its own deadline;
//     identical concurrent questions share one solve inside the cache,
//     whose in-flight misses are joined rather than recomputed.
//   * Drain: begin_drain() atomically flips admission off (subsequent
//     requests get `shutting_down`); drain() blocks until the in-flight set
//     is empty. The `shutdown` op responds, then begins the drain.
//   * Incremental sessions (protocol v2): `open_session` parses a model
//     (optionally hierarchical) into a named comp::IncrementalAnalyzer that
//     stays warm across requests; `patch` applies a batch of component
//     patches atomically and re-analyzes only the dirtied SCCs. The session
//     table is bounded (`max_sessions`, `overloaded` beyond) and each
//     session is serialized by its own mutex, so patches to one session
//     never block requests against another.
//
// Metrics are mirrored into the obs registry (svc.requests.*,
// svc.queue.waiting, svc.request_ns); the `stats` op snapshots them.
//
// Telemetry (when obs is enabled): each admitted request runs under an
// obs::RequestContext carrying its wire id, so queue-wait, parse,
// cache-probe, solve, and render time are attributed per request. Latency
// lands in HDR quantile instruments (svc.request_ns, svc.queue_wait_ns, and
// per-op svc.op_ns.<op>), request traffic in a 10-second sliding window
// (rps). Requests slower than `slow_request_ms` emit one NDJSON line with
// the per-stage breakdown to `slow_log_sink`; `trace_sample` > 1 records
// ObsSpans for only every Nth request so tracing stays affordable under
// load. The `stats` op (v2) and the `metrics` op (Prometheus text) expose
// all of it without an open session.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "exec/thread_pool.h"
#include "obs/quantile.h"
#include "svc/ops.h"
#include "svc/protocol.h"

namespace ermes::svc {

struct BrokerOptions {
  /// Request-execution parallelism (dedicated pool workers). 0 = all cores.
  std::size_t workers = 0;
  /// Maximum admitted-but-not-yet-executing requests before `overloaded`.
  std::size_t queue_depth = 64;
  /// Default deadline applied when a request does not carry one. 0 = none.
  std::int64_t default_deadline_ms = 0;
  /// Maximum concurrently open incremental sessions; `open_session` beyond
  /// this is rejected with `overloaded`.
  std::size_t max_sessions = 64;
  /// Test hook: sleep this long inside every DSE iteration's cancellation
  /// poll, making `explore` deliberately slow so the deadline and overload
  /// paths are exercised deterministically (tests/bench only).
  std::int64_t test_iter_delay_ms = 0;
  /// Requests slower than this (wall time, end of execute) emit one NDJSON
  /// line with their id, op, and per-stage time breakdown. 0 = disabled.
  std::int64_t slow_request_ms = 0;
  /// Span-sampling period: every Nth admitted request records ObsSpans;
  /// the rest suppress them (counters/histograms stay exact for all).
  /// <= 1 traces every request.
  std::int64_t trace_sample = 1;
  /// Sink for slow-request NDJSON lines (one complete JSON object, no
  /// trailing newline). Unset = stderr. Injectable so tests capture lines.
  std::function<void(const std::string&)> slow_log_sink = {};
  /// Byte budget for the shared eval cache (`ermes serve --cache-mb`).
  /// 0 = unbounded (the historical behaviour).
  std::int64_t cache_bytes = 0;
  /// Snapshot path (`ermes serve --cache-file`): loaded at construction
  /// when the file exists (a corrupt or incompatible file is logged and the
  /// cache starts cold), written by save_cache() — which the server calls
  /// on clean shutdown — and by the v2 `cache_save` op. Empty = no
  /// persistence. (`= {}` keeps designated initializers that omit it free
  /// of -Wmissing-field-initializers.)
  std::string cache_file = {};
  /// Background snapshot interval (`ermes serve --cache-save-secs`): when
  /// > 0 and cache_file is set, a saver thread writes the snapshot every N
  /// seconds through the same atomic tmp+rename writer — skipping intervals
  /// in which nothing new was inserted. 0 (the default) = save only on
  /// clean shutdown and explicit `cache_save` requests.
  std::int64_t cache_save_secs = 0;
};

class Broker {
 public:
  explicit Broker(BrokerOptions options = {});
  ~Broker();
  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Response sink: invoked exactly once per handle_line call with the full
  /// response line (no trailing newline). Runs on a pool worker for admitted
  /// requests, or inline on the caller for rejections and parse failures.
  using DoneFn = std::function<void(std::string)>;

  /// Parses, validates, admits, and (asynchronously) executes one request
  /// line. Never throws; never blocks on the queue.
  void handle_line(const std::string& line, DoneFn done);

  /// Synchronous convenience for tests and the smoke driver: blocks until
  /// the response is ready.
  std::string handle_line_sync(const std::string& line);

  /// Stops admission: subsequent requests are rejected with shutting_down.
  /// Idempotent; invokes the drain callback (once) when one is registered.
  void begin_drain();
  /// True once begin_drain() ran.
  bool draining() const { return draining_.load(); }
  /// Blocks until every admitted request has completed.
  void drain();
  /// Hook for the server: called from begin_drain() (possibly on a worker
  /// thread executing a `shutdown` request) to wake the accept loop.
  void set_drain_callback(std::function<void()> callback);

  /// The process-wide warm cache shared across all requests.
  analysis::EvalCache& cache() { return env_.cache; }

  /// Writes the cache snapshot to options().cache_file (no-op returning
  /// true when no cache_file is configured). The server calls this after a
  /// clean drain; the `cache_save` op calls it on demand.
  bool save_cache(std::string* error);
  /// Entries restored from the snapshot at construction (0 when none).
  std::size_t cache_restored() const { return cache_restored_; }

  struct Stats {
    std::int64_t accepted = 0;
    std::int64_t completed = 0;
    std::int64_t bad_requests = 0;
    std::int64_t rejected_overloaded = 0;
    std::int64_t rejected_shutting_down = 0;
    std::int64_t deadline_exceeded = 0;
    std::int64_t internal_errors = 0;
    std::int64_t waiting = 0;    // admitted, not yet executing
    std::int64_t in_flight = 0;  // admitted, not yet responded
    std::int64_t sessions = 0;   // open incremental sessions
    std::int64_t cache_saves = 0;  // background snapshot writes
  };
  Stats stats() const;

  const BrokerOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Executes an admitted request (worker thread) and emits the response.
  /// `queue_wait_ns` is the admission -> execution-start delay, attributed
  /// to the request's queue_wait stage.
  void execute(const Request& request, bool has_deadline,
               Clock::time_point deadline, std::int64_t queue_wait_ns,
               const DoneFn& done);

  /// Background saver thread body (cache_save_secs > 0).
  void saver_loop();
  JsonValue run_stats(int version);
  JsonValue run_metrics();
  JsonValue run_cache_save(std::string* error, ErrorCode* code);
  // Session ops: on failure they set *error and *code (bad_request for
  // unknown/duplicate sessions and model errors, overloaded for a full
  // session table) and return null.
  JsonValue run_open_session(const Request& request, std::string* error,
                             ErrorCode* code);
  JsonValue run_patch(const Request& request, std::string* error,
                      ErrorCode* code);
  JsonValue run_close_session(const Request& request, std::string* error,
                              ErrorCode* code);

  void finish_one();
  /// Decrements in_flight_ and wakes drain() at zero (rollback on
  /// rejection; finish_one() for completed requests).
  void release_in_flight();

  BrokerOptions options_;
  // The memo and the per-slot warm solvers every model op runs against
  // (svc/ops.h). Sized to pool_'s slots: requests execute on pool workers,
  // each on its own slot's solver, so none of them need locks. No fan-out
  // pool — requests are the unit of parallelism.
  OpEnv env_;
  std::size_t cache_restored_ = 0;  // snapshot entries admitted at startup

  // One open incremental-analysis session (defined in broker.cpp). The map
  // holds shared_ptrs so a `close_session` racing an in-flight `patch` only
  // unlinks the session; the patch finishes against its own reference.
  struct Session;
  mutable std::mutex sessions_mu_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;

  // Snapshot writes share one fixed tmp path (path + ".tmp"), so the
  // background saver, the shutdown save, and `cache_save` requests must
  // serialize. saved_misses_ (guarded by save_mu_) is the insertion proxy:
  // every insert begins as a miss, so an unchanged miss count means an
  // interval with nothing new to persist.
  std::mutex save_mu_;
  std::int64_t saved_misses_ = 0;
  std::thread saver_;
  std::mutex saver_mu_;
  std::condition_variable saver_cv_;
  bool saver_stop_ = false;

  std::atomic<bool> draining_{false};
  std::atomic<std::int64_t> waiting_{0};
  std::atomic<std::int64_t> in_flight_{0};
  std::atomic<std::int64_t> accepted_{0};
  std::atomic<std::int64_t> completed_{0};
  std::atomic<std::int64_t> bad_requests_{0};
  std::atomic<std::int64_t> rejected_overloaded_{0};
  std::atomic<std::int64_t> rejected_shutting_down_{0};
  std::atomic<std::int64_t> deadline_exceeded_{0};
  std::atomic<std::int64_t> internal_errors_{0};
  std::atomic<std::int64_t> cache_saves_{0};
  std::atomic<std::int64_t> trace_tick_{0};  // span-sampling cursor
  obs::WindowRate window_requests_;  // completed requests, last ~10 s

  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  std::function<void()> drain_callback_;
  bool drain_callback_fired_ = false;

  // Declared last on purpose: members are destroyed in reverse declaration
  // order, so ~ThreadPool runs FIRST — it joins the workers before anything
  // a task touches (solvers, sessions, the drain cv — nearly every member
  // above) is destroyed. A task still finishing after it released its
  // in-flight slot (finish_one() wakes ~Broker's drain()) therefore runs
  // against live members.
  exec::ThreadPool pool_;
};

}  // namespace ermes::svc
