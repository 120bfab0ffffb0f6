#include "svc/broker.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <cstdio>

#include "comp/incremental.h"
#include "comp/partition.h"
#include "io/soc_format.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/request_context.h"
#include "svc/ops.h"
#include "tmg/csr.h"
#include "util/build_info.h"
#include "util/log.h"
#include "util/stopwatch.h"

namespace ermes::svc {

namespace {

std::size_t effective_workers(std::size_t workers) {
  return workers == 0 ? exec::hardware_jobs() : workers;
}

// Upper bound on any deadline (24 h). `now() + milliseconds(deadline_ms)`
// converts to steady_clock's nanosecond period, so an unclamped
// client-supplied value near INT64_MAX would signed-overflow (UB) and in
// practice wrap to a deadline in the past, failing the request instantly.
constexpr std::int64_t kMaxDeadlineMs = 86'400'000;

// FNV-1a over a byte string, for folding model text into a coalesce key.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

// One open incremental session: an analyzer plus the mutex serializing the
// requests that touch it (patches mutate derived state in place).
struct Broker::Session {
  std::mutex mu;
  comp::IncrementalAnalyzer analyzer;

  explicit Session(sysmodel::SystemModel sys) : analyzer(std::move(sys)) {}
};

// The pool gets `workers` dedicated threads (ThreadPool counts the caller,
// and the broker's callers — connection threads — never execute tasks).
Broker::Broker(BrokerOptions options)
    : options_(std::move(options)),
      env_(effective_workers(options_.workers) + 1, /*jobs=*/1,
           options_.cache_bytes),
      pool_(effective_workers(options_.workers) + 1) {
  if (!options_.cache_file.empty()) {
    // A missing snapshot is the normal first launch — silent cold start. A
    // present-but-rejected one (corrupt, truncated, or written by an
    // incompatible format) is logged and the daemon starts cold; serving is
    // never blocked by a bad cache file.
    if (std::FILE* f = std::fopen(options_.cache_file.c_str(), "rb")) {
      std::fclose(f);
      std::string error;
      if (env_.cache.load_snapshot(options_.cache_file, &error,
                                   &cache_restored_)) {
        ERMES_LOG(kInfo) << "svc: restored " << cache_restored_
                         << " cache entries from '" << options_.cache_file
                         << "'";
      } else {
        ERMES_LOG(kWarn) << "svc: ignoring cache snapshot '"
                         << options_.cache_file << "': " << error;
      }
    }
  }
  // Register the serving counter CI and dashboards scrape even before the
  // first coalesce happens — a missing series is indistinguishable from a
  // scrape bug, a zero is not.
  obs::Registry::global().counter("coalesced");
  saved_misses_ = env_.cache.misses();
  if (options_.cache_save_secs > 0 && !options_.cache_file.empty()) {
    saver_ = std::thread([this] { saver_loop(); });
  }
}

Broker::~Broker() {
  {
    std::lock_guard<std::mutex> lock(saver_mu_);
    saver_stop_ = true;
  }
  saver_cv_.notify_all();
  if (saver_.joinable()) saver_.join();
  begin_drain();
  drain();
}

void Broker::saver_loop() {
  std::unique_lock<std::mutex> lock(saver_mu_);
  for (;;) {
    saver_cv_.wait_for(lock, std::chrono::seconds(options_.cache_save_secs),
                       [this] { return saver_stop_; });
    if (saver_stop_) return;
    lock.unlock();
    std::string error;
    // save_cache() holds save_mu_ and skips idle intervals itself.
    if (!save_cache(&error)) {
      ERMES_LOG(kWarn) << "svc: background cache save failed: " << error;
    }
    lock.lock();
  }
}

void Broker::set_drain_callback(std::function<void()> callback) {
  std::lock_guard<std::mutex> lock(drain_mu_);
  drain_callback_ = std::move(callback);
}

void Broker::begin_drain() {
  if (draining_.exchange(true)) return;  // seq_cst pairs with handle_line
  std::function<void()> callback;
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    if (!drain_callback_fired_ && drain_callback_) {
      drain_callback_fired_ = true;
      callback = drain_callback_;
    }
  }
  if (callback) callback();
}

void Broker::drain() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] { return in_flight_.load() == 0; });
}

void Broker::release_in_flight() {
  if (in_flight_.fetch_sub(1) - 1 == 0) {
    std::lock_guard<std::mutex> lock(drain_mu_);
    drain_cv_.notify_all();
  }
}

void Broker::finish_one() {
  completed_.fetch_add(1, std::memory_order_relaxed);
  obs::count("svc.requests.completed");
  release_in_flight();
}

Broker::Stats Broker::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  s.rejected_overloaded =
      rejected_overloaded_.load(std::memory_order_relaxed);
  s.rejected_shutting_down =
      rejected_shutting_down_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.internal_errors = internal_errors_.load(std::memory_order_relaxed);
  s.waiting = waiting_.load(std::memory_order_relaxed);
  s.in_flight = in_flight_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.cache_saves = cache_saves_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    s.sessions = static_cast<std::int64_t>(sessions_.size());
  }
  return s;
}

std::uint64_t Broker::coalesce_key(const Request& request) {
  switch (request.op) {
    case Op::kAnalyze:
    case Op::kOrder:
    case Op::kExplore:
    case Op::kSweep:
      break;  // pure: the outcome is a function of (op, model, params)
    default:
      return 0;  // stats/metrics/sessions/shutdown must execute individually
  }
  std::uint64_t h = analysis::fingerprint_mix(
      0x9e3779b97f4a7c15ull, static_cast<std::uint64_t>(request.op));
  h = analysis::fingerprint_mix(h, request.hier ? 1 : 0);
  h = analysis::fingerprint_mix(h, static_cast<std::uint64_t>(request.tct));
  h = analysis::fingerprint_mix(h, static_cast<std::uint64_t>(request.lo));
  h = analysis::fingerprint_mix(h, static_cast<std::uint64_t>(request.hi));
  h = analysis::fingerprint_mix(h, static_cast<std::uint64_t>(request.step));
  // deadline_ms is part of the key, so a follower only attaches to a leader
  // that asked for the same *relative* budget. That is an approximation,
  // accepted and documented: followers share the leader's *absolute*
  // deadline, so one attaching late can still receive deadline_exceeded
  // while its own budget had time left. The attach window is bounded by the
  // leader's solve time — small against any realistic deadline — and
  // re-executing such followers would re-pay exactly the solve coalescing
  // exists to avoid; the client's normal retry covers the residue.
  h = analysis::fingerprint_mix(
      h, static_cast<std::uint64_t>(request.deadline_ms));
  h = analysis::fingerprint_mix(h, fnv1a(request.soc));
  return h == 0 ? 1 : h;  // 0 is the "not coalescable" sentinel
}

bool Broker::coalesce_match(const CoalesceEntry& entry,
                            const Request& request) {
  return entry.op == request.op && entry.hier == request.hier &&
         entry.tct == request.tct && entry.lo == request.lo &&
         entry.hi == request.hi && entry.step == request.step &&
         entry.deadline_ms == request.deadline_ms &&
         entry.soc == request.soc;
}

std::vector<Broker::Waiter> Broker::detach_followers(
    std::uint64_t key, const std::shared_ptr<CoalesceEntry>& entry) {
  std::vector<Waiter> followers;
  if (entry == nullptr) return followers;
  std::lock_guard<std::mutex> lock(coalesce_mu_);
  followers = std::move(entry->followers);
  coalesce_.erase(key);
  return followers;
}

void Broker::fan_out(std::vector<Waiter> followers, const Outcome& outcome) {
  for (Waiter& waiter : followers) {
    // Re-encode the shared outcome under the follower's own wire identity;
    // errors (bad model, deadline, internal) propagate exactly like results.
    std::string response =
        outcome.ok ? encode_ok(waiter.id, outcome.result, waiter.version)
                   : encode_error(waiter.id, outcome.code, outcome.message,
                                  waiter.version);
    waiter.done(std::move(response));
    finish_one();
  }
}

void Broker::handle_line(const std::string& line, DoneFn done) {
  RequestParse parsed = parse_request(line);
  if (!parsed.ok) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    obs::count("svc.requests.bad_request");
    done(encode_error(parsed.request.id, ErrorCode::kBadRequest, parsed.error,
                      parsed.request.version));
    return;
  }
  const JsonValue id = parsed.request.id;
  const int version = parsed.request.version;

  // Count the request in-flight *before* checking draining(); both sides
  // are seq_cst, so either begin_drain() happens-before our load (we roll
  // back and reject) or drain() observes our increment and waits for this
  // request. Checking first would let a request slip past a concurrent
  // begin_drain()+drain() and race the connection teardown.
  in_flight_.fetch_add(1);
  if (draining_.load()) {
    release_in_flight();
    rejected_shutting_down_.fetch_add(1, std::memory_order_relaxed);
    obs::count("svc.requests.rejected_shutting_down");
    done(encode_error(id, ErrorCode::kShuttingDown, "server is draining",
                      version));
    return;
  }

  // Coalesce-attach: an identical request already in flight answers this
  // one too. The follower keeps only its in_flight_ slot (released by the
  // fan-out) — no queue slot, no pool task, no second solve. Attachment
  // requires a full field match, not just the hash key: on a key collision
  // with a *different* in-flight request the newcomer executes alone,
  // unpublished (key cleared to 0), since two distinct questions cannot
  // share the one map slot.
  std::uint64_t key = coalesce_key(parsed.request);
  if (key != 0) {
    std::lock_guard<std::mutex> lock(coalesce_mu_);
    const auto it = coalesce_.find(key);
    if (it != coalesce_.end()) {
      if (coalesce_match(*it->second, parsed.request)) {
        it->second->followers.push_back(Waiter{id, version, std::move(done)});
        coalesced_.fetch_add(1, std::memory_order_relaxed);
        accepted_.fetch_add(1, std::memory_order_relaxed);
        obs::count("svc.requests.accepted");
        obs::count("coalesced");
        return;
      }
      key = 0;  // collision: execute fresh, never attach or publish
    }
  }

  // Bounded admission with backpressure: beyond queue_depth waiting
  // requests, reject immediately instead of queueing (the caller never
  // blocks on a full queue).
  const std::int64_t waiting =
      waiting_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (waiting > static_cast<std::int64_t>(options_.queue_depth)) {
    waiting_.fetch_sub(1, std::memory_order_acq_rel);
    release_in_flight();
    rejected_overloaded_.fetch_add(1, std::memory_order_relaxed);
    obs::count("svc.requests.rejected_overloaded");
    done(encode_error(id, ErrorCode::kOverloaded,
                      "admission queue full (depth " +
                          std::to_string(options_.queue_depth) + ")",
                      version));
    return;
  }
  obs::gauge_set("svc.queue.waiting", waiting);

  accepted_.fetch_add(1, std::memory_order_relaxed);
  obs::count("svc.requests.accepted");

  // Publish the coalesce entry only now that admission succeeded — an entry
  // installed before the queue-depth check could collect followers onto a
  // leader that then gets rejected. If another leader won the install race
  // in the window since the find() above, become its follower after all.
  std::shared_ptr<CoalesceEntry> entry;
  if (key != 0) {
    std::lock_guard<std::mutex> lock(coalesce_mu_);
    const auto [it, inserted] =
        coalesce_.try_emplace(key, std::make_shared<CoalesceEntry>());
    if (inserted) {
      entry = it->second;
      // Record the exact question so attaches can verify it (the hash key
      // alone admits collisions).
      entry->op = parsed.request.op;
      entry->hier = parsed.request.hier;
      entry->tct = parsed.request.tct;
      entry->lo = parsed.request.lo;
      entry->hi = parsed.request.hi;
      entry->step = parsed.request.step;
      entry->deadline_ms = parsed.request.deadline_ms;
      entry->soc = parsed.request.soc;
    } else if (coalesce_match(*it->second, parsed.request)) {
      it->second->followers.push_back(Waiter{id, version, std::move(done)});
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      obs::count("coalesced");
      const std::int64_t rolled_back =
          waiting_.fetch_sub(1, std::memory_order_acq_rel) - 1;
      obs::gauge_set("svc.queue.waiting", rolled_back);
      return;
    }
    // else: key collision with the racing leader — entry stays null and
    // this request executes alone without publishing.
  }

  std::int64_t deadline_ms = parsed.request.deadline_ms > 0
                                 ? parsed.request.deadline_ms
                                 : options_.default_deadline_ms;
  deadline_ms = std::min(deadline_ms, kMaxDeadlineMs);
  const bool has_deadline = deadline_ms > 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(has_deadline ? deadline_ms : 0);
  const Clock::time_point admitted = Clock::now();

  pool_.submit([this, request = std::move(parsed.request), has_deadline,
                deadline, admitted, done = std::move(done), key, entry] {
    const std::int64_t now_waiting =
        waiting_.fetch_sub(1, std::memory_order_acq_rel) - 1;
    obs::gauge_set("svc.queue.waiting", now_waiting);
    const std::int64_t queue_wait_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             admitted)
            .count();
    Outcome outcome;
    if (entry == nullptr) {
      execute(request, has_deadline, deadline, queue_wait_ns, done, nullptr);
    } else {
      // Detach followers before the leader's response leaves the broker —
      // a client that has seen the reply may immediately resubmit, and that
      // request must become a fresh leader, not attach to a finished solve.
      execute(request, has_deadline, deadline, queue_wait_ns,
              [&](std::string response) {
                std::vector<Waiter> followers = detach_followers(key, entry);
                done(std::move(response));
                fan_out(std::move(followers), outcome);
              },
              &outcome);
    }
    finish_one();
  });
}

std::string Broker::handle_line_sync(const std::string& line) {
  // The response callback may run on a worker thread; hand the line back
  // through a tiny rendezvous.
  std::mutex mu;
  std::condition_variable cv;
  std::string response;
  bool ready = false;
  handle_line(line, [&](std::string r) {
    std::lock_guard<std::mutex> lock(mu);
    response = std::move(r);
    ready = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return ready; });
  return response;
}

void Broker::execute(const Request& request, bool has_deadline,
                     Clock::time_point deadline, std::int64_t queue_wait_ns,
                     const DoneFn& done, Outcome* outcome) {
  util::Stopwatch sw;
  if (options_.test_exec_delay_ms > 0) {
    // Test hook: hold the leader in flight so identical requests pile onto
    // its coalesce entry deterministically.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.test_exec_delay_ms));
  }

  // Request-scoped telemetry: everything below (parse, cache probes, solves,
  // rendering) attributes its time to this context through thread-local
  // StageTimers — requests execute serially on this worker (the broker's
  // OpEnv sweeps at jobs = 1), so the scope covers the whole call tree.
  // `traced` implements span sampling: with trace_sample N, only every Nth
  // request records ObsSpans.
  obs::RequestContext ctx;
  ctx.id = request.id.to_string();
  ctx.op = to_string(request.op);
  ctx.traced =
      options_.trace_sample <= 1 ||
      trace_tick_.fetch_add(1, std::memory_order_relaxed) %
              options_.trace_sample ==
          0;
  ctx.add(obs::Stage::kQueueWait, queue_wait_ns);
  obs::RequestScope scope(&ctx);
  if (obs::enabled() && ctx.traced && options_.trace_sample > 1) {
    obs::count("svc.requests.traced");
  }
  // Cooperative cancellation poll, shared by the DSE loop and the sweep's
  // per-target boundary. The test hook's sleep lives here so a deliberately
  // slow exploration still spends its time inside the cancellable region.
  const auto should_stop = [this, has_deadline, deadline] {
    if (options_.test_iter_delay_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.test_iter_delay_ms));
    }
    return has_deadline && Clock::now() >= deadline;
  };

  // Captures the op-level outcome for coalesce fan-out alongside encoding
  // the leader's own response line.
  const auto fail = [&](ErrorCode code, std::string message) {
    if (outcome != nullptr) {
      outcome->ok = false;
      outcome->code = code;
      outcome->message = message;
    }
    return encode_error(request.id, code, message, request.version);
  };

  std::string response;
  try {
    if (has_deadline && Clock::now() >= deadline) {
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      obs::count("svc.requests.deadline_exceeded");
      response = fail(ErrorCode::kDeadlineExceeded,
                      "deadline expired before execution started");
    } else {
      OpResult op;  // the model ops fill all of it, the others op.result
      std::string session_error;
      ErrorCode session_code = ErrorCode::kBadRequest;
      JsonValue& result = op.result;
      switch (request.op) {
        case Op::kAnalyze:
        case Op::kOrder:
        case Op::kExplore:
        case Op::kSweep:
          op = run_op(request, env_, should_stop);
          break;
        case Op::kStats:
          result = run_stats(request.version);
          break;
        case Op::kMetrics:
          result = run_metrics();
          break;
        case Op::kShutdown:
          result = JsonValue::object();
          result.set("draining", JsonValue::boolean(true));
          break;
        case Op::kOpenSession:
          result = run_open_session(request, &session_error, &session_code);
          break;
        case Op::kPatch:
          result = run_patch(request, &session_error, &session_code);
          break;
        case Op::kCloseSession:
          result = run_close_session(request, &session_error, &session_code);
          break;
        case Op::kCacheSave:
          result = run_cache_save(&session_error, &session_code);
          break;
      }
      if (!op.soc_error.empty()) {
        bad_requests_.fetch_add(1, std::memory_order_relaxed);
        obs::count("svc.requests.bad_request");
        response = fail(ErrorCode::kBadRequest, "soc: " + op.soc_error);
      } else if (!session_error.empty()) {
        if (session_code == ErrorCode::kOverloaded) {
          rejected_overloaded_.fetch_add(1, std::memory_order_relaxed);
          obs::count("svc.requests.rejected_overloaded");
        } else {
          bad_requests_.fetch_add(1, std::memory_order_relaxed);
          obs::count("svc.requests.bad_request");
        }
        response = fail(session_code, session_error);
      } else if (op.cancelled) {
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        obs::count("svc.requests.deadline_exceeded");
        response = fail(ErrorCode::kDeadlineExceeded,
                        "deadline exceeded during exploration");
      } else {
        obs::StageTimer render_timer(obs::Stage::kRender);
        if (outcome != nullptr) {
          outcome->ok = true;
          outcome->result = result;  // copy: fan-out re-encodes per follower
        }
        response = encode_ok(request.id, std::move(result), request.version);
      }
    }
  } catch (const std::exception& e) {
    internal_errors_.fetch_add(1, std::memory_order_relaxed);
    obs::count("svc.requests.internal_error");
    ERMES_LOG(kError) << "svc: request handler threw: " << e.what();
    response = fail(ErrorCode::kInternal, e.what());
  } catch (...) {
    internal_errors_.fetch_add(1, std::memory_order_relaxed);
    obs::count("svc.requests.internal_error");
    response = fail(ErrorCode::kInternal, "unexpected exception");
  }

  const std::int64_t elapsed_ns = sw.elapsed_ns();
  obs::observe("svc.request_ns", elapsed_ns);
  if (obs::enabled()) {
    obs::Registry& registry = obs::Registry::global();
    registry.quantile("svc.request_ns").observe(elapsed_ns);
    registry.quantile("svc.queue_wait_ns").observe(queue_wait_ns);
    registry.quantile(std::string("svc.op_ns.") + to_string(request.op))
        .observe(elapsed_ns);
    window_requests_.record();
  }

  // Slow-request log: one self-contained NDJSON line answering "why was
  // THIS request slow" — originating wire id, op, and the stage breakdown
  // the RequestContext accumulated (times not covered by a stage show up as
  // the gap between stages_ns and elapsed_ns).
  if (options_.slow_request_ms > 0 &&
      elapsed_ns >= options_.slow_request_ms * 1'000'000) {
    std::string line = "{\"slow_request\":true,\"id\":" + ctx.id +
                       ",\"op\":\"" + ctx.op + "\",\"elapsed_ms\":" +
                       obs::json_number(static_cast<double>(elapsed_ns) / 1e6) +
                       ",\"stages_ns\":{";
    for (int s = 0; s < obs::kNumStages; ++s) {
      const auto stage = static_cast<obs::Stage>(s);
      line += (s == 0 ? "\"" : ",\"");
      line += obs::to_string(stage);
      line += "\":" + std::to_string(ctx.stage(stage));
    }
    line += "},\"traced\":";
    line += ctx.traced ? "true}" : "false}";
    if (obs::enabled()) obs::count("svc.requests.slow");
    if (options_.slow_log_sink) {
      options_.slow_log_sink(line);
    } else {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }

  // A shutdown request flips the drain switch before its own response goes
  // out, so any request observed after the response is deterministically
  // rejected with shutting_down. Delivery is still guaranteed: this request
  // counts toward in_flight_ until finish_one(), and the server only closes
  // connections after drain() sees in_flight_ == 0.
  if (request.op == Op::kShutdown) begin_drain();
  done(std::move(response));
}

namespace {

// Result body shared by open_session and patch: the full report plus the
// per-component provenance of the partitioned engine.
JsonValue session_report_json(const comp::PartitionedReport& part,
                              const comp::IncrementalAnalyzer& analyzer) {
  const sysmodel::SystemModel& sys = analyzer.system();
  JsonValue result = JsonValue::object();
  result.set("live", JsonValue::boolean(part.report.live));
  result.set("cycle_time", JsonValue::number(part.report.cycle_time));
  result.set("ct_num", JsonValue::integer(part.report.ct_num));
  result.set("ct_den", JsonValue::integer(part.report.ct_den));
  result.set("throughput", JsonValue::number(part.report.throughput));
  JsonValue critical = JsonValue::array();
  for (const sysmodel::ProcessId p : part.report.critical_processes) {
    critical.push_back(JsonValue::string(sys.process_name(p)));
  }
  result.set("critical_processes", std::move(critical));
  result.set("sccs",
             JsonValue::integer(static_cast<std::int64_t>(part.sccs.size())));
  result.set("critical_scc", JsonValue::integer(part.critical_scc));
  result.set("sccs_solved", JsonValue::integer(part.solved));
  // Embedded CSR solver counters: weight_refreshes / compiles is the warm
  // ratio — how often a patch re-solved without rebuilding the snapshot.
  const tmg::CycleMeanSolver::Stats& solver = analyzer.solver_stats();
  result.set("solver_compiles", JsonValue::integer(solver.compiles));
  result.set("solver_weight_refreshes",
             JsonValue::integer(solver.weight_refreshes));
  return result;
}

}  // namespace

JsonValue Broker::run_open_session(const Request& request, std::string* error,
                                   ErrorCode* code) {
  io::ParseResult parsed = parse_model(request);
  if (!parsed.ok) {
    *code = ErrorCode::kBadRequest;
    *error = "soc: " + parsed.error;
    return JsonValue::null();
  }
  auto session = std::make_shared<Session>(std::move(parsed.system));
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (sessions_.count(request.session) != 0) {
      *code = ErrorCode::kBadRequest;
      *error = "session '" + request.session + "' is already open";
      return JsonValue::null();
    }
    if (sessions_.size() >= options_.max_sessions) {
      *code = ErrorCode::kOverloaded;
      *error = "session table full (max " +
               std::to_string(options_.max_sessions) + ")";
      return JsonValue::null();
    }
    sessions_.emplace(request.session, session);
  }
  obs::count("svc.sessions.opened");
  std::lock_guard<std::mutex> lock(session->mu);
  const comp::PartitionedReport& part = session->analyzer.analyze();
  JsonValue result = session_report_json(part, session->analyzer);
  result.set("session", JsonValue::string(request.session));
  return result;
}

JsonValue Broker::run_patch(const Request& request, std::string* error,
                            ErrorCode* code) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    const auto it = sessions_.find(request.session);
    if (it != sessions_.end()) session = it->second;
  }
  if (session == nullptr) {
    *code = ErrorCode::kBadRequest;
    *error = "unknown session '" + request.session + "'";
    return JsonValue::null();
  }
  std::lock_guard<std::mutex> lock(session->mu);
  comp::IncrementalAnalyzer& analyzer = session->analyzer;
  const sysmodel::SystemModel& sys = analyzer.system();

  // Atomic batch: every patch is validated against the current model before
  // any is applied, so a bad batch leaves the session untouched.
  struct Resolved {
    sysmodel::ProcessId process = sysmodel::kInvalidProcess;
    sysmodel::ChannelId channel = sysmodel::kInvalidChannel;
  };
  std::vector<Resolved> resolved(request.patches.size());
  for (std::size_t i = 0; i < request.patches.size(); ++i) {
    const PatchOp& patch = request.patches[i];
    Resolved& ids = resolved[i];
    const std::string where = "patch " + std::to_string(i) + ": ";
    switch (patch.kind) {
      case PatchOp::Kind::kSelect: {
        ids.process = sys.find_process(patch.process);
        if (ids.process == sysmodel::kInvalidProcess) {
          *error = where + "unknown process '" + patch.process + "'";
          return JsonValue::null();
        }
        if (!sys.has_implementations(ids.process) ||
            static_cast<std::size_t>(patch.value) >=
                sys.implementations(ids.process).size()) {
          *error = where + "process '" + patch.process +
                   "' has no implementation " + std::to_string(patch.value);
          return JsonValue::null();
        }
        break;
      }
      case PatchOp::Kind::kProcessLatency: {
        ids.process = sys.find_process(patch.process);
        if (ids.process == sysmodel::kInvalidProcess) {
          *error = where + "unknown process '" + patch.process + "'";
          return JsonValue::null();
        }
        break;
      }
      case PatchOp::Kind::kChannelLatency: {
        ids.channel = sys.find_channel(patch.channel);
        if (ids.channel == sysmodel::kInvalidChannel) {
          *error = where + "unknown channel '" + patch.channel + "'";
          return JsonValue::null();
        }
        break;
      }
      case PatchOp::Kind::kRetarget: {
        ids.channel = sys.find_channel(patch.channel);
        if (ids.channel == sysmodel::kInvalidChannel) {
          *error = where + "unknown channel '" + patch.channel + "'";
          return JsonValue::null();
        }
        ids.process = sys.find_process(patch.target);
        if (ids.process == sysmodel::kInvalidProcess) {
          *error = where + "unknown process '" + patch.target + "'";
          return JsonValue::null();
        }
        break;
      }
    }
  }
  for (std::size_t i = 0; i < request.patches.size(); ++i) {
    const PatchOp& patch = request.patches[i];
    std::string apply_error;
    bool ok = false;
    switch (patch.kind) {
      case PatchOp::Kind::kSelect:
        ok = analyzer.select_implementation(
            resolved[i].process, static_cast<std::size_t>(patch.value),
            &apply_error);
        break;
      case PatchOp::Kind::kProcessLatency:
        ok = analyzer.set_latency(resolved[i].process, patch.value,
                                  &apply_error);
        break;
      case PatchOp::Kind::kChannelLatency:
        ok = analyzer.set_channel_latency(resolved[i].channel, patch.value,
                                          &apply_error);
        break;
      case PatchOp::Kind::kRetarget:
        ok = analyzer.retarget_channel(resolved[i].channel,
                                       resolved[i].process, &apply_error);
        break;
    }
    // Pre-validation mirrors the analyzer's own checks, so a failure here
    // means the two fell out of sync — surface it loudly instead of
    // answering from a half-patched session.
    if (!ok) {
      throw std::runtime_error("patch " + std::to_string(i) +
                               " failed after validation: " + apply_error);
    }
  }
  obs::count("svc.sessions.patches",
             static_cast<std::int64_t>(request.patches.size()));
  const comp::PartitionedReport& part = analyzer.analyze();
  JsonValue result = session_report_json(part, analyzer);
  result.set("session", JsonValue::string(request.session));
  result.set("patched", JsonValue::integer(
                            static_cast<std::int64_t>(request.patches.size())));
  return result;
}

JsonValue Broker::run_close_session(const Request& request, std::string* error,
                                    ErrorCode* code) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  const auto it = sessions_.find(request.session);
  if (it == sessions_.end()) {
    *code = ErrorCode::kBadRequest;
    *error = "unknown session '" + request.session + "'";
    return JsonValue::null();
  }
  sessions_.erase(it);
  obs::count("svc.sessions.closed");
  JsonValue result = JsonValue::object();
  result.set("session", JsonValue::string(request.session));
  result.set("closed", JsonValue::boolean(true));
  return result;
}

namespace {

// Stats-plane view of one HDR quantile instrument (nanosecond values).
JsonValue quantile_json(const obs::QuantileSnapshot& q) {
  JsonValue v = JsonValue::object();
  v.set("count", JsonValue::integer(q.count));
  v.set("mean_ns", JsonValue::number(q.mean()));
  v.set("p50_ns", JsonValue::integer(q.quantile(0.50)));
  v.set("p90_ns", JsonValue::integer(q.quantile(0.90)));
  v.set("p99_ns", JsonValue::integer(q.quantile(0.99)));
  v.set("p999_ns", JsonValue::integer(q.quantile(0.999)));
  v.set("max_ns", JsonValue::integer(q.count > 0 ? q.max : 0));
  return v;
}

}  // namespace

bool Broker::save_cache(std::string* error) {
  if (options_.cache_file.empty()) return true;
  // The snapshot writer stages through one fixed tmp path, so every save
  // path (background saver, shutdown save, cache_save op) serializes here.
  std::lock_guard<std::mutex> lock(save_mu_);
  const std::int64_t misses = env_.cache.misses();
  if (misses == saved_misses_) return true;  // nothing inserted since last save
  if (!env_.cache.save_snapshot(options_.cache_file, error)) return false;
  saved_misses_ = misses;
  cache_saves_.fetch_add(1, std::memory_order_relaxed);
  obs::count("svc.cache.saves");
  return true;
}

JsonValue Broker::run_cache_save(std::string* error, ErrorCode* code) {
  if (options_.cache_file.empty()) {
    *error = "no --cache-file configured on this daemon";
    *code = ErrorCode::kBadRequest;
    return JsonValue();
  }
  std::string save_error;
  bool saved;
  {
    // An explicit request always writes (the client may want the file's
    // mtime refreshed), unlike the idle-skipping periodic save.
    std::lock_guard<std::mutex> lock(save_mu_);
    saved = env_.cache.save_snapshot(options_.cache_file, &save_error);
    if (saved) saved_misses_ = env_.cache.misses();
  }
  if (!saved) {
    // An I/O failure on a configured path is the daemon's problem, not the
    // client's; surface it through the internal-error path.
    throw std::runtime_error("cache_save: " + save_error);
  }
  JsonValue out = JsonValue::object();
  out.set("path", JsonValue::string(options_.cache_file));
  out.set("entries",
          JsonValue::integer(static_cast<std::int64_t>(env_.cache.size())));
  out.set("bytes", JsonValue::integer(env_.cache.bytes()));
  return out;
}

JsonValue Broker::run_stats(int version) {
  const Stats s = stats();
  JsonValue broker = JsonValue::object();
  broker.set("accepted", JsonValue::integer(s.accepted));
  broker.set("completed", JsonValue::integer(s.completed));
  broker.set("bad_requests", JsonValue::integer(s.bad_requests));
  broker.set("rejected_overloaded",
             JsonValue::integer(s.rejected_overloaded));
  broker.set("rejected_shutting_down",
             JsonValue::integer(s.rejected_shutting_down));
  broker.set("deadline_exceeded", JsonValue::integer(s.deadline_exceeded));
  broker.set("internal_errors", JsonValue::integer(s.internal_errors));
  broker.set("waiting", JsonValue::integer(s.waiting));
  broker.set("in_flight", JsonValue::integer(s.in_flight));
  broker.set("sessions", JsonValue::integer(s.sessions));
  broker.set("queue_depth",
             JsonValue::integer(
                 static_cast<std::int64_t>(options_.queue_depth)));
  broker.set("workers",
             JsonValue::integer(static_cast<std::int64_t>(pool_.jobs() - 1)));
  // v2-only members: the v1 broker body stays byte-identical for clients
  // that snapshot or diff it.
  if (version >= 2) {
    broker.set("coalesced", JsonValue::integer(s.coalesced));
    broker.set("cache_saves", JsonValue::integer(s.cache_saves));
  }

  JsonValue cache = JsonValue::object();
  cache.set("hits", JsonValue::integer(env_.cache.hits()));
  cache.set("misses", JsonValue::integer(env_.cache.misses()));
  cache.set("hit_rate", JsonValue::number(env_.cache.hit_rate()));
  cache.set("entries",
            JsonValue::integer(static_cast<std::int64_t>(env_.cache.size())));

  // v2 additions. The v1 response keeps exactly the original shape — old
  // clients that snapshot or diff the stats body never see a new member —
  // while a v2 `stats` adds per-shard cache counters, request-latency
  // percentiles (overall and per op), sliding-window rates, and the
  // process-wide solver counters.
  if (version >= 2) {
    JsonValue shards = JsonValue::array();
    for (const analysis::EvalCache::ShardStats& shard :
         env_.cache.shard_stats()) {
      JsonValue row = JsonValue::object();
      row.set("entries",
              JsonValue::integer(static_cast<std::int64_t>(shard.entries)));
      row.set("hits", JsonValue::integer(shard.hits));
      row.set("misses", JsonValue::integer(shard.misses));
      row.set("bytes", JsonValue::integer(shard.bytes));
      shards.push_back(std::move(row));
    }
    cache.set("shards", std::move(shards));
    cache.set("window_hit_rate",
              JsonValue::number(env_.cache.window_hit_rate()));
    // Capacity plane: tracked bytes vs the configured budget (0 =
    // unbounded), eviction traffic, and warm-restore provenance.
    cache.set("bytes", JsonValue::integer(env_.cache.bytes()));
    cache.set("byte_budget", JsonValue::integer(env_.cache.byte_budget()));
    cache.set("evictions", JsonValue::integer(env_.cache.evictions()));
    cache.set("admission_rejects",
              JsonValue::integer(env_.cache.admission_rejects()));
    cache.set("restored",
              JsonValue::integer(static_cast<std::int64_t>(cache_restored_)));
  }

  JsonValue out = JsonValue::object();
  out.set("protocol_version", JsonValue::integer(kProtocolVersion));
  if (version >= 2) {
    out.set("build", JsonValue::string(util::build_info()));
  }
  out.set("broker", std::move(broker));
  out.set("cache", std::move(cache));

  if (version >= 2) {
    obs::Registry& registry = obs::Registry::global();
    out.set("latency",
            quantile_json(registry.quantile("svc.request_ns").snapshot()));
    out.set("queue_wait",
            quantile_json(registry.quantile("svc.queue_wait_ns").snapshot()));

    // Per-op latency percentiles: every svc.op_ns.<op> instrument observed
    // so far (ops never requested are absent, not zero).
    JsonValue ops = JsonValue::object();
    constexpr std::string_view kOpPrefix = "svc.op_ns.";
    for (const obs::Registry::Entry& entry : registry.entries()) {
      if (entry.kind != obs::Registry::Entry::Kind::kQuantile) continue;
      if (entry.name.rfind(kOpPrefix, 0) != 0) continue;
      ops.set(entry.name.substr(kOpPrefix.size()), quantile_json(entry.qhist));
    }
    out.set("ops", std::move(ops));

    JsonValue window = JsonValue::object();
    window.set("seconds",
               JsonValue::integer(window_requests_.window_seconds()));
    window.set("requests", JsonValue::integer(window_requests_.sum()));
    window.set("rps", JsonValue::number(window_requests_.rate_per_sec()));
    window.set("cache_hit_rate",
               JsonValue::number(env_.cache.window_hit_rate()));
    out.set("window", std::move(window));

    // Process-wide CSR solver counters (the registry mirror of
    // tmg::CycleMeanSolver::Stats, aggregated across every solver).
    JsonValue solver = JsonValue::object();
    for (const char* key :
         {"compiles", "weight_refreshes", "solves", "iterations",
          "cap_hits"}) {
      solver.set(key, JsonValue::integer(
                          registry.counter(std::string("tmg.solver.") + key)
                              .value()));
    }
    out.set("solver", std::move(solver));
  }

  // The obs registry snapshot is already JSON; splice it in verbatim.
  out.set("metrics", JsonValue::raw(obs::Registry::global().to_json()));
  return out;
}

JsonValue Broker::run_metrics() {
  // The full registry in Prometheus text exposition, plus the labeled series
  // a flat name registry cannot express: per-shard cache counters and the
  // sliding-window rates.
  std::string body = obs::render_prometheus();
  const std::vector<analysis::EvalCache::ShardStats> shards =
      env_.cache.shard_stats();
  body += "# TYPE ermes_cache_shard_entries gauge\n";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    body += "ermes_cache_shard_entries{shard=\"" + std::to_string(i) +
            "\"} " + std::to_string(shards[i].entries) + "\n";
  }
  body += "# TYPE ermes_cache_shard_hits counter\n";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    body += "ermes_cache_shard_hits_total{shard=\"" + std::to_string(i) +
            "\"} " + std::to_string(shards[i].hits) + "\n";
  }
  body += "# TYPE ermes_cache_shard_misses counter\n";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    body += "ermes_cache_shard_misses_total{shard=\"" + std::to_string(i) +
            "\"} " + std::to_string(shards[i].misses) + "\n";
  }
  body += "# TYPE ermes_cache_shard_bytes gauge\n";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    body += "ermes_cache_shard_bytes{shard=\"" + std::to_string(i) + "\"} " +
            std::to_string(shards[i].bytes) + "\n";
  }
  body += "# TYPE ermes_cache_bytes gauge\n";
  body += "ermes_cache_bytes " + std::to_string(env_.cache.bytes()) + "\n";
  body += "# TYPE ermes_cache_byte_budget gauge\n";
  body += "ermes_cache_byte_budget " +
          std::to_string(env_.cache.byte_budget()) + "\n";
  body += "# TYPE ermes_cache_evictions counter\n";
  body += "ermes_cache_evictions_total " +
          std::to_string(env_.cache.evictions()) + "\n";
  body += "# TYPE ermes_svc_window_rps gauge\n";
  body += "ermes_svc_window_rps " +
          obs::json_number(window_requests_.rate_per_sec()) + "\n";
  body += "# TYPE ermes_cache_window_hit_rate gauge\n";
  body += "ermes_cache_window_hit_rate " +
          obs::json_number(env_.cache.window_hit_rate()) + "\n";

  JsonValue out = JsonValue::object();
  out.set("content_type",
          JsonValue::string("text/plain; version=0.0.4; charset=utf-8"));
  out.set("body", JsonValue::string(body));
  // `text` is the member `ermes request --text` prints raw, so a scrape is
  // just `ermes request <endpoint> metrics --text`.
  out.set("text", JsonValue::string(body));
  return out;
}

}  // namespace ermes::svc
