#pragma once
// Request-scoped telemetry context.
//
// A RequestContext carries one wire request's identity (its protocol id and
// op) from broker admission down through every layer that does work on its
// behalf — EvalCache probes, partitioned analysis, the CSR solver — without
// threading a parameter through each signature: the broker installs the
// context in a thread-local slot (RequestScope) for the duration of the
// request's execution, and the layers below attribute their time to it
// through StageTimer. Requests execute serially on one pool worker
// (parallelism lives at the request level in the service), so the
// thread-local scope covers the whole call tree.
//
// Two consumers read the accumulated context:
//
//   * the slow-request log — when a request exceeds the broker's threshold,
//     its NDJSON line carries the per-stage breakdown (queue-wait, parse,
//     cache-probe, solve, render), so "why was THIS request slow" is
//     answerable from one log line;
//   * span sampling — `traced` gates ObsSpan creation on this thread, so
//     under load only every Nth request pays full tracing cost while
//     counters and histograms stay exact for all of them.
//
// Cost contract: with no context installed a StageTimer is one thread-local
// load and a branch (no clock read); out-of-request code (CLI, benches,
// tests) is unaffected.

#include <array>
#include <cstdint>
#include <string>

namespace ermes::obs {

/// Per-request pipeline stages, in request order. kCount is the array size.
enum class Stage : int {
  kQueueWait = 0,  // admission -> execution start (recorded by the broker)
  kParse,          // model text -> SystemModel
  kCacheProbe,     // EvalCache lookups
  kSolve,          // cycle-ratio solves (partitioned, incremental, or flat)
  kRender,         // result -> response text/JSON
  kCount,
};

inline constexpr int kNumStages = static_cast<int>(Stage::kCount);

/// Stable lower-case stage name ("queue_wait", "parse", ...).
const char* to_string(Stage stage);

struct RequestContext {
  std::string id;  // serialized wire id ("\"r1\"", "17", or "null")
  std::string op;  // protocol op name
  bool traced = true;  // false suppresses ObsSpan creation on this thread
  std::array<std::int64_t, kNumStages> stage_ns{};

  void add(Stage stage, std::int64_t ns) {
    stage_ns[static_cast<std::size_t>(stage)] += ns;
  }
  std::int64_t stage(Stage stage) const {
    return stage_ns[static_cast<std::size_t>(stage)];
  }
};

/// The context installed on this thread, or nullptr outside request scope.
RequestContext* current_request();

/// RAII installer: construction makes `ctx` the thread's current request,
/// destruction restores the previous one (scopes nest).
class RequestScope {
 public:
  explicit RequestScope(RequestContext* ctx);
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;
  ~RequestScope();

 private:
  RequestContext* prev_;
};

/// RAII stage attribution: adds the guarded scope's wall time to the current
/// request's stage accumulator. Free (no clock read) when no request context
/// is installed on this thread.
class StageTimer {
 public:
  explicit StageTimer(Stage stage);
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;
  ~StageTimer();

 private:
  RequestContext* ctx_;  // nullptr = inactive
  Stage stage_;
  std::int64_t start_ns_ = 0;
};

}  // namespace ermes::obs
