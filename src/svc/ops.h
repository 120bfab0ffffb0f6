#pragma once
// The four model ops of ERMES — analyze, order, explore, sweep — with no
// transport attached. `ermes serve` (svc::Broker) runs them after admission
// and deadline setup; the CLI runs them on a Request built from argv. A
// daemon response and a local run therefore carry the same result from one
// implementation.

#include <cstdint>
#include <functional>
#include <string>

#include "analysis/eval_cache.h"
#include "exec/worker_slots.h"
#include "io/soc_format.h"
#include "svc/json.h"
#include "svc/protocol.h"
#include "tmg/csr.h"

namespace ermes::svc {

/// What the ops run against: one memo, one warm CSR solver per executing
/// slot (exec::current_worker_slot()), and the threads a sweep spreads its
/// targets over.
struct OpEnv {
  /// `slots`: the threads that may run ops at once (the host pool's jobs();
  /// 1 for a single-threaded caller). `jobs`: dse::sweep's target
  /// parallelism (1 = serial, as in the daemon, whose unit of parallelism
  /// is the request; <= 0 = all cores). `cache_bytes` bounds the memo
  /// (0 = unbounded).
  OpEnv(std::size_t slots, int jobs, std::int64_t cache_bytes = 0);

  analysis::EvalCache cache;
  exec::SlotLocal<tmg::CycleMeanSolver> solvers;
  int jobs = 1;
};

struct OpResult {
  /// The response's `result` object; its `text` is the CLI command's
  /// stdout. Null after a parse error or cancellation.
  JsonValue result;
  std::string soc_error;   // the model text did not parse
  bool cancelled = false;  // should_stop fired first
};

/// Parses the request's model text through the grammar `hier` selects,
/// timed as the request's `parse` stage.
io::ParseResult parse_model(const Request& request);

/// Runs an analyze, order, explore or sweep request (anything else throws
/// std::invalid_argument). `should_stop` is polled between DSE iterations;
/// it is per call because concurrent requests carry their own deadlines.
OpResult run_op(const Request& request, OpEnv& env,
                const std::function<bool()>& should_stop = {});

}  // namespace ermes::svc
