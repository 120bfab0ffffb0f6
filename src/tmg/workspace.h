#pragma once
// Caller-owned scratch memory for the CSR Howard solver (src/tmg/csr.h).
//
// The reference oracle's SccSolver re-`assign`s seven n-sized arrays on every
// construction (tests/lp_oracle/howard.cpp); on the DSE/serve hot paths that
// would be thousands of O(n) clears for solves that differ only in arc weights.
// A HowardWorkspace hoists those arrays out of the solver: they are resized
// once (monotonically — `ensure` only grows) and reused across solves.
//
// Two mechanisms make reuse safe without per-solve clears:
//
//  * `seen` / `done` are *stamped*: instead of resetting them between policy
//    evaluations, each evaluation draws a fresh stamp from `next_stamp()`
//    and treats "slot == stamp" as marked. The stamp is monotone across
//    solves, so stale entries from a previous solve (or a previous, smaller
//    graph) can never alias a current mark. On int32 overflow the arrays are
//    wiped and the stamp restarts — a once-per-2^31-evaluations event.
//  * `policy` / `lambda` / `value` / `cyc_w` / `cyc_t` are written before
//    they are read within every solve (init seeds `policy` for all members;
//    `evaluate` settles lambda/value/cyc_* for every member before `improve`
//    reads them), so stale values from earlier solves are dead data.
//
// Ownership rules: a workspace belongs to exactly one thread at a time;
// each CycleMeanSolver owns one. Workspaces may be reused across graphs of
// different sizes; `ensure` grows the arrays and stamps the fresh tail as
// "never marked".

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/digraph.h"

namespace ermes::tmg {

struct HowardWorkspace {
  // Per-node solver state (indexed by NodeId of the CSR graph).
  std::vector<std::int32_t> policy;  // chosen out-slot per node
  std::vector<double> lambda;        // cycle ratio reached by the policy
  std::vector<double> value;         // bias/potential per node
  std::vector<std::int64_t> cyc_w;   // weight sum of the reached cycle
  std::vector<std::int64_t> cyc_t;   // token sum of the reached cycle
  std::vector<std::int32_t> seen;    // stamped: on the current walk
  std::vector<std::int32_t> done;    // stamped: settled this evaluation

  // Traversal scratch (cleared, never shrunk).
  std::vector<graph::NodeId> walk;
  std::vector<std::int32_t> cycle;       // slots of the cycle being settled
  std::vector<std::int32_t> best_cycle;  // slots of the best cycle so far

  /// Grows every per-node array to at least `n` entries. Never shrinks, so
  /// one workspace serves graphs of any (monotone) size mix; fresh tail
  /// entries of the stamped arrays read as "never marked".
  void ensure(std::size_t n) {
    if (n <= capacity_) return;
    policy.resize(n);
    lambda.resize(n);
    value.resize(n);
    cyc_w.resize(n);
    cyc_t.resize(n);
    seen.resize(n, -1);
    done.resize(n, -1);
    capacity_ = n;
  }

  /// A stamp strictly greater than every stamp previously stored in
  /// `seen`/`done` (wiping both on int32 overflow).
  std::int32_t next_stamp() {
    if (stamp_ == std::numeric_limits<std::int32_t>::max()) {
      std::fill(seen.begin(), seen.end(), -1);
      std::fill(done.begin(), done.end(), -1);
      stamp_ = 0;
    }
    return ++stamp_;
  }

  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_ = 0;
  std::int32_t stamp_ = 0;
};

}  // namespace ermes::tmg
