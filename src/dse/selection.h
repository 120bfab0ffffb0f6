#pragma once
// Implementation-selection primitives shared by the two DSE problems.
//
// A "move" swaps a process' selected Pareto implementation. Following the
// paper's Section 5, each candidate (process p, implementation i) is scored
// by its latency gain l_{i,p} (current latency - i's latency; positive means
// faster) and its area gain a_{i,p} (current area - i's area; positive means
// smaller). Pareto optimality ties the two: positive area gain implies
// non-positive latency gain and vice versa.

#include <cstdint>
#include <functional>
#include <vector>

#include "sysmodel/system.h"

namespace ermes::dse {

struct Candidate {
  std::size_t impl_index = 0;
  std::int64_t latency_gain = 0;  // current latency - candidate latency
  double area_gain = 0.0;         // current area - candidate area
};

/// All candidates of process p, including the no-op (current selection,
/// gains zero). Processes without Pareto sets yield only the no-op.
std::vector<Candidate> candidates_of(const sysmodel::SystemModel& sys,
                                     sysmodel::ProcessId p);

/// Per-process candidate lists for the whole system (slot p holds process
/// p's list), with `filter` applied to each process' list (policy pruning,
/// ring caps).
std::vector<std::vector<Candidate>> candidate_lists(
    const sysmodel::SystemModel& sys,
    const std::function<void(sysmodel::ProcessId, std::vector<Candidate>&)>&
        filter);

/// A full selection: implementation index per process.
using SelectionVector = std::vector<std::size_t>;

/// Current selection of the model (0 for processes without Pareto sets).
SelectionVector current_selection(const sysmodel::SystemModel& sys);

/// Applies a selection to the model. Returns true if anything changed.
bool apply_selection(sysmodel::SystemModel& sys,
                     const SelectionVector& selection);

/// Sum of the latencies of all channels incident to p — the process ring of
/// the TMG contributes ring(p) = ring_io_latency(p) + latency(p) to the
/// cycle time lower bound. The selection problems use it to avoid swaps
/// that would obviously create a new critical cycle above the target.
std::int64_t ring_io_latency(const sysmodel::SystemModel& sys,
                             sysmodel::ProcessId p);

}  // namespace ermes::dse
