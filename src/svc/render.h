#pragma once
// Canonical text rendering of the model ops' results.
//
// svc::run_op (svc/ops.h) calls these and ships the string in the result's
// "text" member; the daemon sends it as is and the CLI prints it, so a
// daemon response carries exactly the stdout of the matching `ermes <cmd>`.
// Nothing else in production calls them (CI rejects calls from tools/);
// benches and tests call them to build expected answers.

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/performance.h"
#include "dse/explorer.h"
#include "sysmodel/system.h"

namespace ermes::svc {

/// `ermes analyze`: performance summary, or the deadlock diagnosis when the
/// system is not live (exactly the CLI stdout, trailing newline included).
std::string analyze_text(const sysmodel::SystemModel& sys,
                         const analysis::PerformanceReport& report);

/// `ermes order` without -o: the cycle-time delta line followed by the
/// serialized ordered system. `before_live` false renders "DEADLOCK" as the
/// pre-ordering cycle time.
std::string order_text(bool before_live, double before_ct,
                       const analysis::PerformanceReport& after,
                       const sysmodel::SystemModel& ordered,
                       const std::string& system_name);

/// `ermes dse`: the per-iteration history table plus the verdict line.
std::string explore_text(const dse::ExplorationResult& result);

/// `ermes sweep`: the per-target result table (the CLI additionally prints a
/// timing/cache line, which is run-dependent and deliberately excluded).
std::string sweep_text(const std::vector<std::int64_t>& targets,
                       const std::vector<dse::ExplorationResult>& results);

}  // namespace ermes::svc
