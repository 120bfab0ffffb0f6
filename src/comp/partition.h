#pragma once
// SCC-partitioned performance analysis.
//
// Cycles never cross strongly connected components, so the cycle time of a
// system is the fold of independent per-SCC maximum cycle ratios
// (tmg::fold_cycle_ratio). This module compiles the elaborated TMG into the
// CSR engine (tmg::CycleMeanSolver, whose plan holds the Tarjan partition),
// solves each component with Howard independently — in parallel on an
// exec::ThreadPool, and memoized per component through the EvalCache aux
// memo — and assembles a PerformanceReport that is bit-identical to the
// monolithic analysis::analyze, plus per-component provenance: which
// processes and channels each SCC spans, each component's own cycle ratio,
// and its slack against the critical component.
//
// Partitioning pays off on *decoupled* systems: subsystems joined only by
// unbounded (feed-forward) channels fall into separate components, so a
// local change re-solves locally. That is exactly the structure the
// hierarchy layer (comp/flatten.h) produces for communication-centric SoCs,
// and what comp::IncrementalAnalyzer exploits across patches.

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/eval_cache.h"
#include "analysis/performance.h"
#include "analysis/tmg_builder.h"
#include "exec/thread_pool.h"
#include "graph/scc.h"
#include "sysmodel/system.h"
#include "tmg/csr.h"
#include "tmg/cycle_ratio.h"

namespace ermes::comp {

/// Provenance of one strongly connected component of the ratio graph.
struct SccInfo {
  /// Member transitions (ratio-graph nodes) in Tarjan member order.
  std::vector<tmg::TransitionId> transitions;
  /// System-level footprint: processes with a compute transition in the
  /// component and channels with a transition in it (sorted, deduplicated).
  std::vector<sysmodel::ProcessId> processes;
  std::vector<sysmodel::ChannelId> channels;

  /// The component's own maximum cycle ratio — its cycle time in isolation.
  /// has_cycle is false for trivial components with no self-loop.
  bool has_cycle = false;
  std::int64_t num = 0;
  std::int64_t den = 1;
  double cycle_ratio = 0.0;

  /// Global cycle time minus this component's ratio (0 for the critical
  /// component and for components without cycles): how much this component
  /// could slow down before it changes the system's throughput.
  double slack = 0.0;

  /// True when this component's solve was served from the cache's aux memo.
  bool from_cache = false;
};

struct PartitionedReport {
  /// Bit-identical to analysis::analyze on the same TMG.
  analysis::PerformanceReport report;

  /// One entry per SCC, indexed by component id (reverse topological order).
  std::vector<SccInfo> sccs;
  /// Component owning the critical cycle; -1 when the system has no cycle
  /// or is not live.
  std::int32_t critical_scc = -1;

  /// Components solved by Howard this call vs served from the aux memo.
  int solved = 0;
  int reused = 0;
};

struct PartitionOptions {
  /// Solve components in parallel when non-null. Must not be set when the
  /// caller already runs inside a task of the same pool (nested parallelism
  /// is rejected by exec::ThreadPool).
  exec::ThreadPool* pool = nullptr;
  /// Memoize per-component solves through the aux memo when non-null.
  analysis::EvalCache* cache = nullptr;
  /// Caller-owned CSR solver (see tmg/csr.h); nullptr = a call-local one.
  /// A caller-owned solver keeps the compiled structure, SCC partition, and
  /// per-worker workspaces across calls, so repeated analyses of the same
  /// topology skip compilation and Tarjan entirely. Results are identical
  /// either way. The solver must not be shared with a concurrent analysis;
  /// its workspace bank is sized to the pool. When `pool` is set, call from
  /// a thread that is not a worker of some other pool — the calling thread
  /// claims workspace slot 0.
  tmg::CycleMeanSolver* solver = nullptr;
};

/// Analyzes a pre-built TMG through the partitioned path.
PartitionedReport analyze_partitioned(const analysis::SystemTmg& stmg,
                                      const PartitionOptions& options = {});

/// Builds the TMG of `sys` and analyzes it partitioned.
PartitionedReport analyze_partitioned(const sysmodel::SystemModel& sys,
                                      const PartitionOptions& options = {});

/// Memoized analysis::analyze_system routed through the partitioned engine:
/// whole-report memo first (same key as EvalCache::analyze), then per-SCC
/// memos on a miss. Results are bit-identical to cache.analyze(sys) — the
/// two share report entries freely. Thread-safe given distinct solvers.
/// Per-SCC misses solve through `solver` (nullptr = a call-local one); see
/// PartitionOptions::solver for the ownership and threading rules.
analysis::PerformanceReport analyze_cached(const sysmodel::SystemModel& sys,
                                           analysis::EvalCache& cache,
                                           tmg::CycleMeanSolver* solver = nullptr);

/// Fingerprint of one component's solve inputs: member nodes and every
/// internal arc's id, head, weight, and tokens (tag-separated from the other
/// memo families). Two components with equal fingerprints have equal solves
/// — including the critical-cycle arc ids, which are absolute.
std::uint64_t scc_fingerprint(const tmg::CsrGraph& csr,
                              const std::vector<std::int32_t>& component,
                              std::int32_t comp_id,
                              const std::vector<graph::NodeId>& members);

/// Aux-memo payload codec for a per-SCC CycleRatioResult:
/// [has_cycle, num, den, critical arc ids...]. decode returns false on a
/// malformed payload.
std::vector<std::int64_t> encode_scc_result(const tmg::CycleRatioResult& r);
bool decode_scc_result(const std::vector<std::int64_t>& payload,
                       tmg::CycleRatioResult* out);

/// Solves one component through the prepared solver using the calling
/// thread's workspace slot (exec::current_worker_slot), consulting and
/// filling the cache's aux memo when `cache` is non-null. `*from_cache`
/// (optional) reports a memo hit. Safe to call concurrently for different
/// components from distinct worker slots.
tmg::CycleRatioResult solve_scc(const tmg::CycleMeanSolver& solver,
                                std::int32_t comp_id,
                                analysis::EvalCache* cache,
                                bool* from_cache = nullptr);

/// Folds per-component results (ascending component id) into the full
/// report + provenance. `per_scc[c]` must be component c's own result.
/// Assumes a live TMG (callers gate on liveness first). solved/reused/
/// from_cache are left for the caller to fill.
PartitionedReport assemble_partitioned(
    const analysis::SystemTmg& stmg, const graph::SccResult& sccs,
    const std::vector<tmg::CycleRatioResult>& per_scc);

/// Human-readable per-component breakdown (for logs and the CLI).
std::string summarize_partitioned(const PartitionedReport& part,
                                  const sysmodel::SystemModel& sys);

}  // namespace ermes::comp
