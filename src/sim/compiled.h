#pragma once
// Compiled batch simulation engine.
//
// The legacy Kernel carries names, behaviors, deques of Packets, and a
// std::function trace hook through every event — fine for one interactive
// run, fatal for a sweep that simulates one structure under hundreds of
// latency/capacity scenarios. CompiledSim is the simulator counterpart of
// tmg::CsrGraph: the SystemModel is compiled once into string-free SoA
// index arrays (flattened three-phase programs, channel endpoints, base
// weights), and each run resolves a SimScenario's weight overrides against
// that structure. Channel FIFOs become occupancy counters (timing-only
// simulation never inspects payloads), and the event heap becomes a
// bucketed calendar queue (sim/event_queue.h) with a binary-heap overflow
// for sparse timelines.
//
// Layout of an Instance (the per-run state):
//  - ProcHot / ChanHot: one packed record per process / channel holding
//    everything an event touches (status, pc, clocks, occupancy, stall
//    counters).
//  - WaitHistograms (sim/wait_histograms.h): the per-channel put/get wait
//    distributions, one 64-byte record per channel side with a few inline
//    (bucket, count) cells; the rare side that hits more buckets spills into
//    a dense overflow block. No dense obs::HistogramData is kept per
//    channel anywhere in a run.
//  - util::EventTimes: the observed channel's transfer times, with the
//    periods a steady-state jump skips stored once, not once per period.
//  - Period snapshot: copies of the records and wait histograms at the
//    start of a candidate period, compared and differenced in O(state).
// A ScenarioResult carries the same compact WaitHistograms (moved out of
// the Instance, not copied); dense histograms are built only for the
// consumers that need them — publish_metrics(), to_stall_report() and
// results_bit_identical().
//
// Contract: a CompiledSim run is bit-identical, step for step, to a legacy
// Kernel run of the same model+scenario — same event tie-break
// (time, index, kind), same stall accounting, same histograms (compared in
// dense form), same deadlock cycle, same measured cycle time to the bit.
// run_legacy_kernel() produces the oracle ScenarioResult and
// results_bit_identical() is the comparison both the differential suite and
// bench_sim enforce.
//
// simulate_batch() sweeps k scenarios over one compiled structure on an
// exec::ThreadPool: one reusable Instance per worker slot (allocations
// amortize across the scenarios a slot processes), results written by
// scenario index, so the output order is deterministic at any job count.

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "sim/program.h"
#include "sim/stall_report.h"
#include "sim/wait_histograms.h"
#include "sysmodel/system.h"
#include "util/period.h"

namespace ermes::exec {
class ThreadPool;
}  // namespace ermes::exec

namespace ermes::sim {

/// One point of a sweep: per-process / per-channel weight overrides applied
/// to the compiled base structure. An empty vector keeps the base values; a
/// non-empty one must cover every process (resp. channel). Capacities use
/// the SystemModel convention: 0 = rendezvous, k > 0 = FIFO,
/// sysmodel::kUnboundedCapacity = unbounded.
struct SimScenario {
  std::vector<std::int64_t> process_latency;
  std::vector<std::int64_t> channel_latency;
  std::vector<std::int64_t> channel_capacity;
};

/// Final per-process state + statistics, index-aligned with the model.
struct ScenarioProcessStats {
  std::int64_t pc = 0;  // program counter within the process program
  std::uint8_t status = 0;  // ProcessState::Status as int
  std::int64_t loop_iterations = 0;
  std::int64_t stall_cycles = 0;
  std::int64_t compute_cycles = 0;
  std::array<std::int64_t, 4> cycles_in_status{};
};

struct ScenarioChannelStats {
  std::int64_t transfers = 0;
  std::int64_t last_transfer_at = -1;
  std::int64_t buffered = 0;  // items still in the FIFO at run end
  std::int64_t blocked_puts = 0;
  std::int64_t blocked_gets = 0;
  std::int64_t put_wait_cycles = 0;
  std::int64_t get_wait_cycles = 0;
  std::int64_t peak_occupancy = 0;
};

/// Everything a Kernel run would report, as string-free PODs: the RunResult
/// aggregates plus the full final marking and stall accounting. This is the
/// unit of bit-identity between the two engines. The per-channel wait
/// distributions live in `waits` in compact form; waits.dense(c, side)
/// rebuilds the obs::HistogramData a Kernel channel holds.
struct ScenarioResult {
  std::int64_t cycles = 0;
  std::int64_t observed_count = 0;
  double measured_cycle_time = 0.0;
  double throughput = 0.0;
  bool deadlocked = false;
  std::int64_t deadlock_at = 0;
  std::vector<SimProcessId> deadlock_processes;
  std::vector<SimChannelId> deadlock_channels;
  bool hit_cycle_limit = false;
  std::vector<ScenarioProcessStats> processes;
  std::vector<ScenarioChannelStats> channels;
  WaitHistograms waits;
};

struct BatchOptions {
  /// Channel whose completed transfers stop the run; -1 = the compiled
  /// default (first input of the first sink, matching simulate_system).
  SimChannelId observe = -1;
  std::int64_t target_transfers = 200;
  std::int64_t max_cycles = 100'000'000;
  /// Deterministic TMG runs settle into an exact periodic orbit. When true,
  /// the engine watches for a recurrence of its full (time-relative) state
  /// at observation boundaries and, on a hit, jumps whole periods at once:
  /// every counter and histogram advances by n x its per-period delta, all
  /// clocks shift by n x the period, and the tail is simulated normally.
  /// The jump is exact — results stay bit-identical to a full Kernel run
  /// (the differential suite and bench_sim assert this); turning it off
  /// only forces the event loop to grind through every period.
  bool detect_period = true;
};

class CompiledSim {
 public:
  explicit CompiledSim(const sysmodel::SystemModel& sys);

  std::int32_t num_processes() const {
    return static_cast<std::int32_t>(code_begin_.size()) - 1;
  }
  std::int32_t num_channels() const {
    return static_cast<std::int32_t>(producer_.size());
  }
  SimChannelId default_observe() const { return default_observe_; }

  /// A reusable run context: all SoA state + the event queue, sized once
  /// for the compiled structure and reset per run(). One Instance per
  /// thread; run() is not reentrant.
  class Instance {
   public:
    explicit Instance(const CompiledSim& sim);
    ScenarioResult run(const SimScenario& scenario, const BatchOptions& opts);
    /// Observation times the last run() held in memory: the transient, one
    /// period and the tail. Periods a steady-state jump skipped are not
    /// stored, so this stays far below the observed count.
    std::size_t observations_stored() const {
      return observed_times_.stored();
    }

   private:
    enum Status : std::uint8_t {
      kReady = 0,
      kComputing = 1,
      kWaiting = 2,
      kTransferring = 3
    };

    void prepare(const SimScenario& scenario);
    void take_period_snapshot();
    bool matches_period_snapshot() const;
    bool try_period_jump(std::int64_t observed_target,
                         const BatchOptions& opts);
    void advance(SimProcessId p);
    void set_status(SimProcessId p, Status status);
    void try_rendezvous(SimChannelId c);
    void complete_transfer(SimChannelId c);
    void try_fifo_put(SimChannelId c);
    void try_fifo_get(SimChannelId c);
    void complete_fifo_write(SimChannelId c);
    void record_observation(SimChannelId c);
    void push_event(std::int64_t time, std::uint32_t key);
    void detect_deadlock(ScenarioResult& result) const;
    void snapshot(ScenarioResult& result) const;

    // Hot per-entity state is packed, not field-per-vector: one event
    // touches most of a process's (or channel's) fields together, so a
    // compact record costs one or two cache lines where parallel arrays
    // cost one line *per field*. This is the kernel's AoS layout minus
    // everything cold — names, deque<Packet>, behaviors, trace hooks.
    struct ProcHot {
      std::array<std::int64_t, 4> cycles_in_status{};
      std::int64_t wake_at = 0;
      std::int64_t status_since = 0;
      std::int64_t stall_cycles = 0;
      std::int64_t compute_cycles = 0;
      std::int64_t loop_iterations = 0;
      std::int32_t pc = 0;  // absolute index into sim_.code_
      std::int32_t waiting_on = -1;
      std::uint8_t status = 0;
    };
    struct ChanHot {
      // First line: the transfer fast path.
      std::int32_t producer = -1;
      std::int32_t consumer = -1;
      std::uint8_t producer_waiting = 0;
      std::uint8_t consumer_waiting = 0;
      std::uint8_t transfer_in_progress = 0;
      std::int64_t latency = 0;
      std::int64_t capacity = 0;  // scenario-resolved; unbounded -> int64 max
      std::int64_t buffered = 0;  // replaces the kernel's deque<Packet>
      std::int64_t writes_in_flight = 0;
      std::int64_t producer_wait_since = 0;
      std::int64_t consumer_wait_since = 0;
      // Second line: statistics.
      std::int64_t producer_stall = 0;
      std::int64_t consumer_stall = 0;
      std::int64_t transfers_completed = 0;
      std::int64_t last_transfer_at = -1;
      std::int64_t blocked_puts = 0;
      std::int64_t blocked_gets = 0;
      std::int64_t peak_occupancy = 0;
    };

    const CompiledSim& sim_;

    std::vector<std::int64_t> proc_latency_;  // scenario-resolved
    std::vector<ProcHot> procs_;
    std::vector<ChanHot> chans_;
    // Only touched when a wait episode closes — parked outside the hot
    // records.
    WaitHistograms waits_;

    CalendarQueue queue_;
    // Same-instant working set: pop_at() drains into scratch_, which is
    // heapified by key; events pushed for the current instant while it is
    // being processed join the heap, reproducing the kernel's pop order.
    std::vector<std::uint32_t> scratch_;
    util::EventTimes observed_times_;
    std::int64_t now_ = 0;
    bool in_instant_ = false;
    SimChannelId observe_ = -1;

    // Periodic steady-state detection (BatchOptions::detect_period): a
    // doubling-cadence snapshot of the full engine state, taken and
    // compared at observation boundaries. The copies double as the "state
    // at period start" the jump differences against; buffers persist
    // across runs so snapshots are pure memcpy.
    std::vector<ProcHot> snap_procs_;
    std::vector<ChanHot> snap_chans_;
    WaitHistograms snap_waits_;
    std::vector<std::pair<std::int64_t, std::uint32_t>> requeue_;
    std::int64_t snap_now_ = 0;
    std::int64_t snap_obs_ = 0;
    std::size_t snap_times_ = 0;
    std::size_t snap_queue_size_ = 0;
    bool snap_valid_ = false;
  };

 private:
  friend class Instance;

  // Flattened statement: kind 0 = get, 1 = put (arg = channel),
  // 2 = compute (arg = process; cycles resolve through the scenario's
  // process-latency array, which is what makes latency sweeps possible on
  // one compiled structure).
  struct Stmt {
    std::int32_t arg;
    std::uint8_t kind;
  };
  static constexpr std::uint8_t kStmtGet = 0;
  static constexpr std::uint8_t kStmtPut = 1;
  static constexpr std::uint8_t kStmtCompute = 2;

  std::vector<Stmt> code_;
  std::vector<std::int32_t> code_begin_;  // size P+1; program p = [begin[p], begin[p+1])
  std::vector<std::int32_t> producer_;
  std::vector<std::int32_t> consumer_;
  std::vector<std::int64_t> base_proc_latency_;
  std::vector<std::int64_t> base_chan_latency_;
  std::vector<std::int64_t> base_chan_capacity_;
  SimChannelId default_observe_ = -1;
  std::int64_t max_base_latency_ = 0;
};

/// Runs every scenario against the compiled structure. `pool` = nullptr
/// runs serially on the caller (still through the compiled engine); with a
/// pool, scenarios fan out with one Instance per worker slot. Results are
/// index-aligned with `scenarios` regardless of scheduling.
std::vector<ScenarioResult> simulate_batch(
    const CompiledSim& sim, const std::vector<SimScenario>& scenarios,
    const BatchOptions& opts = {}, exec::ThreadPool* pool = nullptr);

/// The differential oracle: applies `scenario` to a copy of `sys`, runs the
/// legacy Kernel, and snapshots the same ScenarioResult shape.
ScenarioResult run_legacy_kernel(const sysmodel::SystemModel& sys,
                                 const SimScenario& scenario,
                                 const BatchOptions& opts = {});

/// Exact comparison: integers by value, doubles by bit pattern, histograms
/// field-for-field.
bool results_bit_identical(const ScenarioResult& a, const ScenarioResult& b);

/// Resolves names back in for reporting: the same StallReport shape
/// collect_stalls() builds from a Kernel.
StallReport to_stall_report(const sysmodel::SystemModel& sys,
                            const ScenarioResult& result);

/// Merges one scenario's statistics into the global telemetry registry
/// under `prefix`, mirroring Kernel::publish_metrics (plus per-channel
/// peak-occupancy high-water gauges). No-op when telemetry is disabled.
void publish_metrics(const sysmodel::SystemModel& sys,
                     const ScenarioResult& result,
                     std::string_view prefix = "sim");

}  // namespace ermes::sim
