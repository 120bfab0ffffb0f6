#include "sim/compiled.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>

#include "exec/thread_pool.h"
#include "exec/worker_slots.h"
#include "obs/span.h"
#include "sim/system_sim.h"
#include "util/log.h"
#include "util/period.h"

namespace ermes::sim {

namespace {

constexpr std::int64_t kUnboundedSlots =
    std::numeric_limits<std::int64_t>::max();

// Matches simulate_system's default: observe the first input channel of the
// first sink process, falling back to channel 0.
SimChannelId default_observe_channel(const sysmodel::SystemModel& sys) {
  const std::vector<sysmodel::ProcessId> sinks = sys.sinks();
  if (!sinks.empty() && !sys.input_order(sinks.front()).empty()) {
    return sys.input_order(sinks.front()).front();
  }
  return sys.num_channels() > 0 ? 0 : -1;
}

inline std::uint32_t wake_key(SimProcessId p) {
  return static_cast<std::uint32_t>(p) << 1;
}
inline std::uint32_t transfer_key(SimChannelId c) {
  return (static_cast<std::uint32_t>(c) << 1) | 1u;
}

}  // namespace

CompiledSim::CompiledSim(const sysmodel::SystemModel& sys) {
  const std::int32_t num_procs = sys.num_processes();
  const std::int32_t num_chans = sys.num_channels();
  code_begin_.reserve(static_cast<std::size_t>(num_procs) + 1);
  code_begin_.push_back(0);
  // Same program shapes as system_sim's program_for(): sources run
  // puts-then-compute, primed processes emit their outputs before the first
  // read, everyone else runs the canonical three-phase loop. Compute
  // statements store the process id so the scenario's latency vector is the
  // single source of compute cycles.
  for (sysmodel::ProcessId p = 0; p < num_procs; ++p) {
    const auto& gets = sys.input_order(p);
    const auto& puts = sys.output_order(p);
    const bool source_shape = gets.empty() && !puts.empty();
    const bool primed_shape = !source_shape && sys.primed(p) && !puts.empty();
    if (source_shape || primed_shape) {
      for (sysmodel::ChannelId c : puts) code_.push_back({c, kStmtPut});
      if (primed_shape) {
        for (sysmodel::ChannelId c : gets) code_.push_back({c, kStmtGet});
      }
      code_.push_back({p, kStmtCompute});
    } else {
      for (sysmodel::ChannelId c : gets) code_.push_back({c, kStmtGet});
      code_.push_back({p, kStmtCompute});
      for (sysmodel::ChannelId c : puts) code_.push_back({c, kStmtPut});
    }
    code_begin_.push_back(static_cast<std::int32_t>(code_.size()));
    base_proc_latency_.push_back(sys.latency(p));
  }
  producer_.reserve(static_cast<std::size_t>(num_chans));
  consumer_.reserve(static_cast<std::size_t>(num_chans));
  for (sysmodel::ChannelId c = 0; c < num_chans; ++c) {
    producer_.push_back(sys.channel_source(c));
    consumer_.push_back(sys.channel_target(c));
    base_chan_latency_.push_back(sys.channel_latency(c));
    base_chan_capacity_.push_back(sys.channel_capacity(c));
  }
  default_observe_ = default_observe_channel(sys);
  max_base_latency_ = 0;
  for (const std::int64_t lat : base_proc_latency_) {
    max_base_latency_ = std::max(max_base_latency_, lat);
  }
  for (const std::int64_t lat : base_chan_latency_) {
    max_base_latency_ = std::max(max_base_latency_, lat);
  }
}

CompiledSim::Instance::Instance(const CompiledSim& sim) : sim_(sim) {
  const auto num_procs = static_cast<std::size_t>(sim.num_processes());
  const auto num_chans = static_cast<std::size_t>(sim.num_channels());
  proc_latency_.resize(num_procs);
  procs_.resize(num_procs);
  chans_.resize(num_chans);
}

void CompiledSim::Instance::prepare(const SimScenario& scenario) {
  const auto num_procs = static_cast<std::size_t>(sim_.num_processes());
  const auto num_chans = static_cast<std::size_t>(sim_.num_channels());
  std::int64_t max_latency = 0;
  if (scenario.process_latency.empty()) {
    std::copy(sim_.base_proc_latency_.begin(), sim_.base_proc_latency_.end(),
              proc_latency_.begin());
  } else {
    assert(scenario.process_latency.size() == num_procs);
    std::copy(scenario.process_latency.begin(), scenario.process_latency.end(),
              proc_latency_.begin());
  }
  for (const std::int64_t lat : proc_latency_) {
    max_latency = std::max(max_latency, lat);
  }

  for (std::size_t p = 0; p < num_procs; ++p) {
    ProcHot& proc = procs_[p];
    proc = ProcHot{};
    proc.pc = sim_.code_begin_[p];
  }

  const std::vector<std::int64_t>& lats = scenario.channel_latency.empty()
                                              ? sim_.base_chan_latency_
                                              : scenario.channel_latency;
  const std::vector<std::int64_t>& caps = scenario.channel_capacity.empty()
                                              ? sim_.base_chan_capacity_
                                              : scenario.channel_capacity;
  assert(lats.size() == num_chans);
  assert(caps.size() == num_chans);
  for (std::size_t c = 0; c < num_chans; ++c) {
    ChanHot& chan = chans_[c];
    chan = ChanHot{};
    chan.producer = sim_.producer_[c];
    chan.consumer = sim_.consumer_[c];
    chan.latency = lats[c];
    chan.capacity =
        caps[c] == sysmodel::kUnboundedCapacity ? kUnboundedSlots : caps[c];
    max_latency = std::max(max_latency, chan.latency);
  }
  waits_.reset(num_chans);

  queue_.configure(max_latency, num_procs + num_chans);
  scratch_.clear();
  observed_times_.clear();
  now_ = 0;
  in_instant_ = false;
  snap_valid_ = false;
}

void CompiledSim::Instance::take_period_snapshot() {
  snap_procs_ = procs_;
  snap_chans_ = chans_;
  snap_waits_ = waits_;
  snap_now_ = now_;
  snap_obs_ = chans_[static_cast<std::size_t>(observe_)].transfers_completed;
  snap_times_ = observed_times_.size();
  snap_queue_size_ = queue_.size();
  snap_valid_ = true;
}

// True when the engine state matches the snapshot up to a uniform time
// shift. Only behavior-bearing fields count: statuses, pcs, channel flags
// and occupancies, and every live clock *relative to now*. Pending event
// times are covered without touching the queue — each wake is pinned by a
// kComputing process's wake_at, each in-flight transfer completion by its
// kTransferring producer's wake_at — so equal state plus equal queue size
// (checked by the caller) pins the whole event set. Clocks of idle roles
// (wake_at of a waiting process, wait_since of a non-waiting endpoint) are
// stale storage the engine never reads and are ignored.
bool CompiledSim::Instance::matches_period_snapshot() const {
  const std::int64_t shift = now_ - snap_now_;
  for (std::size_t p = 0; p < procs_.size(); ++p) {
    const ProcHot& cur = procs_[p];
    const ProcHot& old = snap_procs_[p];
    if (cur.status != old.status || cur.pc != old.pc ||
        cur.waiting_on != old.waiting_on ||
        cur.status_since != old.status_since + shift) {
      return false;
    }
    if ((cur.status == kComputing || cur.status == kTransferring) &&
        cur.wake_at != old.wake_at + shift) {
      return false;
    }
  }
  for (std::size_t c = 0; c < chans_.size(); ++c) {
    const ChanHot& cur = chans_[c];
    const ChanHot& old = snap_chans_[c];
    if (cur.producer_waiting != old.producer_waiting ||
        cur.consumer_waiting != old.consumer_waiting ||
        cur.transfer_in_progress != old.transfer_in_progress ||
        cur.buffered != old.buffered ||
        cur.writes_in_flight != old.writes_in_flight) {
      return false;
    }
    if (cur.producer_waiting &&
        cur.producer_wait_since != old.producer_wait_since + shift) {
      return false;
    }
    if (cur.consumer_waiting &&
        cur.consumer_wait_since != old.consumer_wait_since + shift) {
      return false;
    }
  }
  return true;
}

// The state at the snapshot has recurred (shifted by T = now - snap time),
// so the trajectory from here on repeats the [snapshot, now] segment
// verbatim, T cycles and d_obs observations at a stride. Jump n whole
// periods in O(state): every counter and histogram bucket advances by n x
// its per-period delta (current minus snapshot value), every live clock
// and pending event time shifts by n x T, and the skipped observation
// times are recorded as n repeats of the last window (util::EventTimes).
// Histogram min/max and peak occupancy are already final — the compared
// interval contains at least one full period, so later periods only
// revisit values it produced. The remainder
// (at least one observation, kept so the run ends exactly like the
// kernel's) is then simulated normally.
bool CompiledSim::Instance::try_period_jump(std::int64_t observed_target,
                                            const BatchOptions& opts) {
  const std::int64_t obs_now =
      chans_[static_cast<std::size_t>(observe_)].transfers_completed;
  const std::int64_t d_obs = obs_now - snap_obs_;
  const std::int64_t period = now_ - snap_now_;
  const std::int64_t remaining = observed_target - obs_now;
  assert(d_obs > 0 && period > 0 && remaining > 0);
  std::int64_t n = (remaining - 1) / d_obs;
  // Never jump past the cycle limit: skipped instants all lie at or before
  // now + n*period, so capping there means the kernel would not have
  // tripped hit_cycle_limit anywhere in the skipped range either.
  n = std::min(n, (opts.max_cycles - now_) / period);
  if (n <= 0) return false;
  const std::int64_t shift = n * period;

  for (std::size_t p = 0; p < procs_.size(); ++p) {
    ProcHot& cur = procs_[p];
    const ProcHot& old = snap_procs_[p];
    for (std::size_t s = 0; s < cur.cycles_in_status.size(); ++s) {
      cur.cycles_in_status[s] +=
          n * (cur.cycles_in_status[s] - old.cycles_in_status[s]);
    }
    cur.stall_cycles += n * (cur.stall_cycles - old.stall_cycles);
    cur.compute_cycles += n * (cur.compute_cycles - old.compute_cycles);
    cur.loop_iterations += n * (cur.loop_iterations - old.loop_iterations);
    cur.wake_at += shift;
    cur.status_since += shift;
  }
  for (std::size_t c = 0; c < chans_.size(); ++c) {
    ChanHot& cur = chans_[c];
    const ChanHot& old = snap_chans_[c];
    const std::int64_t transfers_delta =
        cur.transfers_completed - old.transfers_completed;
    cur.producer_stall += n * (cur.producer_stall - old.producer_stall);
    cur.consumer_stall += n * (cur.consumer_stall - old.consumer_stall);
    cur.blocked_puts += n * (cur.blocked_puts - old.blocked_puts);
    cur.blocked_gets += n * (cur.blocked_gets - old.blocked_gets);
    cur.transfers_completed += n * transfers_delta;
    if (transfers_delta > 0) cur.last_transfer_at += shift;
    cur.producer_wait_since += shift;
    cur.consumer_wait_since += shift;
  }
  waits_.extrapolate(snap_waits_, n);

  // The skipped observation times are the last window repeated n times at
  // a stride of one period: record that instead of the times themselves,
  // so estimate_period reads the exact sequence a full run would record.
  const std::size_t window = observed_times_.size() - snap_times_;
  assert(window == static_cast<std::size_t>(d_obs));
  observed_times_.repeat_last(window, n, period);

  requeue_.clear();
  queue_.drain_all(requeue_);
  for (const auto& [time, key] : requeue_) queue_.push(time + shift, key);
  now_ += shift;
  snap_valid_ = false;  // remainder < one period: nothing left to skip
  return true;
}

void CompiledSim::Instance::push_event(std::int64_t time, std::uint32_t key) {
  if (in_instant_ && time == now_) {
    // Same-instant event born while the instant is processed: it joins the
    // instant heap, exactly as it would join the kernel's time-sorted heap.
    scratch_.push_back(key);
    std::push_heap(scratch_.begin(), scratch_.end(),
                   std::greater<std::uint32_t>());
    return;
  }
  queue_.push(time, key);
}

void CompiledSim::Instance::set_status(SimProcessId p, Status status) {
  ProcHot& proc = procs_[static_cast<std::size_t>(p)];
  proc.cycles_in_status[proc.status] += now_ - proc.status_since;
  proc.status_since = now_;
  proc.status = status;
}

void CompiledSim::Instance::record_observation(SimChannelId c) {
  ChanHot& chan = chans_[static_cast<std::size_t>(c)];
  ++chan.transfers_completed;
  chan.last_transfer_at = now_;
  if (c == observe_) observed_times_.push_back(now_);
}

void CompiledSim::Instance::advance(SimProcessId p) {
  ProcHot& proc = procs_[static_cast<std::size_t>(p)];
  const std::int32_t begin = sim_.code_begin_[static_cast<std::size_t>(p)];
  const std::int32_t end = sim_.code_begin_[static_cast<std::size_t>(p) + 1];
  if (begin == end) return;  // inert process
  while (true) {
    if (proc.pc >= end) {
      proc.pc = begin;
      ++proc.loop_iterations;
    }
    const Stmt stmt = sim_.code_[static_cast<std::size_t>(proc.pc)];
    switch (stmt.kind) {
      case kStmtCompute: {
        const std::int64_t cycles =
            proc_latency_[static_cast<std::size_t>(stmt.arg)];
        proc.compute_cycles += cycles;
        if (cycles == 0) {
          ++proc.pc;
          continue;
        }
        set_status(p, kComputing);
        proc.wake_at = now_ + cycles;
        push_event(proc.wake_at, wake_key(p));
        return;
      }
      case kStmtGet: {
        const SimChannelId c = stmt.arg;
        ChanHot& chan = chans_[static_cast<std::size_t>(c)];
        chan.consumer_waiting = 1;
        chan.consumer_wait_since = now_;
        set_status(p, kWaiting);
        proc.waiting_on = c;
        if (chan.capacity > 0) {
          try_fifo_get(c);
          if (proc.status != kReady) return;
          ++proc.pc;
          continue;  // data was buffered: the get retired instantly
        }
        try_rendezvous(c);
        return;
      }
      default: {  // kStmtPut
        const SimChannelId c = stmt.arg;
        ChanHot& chan = chans_[static_cast<std::size_t>(c)];
        chan.producer_waiting = 1;
        chan.producer_wait_since = now_;
        set_status(p, kWaiting);
        proc.waiting_on = c;
        if (chan.capacity > 0) {
          try_fifo_put(c);
          return;
        }
        try_rendezvous(c);
        return;
      }
    }
  }
}

void CompiledSim::Instance::try_rendezvous(SimChannelId c) {
  ChanHot& chan = chans_[static_cast<std::size_t>(c)];
  if (!chan.producer_waiting || !chan.consumer_waiting ||
      chan.transfer_in_progress) {
    return;
  }
  chan.transfer_in_progress = 1;
  const SimProcessId prod = chan.producer;
  const SimProcessId cons = chan.consumer;
  const std::int64_t producer_stall = now_ - chan.producer_wait_since;
  const std::int64_t consumer_stall = now_ - chan.consumer_wait_since;
  chan.producer_stall += producer_stall;
  chan.consumer_stall += consumer_stall;
  procs_[static_cast<std::size_t>(prod)].stall_cycles += producer_stall;
  procs_[static_cast<std::size_t>(cons)].stall_cycles += consumer_stall;
  waits_.observe(c, WaitHistograms::kPut, producer_stall);
  waits_.observe(c, WaitHistograms::kGet, consumer_stall);
  if (producer_stall > 0) ++chan.blocked_puts;
  if (consumer_stall > 0) ++chan.blocked_gets;
  chan.peak_occupancy = std::max<std::int64_t>(chan.peak_occupancy, 1);
  set_status(prod, kTransferring);
  set_status(cons, kTransferring);
  procs_[static_cast<std::size_t>(prod)].wake_at =
      procs_[static_cast<std::size_t>(cons)].wake_at = now_ + chan.latency;
  push_event(now_ + chan.latency, transfer_key(c));
}

void CompiledSim::Instance::try_fifo_put(SimChannelId c) {
  ChanHot& chan = chans_[static_cast<std::size_t>(c)];
  if (!chan.producer_waiting || chan.transfer_in_progress) return;
  if (chan.buffered + chan.writes_in_flight >= chan.capacity) {
    return;  // buffer full: stay blocked
  }
  const SimProcessId prod = chan.producer;
  const std::int64_t stall = now_ - chan.producer_wait_since;
  chan.producer_stall += stall;
  procs_[static_cast<std::size_t>(prod)].stall_cycles += stall;
  waits_.observe(c, WaitHistograms::kPut, stall);
  if (stall > 0) ++chan.blocked_puts;
  chan.producer_waiting = 0;
  chan.transfer_in_progress = 1;
  ++chan.writes_in_flight;
  chan.peak_occupancy =
      std::max(chan.peak_occupancy, chan.buffered + chan.writes_in_flight);
  set_status(prod, kTransferring);
  procs_[static_cast<std::size_t>(prod)].wake_at = now_ + chan.latency;
  push_event(now_ + chan.latency, transfer_key(c));
}

void CompiledSim::Instance::try_fifo_get(SimChannelId c) {
  ChanHot& chan = chans_[static_cast<std::size_t>(c)];
  if (!chan.consumer_waiting || chan.buffered == 0) return;
  const SimProcessId cons = chan.consumer;
  const std::int64_t stall = now_ - chan.consumer_wait_since;
  chan.consumer_stall += stall;
  procs_[static_cast<std::size_t>(cons)].stall_cycles += stall;
  waits_.observe(c, WaitHistograms::kGet, stall);
  if (stall > 0) ++chan.blocked_gets;
  chan.consumer_waiting = 0;
  --chan.buffered;
  record_observation(c);
  set_status(cons, kReady);
  procs_[static_cast<std::size_t>(cons)].waiting_on = -1;
  // A slot just freed: restart a blocked producer.
  try_fifo_put(c);
}

void CompiledSim::Instance::complete_fifo_write(SimChannelId c) {
  ChanHot& chan = chans_[static_cast<std::size_t>(c)];
  assert(chan.transfer_in_progress && chan.writes_in_flight == 1);
  chan.transfer_in_progress = 0;
  --chan.writes_in_flight;
  ++chan.buffered;

  const SimProcessId prod = chan.producer;
  {
    ProcHot& pp = procs_[static_cast<std::size_t>(prod)];
    set_status(prod, kReady);
    pp.waiting_on = -1;
    ++pp.pc;
  }

  if (chan.consumer_waiting) {
    const SimProcessId cons = chan.consumer;
    const std::int64_t stall = now_ - chan.consumer_wait_since;
    chan.consumer_stall += stall;
    ProcHot& cp = procs_[static_cast<std::size_t>(cons)];
    cp.stall_cycles += stall;
    waits_.observe(c, WaitHistograms::kGet, stall);
    if (stall > 0) ++chan.blocked_gets;
    chan.consumer_waiting = 0;
    --chan.buffered;
    record_observation(c);
    set_status(cons, kReady);
    cp.waiting_on = -1;
    ++cp.pc;
    advance(cons);
  }
  advance(prod);
}

void CompiledSim::Instance::complete_transfer(SimChannelId c) {
  ChanHot& chan = chans_[static_cast<std::size_t>(c)];
  if (chan.capacity > 0) {
    complete_fifo_write(c);
    return;
  }
  assert(chan.transfer_in_progress);
  chan.transfer_in_progress = 0;
  chan.producer_waiting = chan.consumer_waiting = 0;
  record_observation(c);

  const SimProcessId prod = chan.producer;
  const SimProcessId cons = chan.consumer;
  set_status(prod, kReady);
  set_status(cons, kReady);
  procs_[static_cast<std::size_t>(prod)].waiting_on = -1;
  procs_[static_cast<std::size_t>(cons)].waiting_on = -1;
  ++procs_[static_cast<std::size_t>(prod)].pc;
  ++procs_[static_cast<std::size_t>(cons)].pc;
  advance(prod);
  advance(cons);
}

void CompiledSim::Instance::detect_deadlock(ScenarioResult& result) const {
  result.deadlocked = true;
  result.deadlock_at = now_;
  const std::int32_t num_procs = sim_.num_processes();
  std::vector<std::int32_t> seen_at(static_cast<std::size_t>(num_procs), -1);
  for (SimProcessId start = 0; start < num_procs; ++start) {
    if (procs_[static_cast<std::size_t>(start)].status != kWaiting) continue;
    std::vector<SimProcessId> walk;
    SimProcessId p = start;
    while (p >= 0 && procs_[static_cast<std::size_t>(p)].status == kWaiting &&
           seen_at[static_cast<std::size_t>(p)] == -1) {
      seen_at[static_cast<std::size_t>(p)] =
          static_cast<std::int32_t>(walk.size());
      walk.push_back(p);
      const SimChannelId c = procs_[static_cast<std::size_t>(p)].waiting_on;
      const ChanHot& chan = chans_[static_cast<std::size_t>(c)];
      p = (chan.producer == p) ? chan.consumer : chan.producer;
    }
    if (p >= 0 && seen_at[static_cast<std::size_t>(p)] != -1 &&
        procs_[static_cast<std::size_t>(p)].status == kWaiting) {
      const auto pos =
          static_cast<std::size_t>(seen_at[static_cast<std::size_t>(p)]);
      if (pos < walk.size() && walk[pos] == p) {
        for (std::size_t i = pos; i < walk.size(); ++i) {
          result.deadlock_processes.push_back(walk[i]);
          result.deadlock_channels.push_back(
              procs_[static_cast<std::size_t>(walk[i])].waiting_on);
        }
        return;
      }
    }
  }
}

void CompiledSim::Instance::snapshot(ScenarioResult& result) const {
  const auto num_procs = static_cast<std::size_t>(sim_.num_processes());
  const auto num_chans = static_cast<std::size_t>(sim_.num_channels());
  result.processes.resize(num_procs);
  result.channels.resize(num_chans);
  for (std::size_t p = 0; p < num_procs; ++p) {
    const ProcHot& proc = procs_[p];
    ScenarioProcessStats& out = result.processes[p];
    out.pc = proc.pc - sim_.code_begin_[p];
    out.status = proc.status;
    out.loop_iterations = proc.loop_iterations;
    out.stall_cycles = proc.stall_cycles;
    out.compute_cycles = proc.compute_cycles;
    out.cycles_in_status = proc.cycles_in_status;
  }
  for (std::size_t c = 0; c < num_chans; ++c) {
    const ChanHot& chan = chans_[c];
    ScenarioChannelStats& out = result.channels[c];
    out.transfers = chan.transfers_completed;
    out.last_transfer_at = chan.last_transfer_at;
    out.buffered = chan.buffered;
    out.blocked_puts = chan.blocked_puts;
    out.blocked_gets = chan.blocked_gets;
    out.put_wait_cycles = chan.producer_stall;
    out.get_wait_cycles = chan.consumer_stall;
    out.peak_occupancy = chan.peak_occupancy;
  }
}

ScenarioResult CompiledSim::Instance::run(const SimScenario& scenario,
                                          const BatchOptions& opts) {
  prepare(scenario);
  observe_ = opts.observe >= 0 ? opts.observe : sim_.default_observe_;
  ScenarioResult result;

  const std::int32_t num_procs = sim_.num_processes();
  for (SimProcessId p = 0; p < num_procs; ++p) advance(p);

  const std::int64_t observed_target = opts.target_transfers;
  // Periodic steady-state watch: between instants, whenever the observed
  // channel advanced, compare the engine state against the snapshot (cheap
  // reject on queue size first); on a recurrence, jump whole periods at
  // once. Snapshots are retaken on a doubling observation cadence so one
  // eventually lands past the transient with a window wide enough to span
  // a full period (Brent's cycle-detection schedule).
  bool watch_period = opts.detect_period && observe_ >= 0;
  std::int64_t last_obs_seen = 0;
  std::int64_t next_snap_obs = 4;
  while (true) {
    const std::int64_t obs_now =
        observe_ >= 0
            ? chans_[static_cast<std::size_t>(observe_)].transfers_completed
            : 0;
    if (observe_ >= 0 && obs_now >= observed_target) break;
    if (queue_.empty()) {
      detect_deadlock(result);
      break;
    }
    if (watch_period && obs_now != last_obs_seen) {
      last_obs_seen = obs_now;
      if (snap_valid_ && queue_.size() == snap_queue_size_ &&
          matches_period_snapshot()) {
        // Even a declined jump (tail already shorter than one period, or
        // the cycle limit is closer than that) means there is nothing
        // further to skip.
        try_period_jump(observed_target, opts);
        watch_period = false;
      } else if (obs_now >= next_snap_obs) {
        take_period_snapshot();
        next_snap_obs = obs_now * 2;
      }
    }
    scratch_.clear();
    // One wheel scan finds and drains the next instant (or reports it past
    // the horizon without draining).
    const std::int64_t next_time = queue_.pop_next(opts.max_cycles, scratch_);
    if (next_time > opts.max_cycles) {
      result.hit_cycle_limit = true;
      break;
    }
    now_ = next_time;
    if (scratch_.size() > 1) {
      std::make_heap(scratch_.begin(), scratch_.end(),
                     std::greater<std::uint32_t>());
    }
    in_instant_ = true;
    // Guard against zero-latency livelock at one instant.
    std::int64_t events_at_instant = 0;
    while (!scratch_.empty()) {
      if (scratch_.size() > 1) {
        std::pop_heap(scratch_.begin(), scratch_.end(),
                      std::greater<std::uint32_t>());
      }
      const std::uint32_t key = scratch_.back();
      scratch_.pop_back();
      if ((key & 1u) == 0) {
        const auto p = static_cast<SimProcessId>(key >> 1);
        const ProcHot& proc = procs_[static_cast<std::size_t>(p)];
        if (proc.status == kComputing && proc.wake_at == now_) {
          set_status(p, kReady);
          ++procs_[static_cast<std::size_t>(p)].pc;
          advance(p);
        }
      } else {
        complete_transfer(static_cast<SimChannelId>(key >> 1));
      }
      if (++events_at_instant > 1'000'000) {
        ERMES_LOG(kError) << "compiled sim: livelock at cycle " << now_
                          << " (zero-latency loop?)";
        result.hit_cycle_limit = true;
        break;
      }
    }
    in_instant_ = false;
    scratch_.clear();
    if (result.hit_cycle_limit) break;
  }

  // Close the open status intervals so the per-status splits sum to now_.
  for (std::size_t p = 0; p < static_cast<std::size_t>(num_procs); ++p) {
    ProcHot& proc = procs_[p];
    proc.cycles_in_status[proc.status] += now_ - proc.status_since;
    proc.status_since = now_;
  }

  result.cycles = now_;
  if (observe_ >= 0) {
    result.observed_count =
        chans_[static_cast<std::size_t>(observe_)].transfers_completed;
  }
  result.measured_cycle_time = util::estimate_period(observed_times_);
  if (result.measured_cycle_time > 0.0) {
    result.throughput = 1.0 / result.measured_cycle_time;
  }
  snapshot(result);
  // The histograms move into the result; the next prepare() re-sizes them.
  result.waits = std::move(waits_);
  return result;
}

std::vector<ScenarioResult> simulate_batch(
    const CompiledSim& sim, const std::vector<SimScenario>& scenarios,
    const BatchOptions& opts, exec::ThreadPool* pool) {
  obs::ObsSpan span("sim.batch", "sim");
  std::vector<ScenarioResult> results(scenarios.size());
  if (pool == nullptr || pool->jobs() <= 1 || scenarios.size() <= 1) {
    CompiledSim::Instance instance(sim);
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      results[i] = instance.run(scenarios[i], opts);
    }
    return results;
  }
  exec::SlotLocal<std::unique_ptr<CompiledSim::Instance>> instances(
      pool->jobs());
  pool->parallel_for(
      scenarios.size(),
      [&](std::size_t i) {
        std::unique_ptr<CompiledSim::Instance>& slot = instances.local();
        if (!slot) slot = std::make_unique<CompiledSim::Instance>(sim);
        results[i] = slot->run(scenarios[i], opts);
      },
      /*grain=*/1);
  return results;
}

ScenarioResult run_legacy_kernel(const sysmodel::SystemModel& sys,
                                 const SimScenario& scenario,
                                 const BatchOptions& opts) {
  sysmodel::SystemModel model = sys;
  if (!scenario.process_latency.empty()) {
    assert(scenario.process_latency.size() ==
           static_cast<std::size_t>(sys.num_processes()));
    for (sysmodel::ProcessId p = 0; p < sys.num_processes(); ++p) {
      model.set_latency(p, scenario.process_latency[static_cast<std::size_t>(p)]);
    }
  }
  if (!scenario.channel_latency.empty()) {
    assert(scenario.channel_latency.size() ==
           static_cast<std::size_t>(sys.num_channels()));
    for (sysmodel::ChannelId c = 0; c < sys.num_channels(); ++c) {
      model.set_channel_latency(
          c, scenario.channel_latency[static_cast<std::size_t>(c)]);
    }
  }
  if (!scenario.channel_capacity.empty()) {
    assert(scenario.channel_capacity.size() ==
           static_cast<std::size_t>(sys.num_channels()));
    for (sysmodel::ChannelId c = 0; c < sys.num_channels(); ++c) {
      model.set_channel_capacity(
          c, scenario.channel_capacity[static_cast<std::size_t>(c)]);
    }
  }

  Kernel kernel = build_kernel(model);
  const SimChannelId observe =
      opts.observe >= 0 ? opts.observe : default_observe_channel(model);
  const RunResult run =
      kernel.run(observe, opts.target_transfers, opts.max_cycles);

  ScenarioResult result;
  result.cycles = run.cycles;
  result.observed_count = run.observed_count;
  result.measured_cycle_time = run.measured_cycle_time;
  result.throughput = run.throughput;
  result.deadlocked = run.deadlock.deadlocked;
  result.deadlock_at = run.deadlock.at_cycle;
  result.deadlock_processes = run.deadlock.processes;
  result.deadlock_channels = run.deadlock.channels;
  result.hit_cycle_limit = run.hit_cycle_limit;
  result.processes.resize(static_cast<std::size_t>(kernel.num_processes()));
  result.channels.resize(static_cast<std::size_t>(kernel.num_channels()));
  result.waits.reset(static_cast<std::size_t>(kernel.num_channels()));
  for (SimProcessId p = 0; p < kernel.num_processes(); ++p) {
    const ProcessState& proc = kernel.process(p);
    ScenarioProcessStats& out = result.processes[static_cast<std::size_t>(p)];
    out.pc = static_cast<std::int64_t>(proc.pc);
    out.status = static_cast<std::uint8_t>(proc.status);
    out.loop_iterations = proc.loop_iterations;
    out.stall_cycles = proc.stall_cycles;
    out.compute_cycles = proc.compute_cycles;
    out.cycles_in_status = proc.cycles_in_status;
  }
  for (SimChannelId c = 0; c < kernel.num_channels(); ++c) {
    const ChannelState& chan = kernel.channel(c);
    ScenarioChannelStats& out = result.channels[static_cast<std::size_t>(c)];
    out.transfers = chan.transfers_completed;
    out.last_transfer_at = chan.last_transfer_completed_at;
    out.buffered = static_cast<std::int64_t>(chan.buffer.size());
    out.blocked_puts = chan.blocked_puts;
    out.blocked_gets = chan.blocked_gets;
    out.put_wait_cycles = chan.producer_stall_cycles;
    out.get_wait_cycles = chan.consumer_stall_cycles;
    out.peak_occupancy = chan.peak_occupancy;
    result.waits.assign(c, WaitHistograms::kPut, chan.put_wait);
    result.waits.assign(c, WaitHistograms::kGet, chan.get_wait);
  }
  return result;
}

namespace {

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool hist_equal(const obs::HistogramData& a, const obs::HistogramData& b) {
  return a.count == b.count && a.sum == b.sum && a.min == b.min &&
         a.max == b.max && a.buckets == b.buckets;
}

}  // namespace

bool results_bit_identical(const ScenarioResult& a, const ScenarioResult& b) {
  if (a.cycles != b.cycles || a.observed_count != b.observed_count ||
      !bits_equal(a.measured_cycle_time, b.measured_cycle_time) ||
      !bits_equal(a.throughput, b.throughput) ||
      a.deadlocked != b.deadlocked || a.deadlock_at != b.deadlock_at ||
      a.deadlock_processes != b.deadlock_processes ||
      a.deadlock_channels != b.deadlock_channels ||
      a.hit_cycle_limit != b.hit_cycle_limit ||
      a.processes.size() != b.processes.size() ||
      a.channels.size() != b.channels.size()) {
    return false;
  }
  for (std::size_t p = 0; p < a.processes.size(); ++p) {
    const ScenarioProcessStats& x = a.processes[p];
    const ScenarioProcessStats& y = b.processes[p];
    if (x.pc != y.pc || x.status != y.status ||
        x.loop_iterations != y.loop_iterations ||
        x.stall_cycles != y.stall_cycles ||
        x.compute_cycles != y.compute_cycles ||
        x.cycles_in_status != y.cycles_in_status) {
      return false;
    }
  }
  for (std::size_t c = 0; c < a.channels.size(); ++c) {
    const ScenarioChannelStats& x = a.channels[c];
    const ScenarioChannelStats& y = b.channels[c];
    if (x.transfers != y.transfers || x.last_transfer_at != y.last_transfer_at ||
        x.buffered != y.buffered || x.blocked_puts != y.blocked_puts ||
        x.blocked_gets != y.blocked_gets ||
        x.put_wait_cycles != y.put_wait_cycles ||
        x.get_wait_cycles != y.get_wait_cycles ||
        x.peak_occupancy != y.peak_occupancy) {
      return false;
    }
  }
  if (a.waits.num_channels() != b.waits.num_channels()) return false;
  for (std::size_t c = 0; c < a.waits.num_channels(); ++c) {
    const auto id = static_cast<SimChannelId>(c);
    for (const auto side : {WaitHistograms::kPut, WaitHistograms::kGet}) {
      if (!hist_equal(a.waits.dense(id, side), b.waits.dense(id, side))) {
        return false;
      }
    }
  }
  return true;
}

StallReport to_stall_report(const sysmodel::SystemModel& sys,
                            const ScenarioResult& result) {
  StallReport report;
  report.cycles = result.cycles;
  report.processes.reserve(result.processes.size());
  for (std::size_t p = 0; p < result.processes.size(); ++p) {
    const ScenarioProcessStats& stats = result.processes[p];
    ProcessStall stall;
    stall.name = sys.process_name(static_cast<sysmodel::ProcessId>(p));
    stall.ready = stats.cycles_in_status[0];
    stall.computing = stats.cycles_in_status[1];
    stall.waiting = stats.cycles_in_status[2];
    stall.transferring = stats.cycles_in_status[3];
    report.processes.push_back(std::move(stall));
  }
  report.channels.reserve(result.channels.size());
  for (std::size_t c = 0; c < result.channels.size(); ++c) {
    const ScenarioChannelStats& stats = result.channels[c];
    ChannelStall stall;
    stall.name = sys.channel_name(static_cast<sysmodel::ChannelId>(c));
    stall.transfers = stats.transfers;
    stall.blocked_puts = stats.blocked_puts;
    stall.blocked_gets = stats.blocked_gets;
    stall.put_wait_cycles = stats.put_wait_cycles;
    stall.get_wait_cycles = stats.get_wait_cycles;
    stall.peak_occupancy = stats.peak_occupancy;
    const auto id = static_cast<SimChannelId>(c);
    stall.put_wait = result.waits.dense(id, WaitHistograms::kPut);
    stall.get_wait = result.waits.dense(id, WaitHistograms::kGet);
    report.channels.push_back(std::move(stall));
  }
  return report;
}

void publish_metrics(const sysmodel::SystemModel& sys,
                     const ScenarioResult& result, std::string_view prefix) {
  if (!obs::enabled()) return;
  obs::Registry& registry = obs::Registry::global();
  const std::string base(prefix);

  std::int64_t transfers = 0, blocked_puts = 0, blocked_gets = 0;
  std::int64_t peak_occupancy = 0;
  obs::HistogramData all_put_wait, all_get_wait;
  for (std::size_t c = 0; c < result.channels.size(); ++c) {
    const ScenarioChannelStats& chan = result.channels[c];
    transfers += chan.transfers;
    blocked_puts += chan.blocked_puts;
    blocked_gets += chan.blocked_gets;
    peak_occupancy = std::max(peak_occupancy, chan.peak_occupancy);
    const auto id = static_cast<SimChannelId>(c);
    const obs::HistogramData put_wait =
        result.waits.dense(id, WaitHistograms::kPut);
    const obs::HistogramData get_wait =
        result.waits.dense(id, WaitHistograms::kGet);
    all_put_wait.merge(put_wait);
    all_get_wait.merge(get_wait);
    const std::string cbase =
        base + ".channel." + sys.channel_name(static_cast<sysmodel::ChannelId>(c));
    registry.counter(cbase + ".transfers").add(chan.transfers);
    registry.counter(cbase + ".blocked_puts").add(chan.blocked_puts);
    registry.counter(cbase + ".blocked_gets").add(chan.blocked_gets);
    registry.counter(cbase + ".put_wait_cycles").add(chan.put_wait_cycles);
    registry.counter(cbase + ".get_wait_cycles").add(chan.get_wait_cycles);
    registry.gauge(cbase + ".peak_occupancy").record_max(chan.peak_occupancy);
    registry.histogram(cbase + ".put_wait").record(put_wait);
    registry.histogram(cbase + ".get_wait").record(get_wait);
  }

  std::int64_t stall_cycles = 0;
  for (std::size_t p = 0; p < result.processes.size(); ++p) {
    const ScenarioProcessStats& proc = result.processes[p];
    stall_cycles += proc.stall_cycles;
    const std::string pbase =
        base + ".process." + sys.process_name(static_cast<sysmodel::ProcessId>(p));
    registry.counter(pbase + ".ready_cycles").add(proc.cycles_in_status[0]);
    registry.counter(pbase + ".compute_cycles").add(proc.cycles_in_status[1]);
    registry.counter(pbase + ".waiting_cycles").add(proc.cycles_in_status[2]);
    registry.counter(pbase + ".transfer_cycles").add(proc.cycles_in_status[3]);
  }

  registry.counter(base + ".runs").add(1);
  registry.counter(base + ".cycles").add(result.cycles);
  registry.counter(base + ".transfers").add(transfers);
  registry.counter(base + ".blocked_puts").add(blocked_puts);
  registry.counter(base + ".blocked_gets").add(blocked_gets);
  registry.counter(base + ".rendezvous_waits").add(blocked_puts + blocked_gets);
  registry.counter(base + ".stall_cycles").add(stall_cycles);
  registry.gauge(base + ".peak_occupancy").record_max(peak_occupancy);
  registry.histogram(base + ".put_wait").record(all_put_wait);
  registry.histogram(base + ".get_wait").record(all_get_wait);
}

}  // namespace ermes::sim
