#pragma once
// System-level specification of a communication-centric SoC.
//
// A SystemModel is the graph of Fig. 2(a): processes (vertices) communicate
// through point-to-point unidirectional blocking channels (arcs). Each
// process executes an infinite loop of three phases — input reading (gets in
// a fixed order), computation (latency of the selected micro-architecture),
// output writing (puts in a fixed order). Testbench source/sink processes
// are ordinary processes with no inputs / no outputs.
//
// The model stores, per process: the current computation latency and area
// (optionally backed by a Pareto set of implementations and a selected
// index) and the get/put orders; per channel: the minimum transfer latency.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "sysmodel/implementation.h"

namespace ermes::sysmodel {

using ProcessId = std::int32_t;
using ChannelId = std::int32_t;

inline constexpr ProcessId kInvalidProcess = -1;
inline constexpr ChannelId kInvalidChannel = -1;

/// Channel capacity sentinel: a FIFO that never back-pressures its producer.
/// In the TMG elaboration an unbounded channel contributes a data place but
/// no space place, so it never closes a cycle from consumer back to producer
/// — it *decouples* the two sides. This is the conservative "sufficiently
/// large buffer" abstraction behind compositional analysis: feed-forward
/// unbounded channels split the system into independently-analyzable
/// strongly connected components.
inline constexpr std::int64_t kUnboundedCapacity = -1;

class SystemModel {
 public:
  /// Pre-allocates storage for `processes` processes and `channels` channels
  /// (bulk builders like comp::flatten know the totals up front).
  void reserve(std::size_t processes, std::size_t channels) {
    procs_.reserve(processes);
    chans_.reserve(channels);
  }

  /// Adds a process with the given computation latency (cycles).
  ProcessId add_process(std::string name, std::int64_t latency = 0,
                        double area = 0.0);

  /// Adds a channel from -> to with the given minimum transfer latency.
  /// The channel is appended to `from`'s put order and `to`'s get order.
  ChannelId add_channel(std::string name, ProcessId from, ProcessId to,
                        std::int64_t latency);

  std::int32_t num_processes() const {
    return static_cast<std::int32_t>(procs_.size());
  }
  std::int32_t num_channels() const {
    return static_cast<std::int32_t>(chans_.size());
  }

  // --- process attributes -------------------------------------------------
  const std::string& process_name(ProcessId p) const {
    return procs_[static_cast<std::size_t>(p)].name;
  }
  std::int64_t latency(ProcessId p) const {
    return procs_[static_cast<std::size_t>(p)].latency;
  }
  void set_latency(ProcessId p, std::int64_t latency);
  double area(ProcessId p) const {
    return procs_[static_cast<std::size_t>(p)].area;
  }

  /// Sum of process areas.
  double total_area() const;

  // --- implementations ----------------------------------------------------
  /// Attaches a Pareto set; selects `selected` and updates latency/area.
  void set_implementations(ProcessId p, ParetoSet set,
                           std::size_t selected = 0);
  bool has_implementations(ProcessId p) const {
    return !procs_[static_cast<std::size_t>(p)].pareto.empty();
  }
  const ParetoSet& implementations(ProcessId p) const {
    return procs_[static_cast<std::size_t>(p)].pareto;
  }
  std::size_t selected_implementation(ProcessId p) const {
    return procs_[static_cast<std::size_t>(p)].selected;
  }
  /// Selects implementation `index` of p's Pareto set (updates latency/area).
  void select_implementation(ProcessId p, std::size_t index);

  /// Total number of Pareto points across all processes.
  std::size_t total_pareto_points() const;

  // --- channel attributes ---------------------------------------------------
  const std::string& channel_name(ChannelId c) const {
    return chans_[static_cast<std::size_t>(c)].name;
  }
  ProcessId channel_source(ChannelId c) const {
    return chans_[static_cast<std::size_t>(c)].from;
  }
  ProcessId channel_target(ChannelId c) const {
    return chans_[static_cast<std::size_t>(c)].to;
  }
  std::int64_t channel_latency(ChannelId c) const {
    return chans_[static_cast<std::size_t>(c)].latency;
  }
  void set_channel_latency(ChannelId c, std::int64_t latency);

  /// FIFO capacity of the channel. 0 (default) = blocking rendezvous: put
  /// and get synchronize on a single transfer. k > 0 = non-blocking FIFO
  /// with k slots: a put completes (after the channel latency) whenever a
  /// slot is free, a get completes as soon as data is buffered — the
  /// "non-blocking protocols" of the paper's footnote 1 / tech report [6].
  /// kUnboundedCapacity = FIFO that never back-pressures (see the sentinel's
  /// comment; it decouples producer from consumer in the TMG).
  std::int64_t channel_capacity(ChannelId c) const {
    return chans_[static_cast<std::size_t>(c)].capacity;
  }
  void set_channel_capacity(ChannelId c, std::int64_t capacity);

  /// Re-points an existing channel at a new consumer: the channel is removed
  /// from the old target's get order and appended to the new target's. The
  /// producer side, latency, and capacity are unchanged. Retargeting to the
  /// current consumer is a no-op.
  void retarget_channel(ChannelId c, ProcessId new_target);

  /// Channel id by name; kInvalidChannel if absent.
  ChannelId find_channel(const std::string& name) const;
  /// Process id by name; kInvalidProcess if absent.
  ProcessId find_process(const std::string& name) const;

  // --- I/O orders -----------------------------------------------------------
  /// The get order of p: its incoming channels in the order the process
  /// reads them. Defaults to channel insertion order.
  const std::vector<ChannelId>& input_order(ProcessId p) const {
    return procs_[static_cast<std::size_t>(p)].inputs;
  }
  /// The put order of p: its outgoing channels in write order.
  const std::vector<ChannelId>& output_order(ProcessId p) const {
    return procs_[static_cast<std::size_t>(p)].outputs;
  }
  /// Replaces the get order; must be a permutation of the current one.
  void set_input_order(ProcessId p, std::vector<ChannelId> order);
  /// Replaces the put order; must be a permutation of the current one.
  void set_output_order(ProcessId p, std::vector<ChannelId> order);

  bool is_source(ProcessId p) const { return input_order(p).empty(); }
  bool is_sink(ProcessId p) const { return output_order(p).empty(); }

  /// A primed process starts its loop at the output phase (it holds an
  /// initial/default result, e.g. the register stage of a feedback loop or a
  /// rate-control block with an initial state). In the TMG its ring token
  /// sits on the first put-place instead of the first get-place. Priming a
  /// process with no outputs has no effect.
  bool primed(ProcessId p) const {
    return procs_[static_cast<std::size_t>(p)].primed;
  }
  void set_primed(ProcessId p, bool primed) {
    procs_[static_cast<std::size_t>(p)].primed = primed;
  }

  /// All source / sink processes.
  std::vector<ProcessId> sources() const;
  std::vector<ProcessId> sinks() const;

  /// Number of distinct (get-order x put-order) combinations across all
  /// processes: prod_p |in(p)|! * |out(p)|! (returns a double; the count
  /// explodes combinatorially).
  double num_order_combinations() const;

  /// Topology view: node = process, arc = channel; ids coincide.
  graph::Digraph topology() const;

  bool valid_process(ProcessId p) const {
    return p >= 0 && p < num_processes();
  }
  bool valid_channel(ChannelId c) const {
    return c >= 0 && c < num_channels();
  }

 private:
  struct ProcRec {
    std::string name;
    std::int64_t latency = 0;
    double area = 0.0;
    ParetoSet pareto;
    std::size_t selected = 0;
    bool primed = false;
    std::vector<ChannelId> inputs;   // get order
    std::vector<ChannelId> outputs;  // put order
  };
  struct ChanRec {
    std::string name;
    ProcessId from = kInvalidProcess;
    ProcessId to = kInvalidProcess;
    std::int64_t latency = 0;
    std::int64_t capacity = 0;  // 0 = rendezvous, k > 0 = FIFO depth
  };

  std::vector<ProcRec> procs_;
  std::vector<ChanRec> chans_;
};

}  // namespace ermes::sysmodel
