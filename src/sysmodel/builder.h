#pragma once
// Convenience construction of system models, including the paper's
// motivating example (Figs. 2 and 4), which doubles as the canonical fixture
// for tests and benchmarks.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sysmodel/system.h"

namespace ermes::sysmodel {

/// Declarative spec: processes as (name, latency), channels as
/// (name, from-name, to-name, latency). Ordering defaults to listing order.
struct SystemSpec {
  struct Proc {
    std::string name;
    std::int64_t latency = 0;
    double area = 0.0;
  };
  struct Chan {
    std::string name;
    std::string from;
    std::string to;
    std::int64_t latency = 0;
  };
  std::vector<Proc> processes;
  std::vector<Chan> channels;
};

/// Builds a model from a spec. Unknown process names abort.
SystemModel build_system(const SystemSpec& spec);

/// One `impl` row of a model description: an implementation of `process`
/// and whether the row is marked selected.
struct ImplRow {
  ProcessId process = kInvalidProcess;
  Implementation impl;
  bool selected = false;
};

/// Groups `rows` by process into Pareto sets (rows keep their order within
/// a process) and attaches each set. The last selected row of a process is
/// its selection; with none, the set's first implementation.
void attach_implementations(SystemModel& sys, std::vector<ImplRow> rows);

/// True iff `order` lists each of p's input channels (gets) or output
/// channels (puts) with an id below `before` exactly once. With `before` =
/// num_channels() this is the precondition of set_*_order.
bool is_incident_order(const SystemModel& sys, ProcessId p, bool gets,
                       const std::vector<ChannelId>& order, ChannelId before);

/// The DAC'14 motivating example: processes src,P2..P6,snk; channels a..h
/// with the latencies derived in DESIGN.md (src=1, P2=5, P3=2, P4=1, P5=2,
/// P6=2, snk=1; a=2,b=1,c=2,d=3,e=1,f=1,g=2,h=1). Orders are left at
/// insertion defaults (P2 puts b,d,f; P6 gets d,e,g).
SystemModel make_dac14_motivating_example();

/// Applies one of the orderings discussed in the paper to the motivating
/// example (P2's put order and P6's get order, by channel name).
void apply_motivating_orders(SystemModel& sys,
                             const std::vector<std::string>& p2_puts,
                             const std::vector<std::string>& p6_gets);

}  // namespace ermes::sysmodel
