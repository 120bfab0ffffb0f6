#pragma once
// Hierarchical system IR (paper Section 2: compositional design).
//
// A HierarchicalModel is a library of named subsystem definitions plus an
// anonymous top-level scope. Each definition declares local processes,
// instances of other definitions, channels, and typed ports; a port exposes
// one internal endpoint (a local process or a port of a nested instance) to
// the enclosing scope, so subsystems compose without exposing their
// internals. The IR is deliberately a plain value type: the parser
// (io/soc_hier.h) fills it from the extended .soc grammar and tests/benches
// build it programmatically.
//
// comp::flatten (flatten.h) expands a model into the flat sysmodel the
// analysis layers consume, with deterministic dotted instance names
// ("dec.vld.parse"); all semantic validation — unknown definitions,
// instantiation cycles, unbound or mis-directed ports — happens there.

#include <cstdint>
#include <string>
#include <vector>

#include "sysmodel/implementation.h"
#include "sysmodel/system.h"

namespace ermes::comp {

/// A reference to something that can terminate a channel, seen from inside
/// one subsystem definition: a local process (`instance` empty) or a port of
/// a directly nested instance.
struct Endpoint {
  std::string instance;  // empty = local process
  std::string name;      // process name, or port name of `instance`

  bool is_local() const { return instance.empty(); }
};

/// A typed boundary port of a subsystem definition. An `in` port carries
/// data into the subsystem (channels of the enclosing scope may end on it);
/// an `out` port carries data out (channels may start on it). The binding
/// names the internal endpoint the port forwards to.
struct PortDecl {
  std::string name;
  bool is_input = false;
  Endpoint binding;
};

/// A leaf process declaration (same attributes as the flat grammar).
struct ProcessDecl {
  std::string name;
  std::int64_t latency = 0;
  double area = 0.0;
  bool primed = false;
};

/// An instantiation of a named subsystem definition.
struct InstanceDecl {
  std::string name;
  std::string subsystem;
};

/// A channel between two endpoints of the declaring scope.
struct ChannelDecl {
  std::string name;
  Endpoint from;
  Endpoint to;
  std::int64_t latency = 0;
  /// 0 = rendezvous, k > 0 = FIFO, sysmodel::kUnboundedCapacity = unbounded.
  std::int64_t capacity = 0;
};

/// One implementation row for a local process (grouped into Pareto sets at
/// flatten time by sysmodel::attach_implementations, as in the flat parser).
struct ImplDecl {
  std::string process;
  sysmodel::Implementation impl;
  bool selected = false;
};

/// A gets/puts order constraint on a local process. As in the flat grammar,
/// the named channels must be exactly the process' incident channels among
/// the scope's channels declared before the line; channels declared after
/// it follow in declaration order. A process with channels from enclosing
/// scopes (via ports) cannot be reordered from inside its definition.
struct OrderDecl {
  std::string process;
  bool gets = false;  // false = puts
  std::vector<std::string> channels;
  /// How many of the scope's channels precede the line.
  std::size_t channels_before = 0;
};

/// A subsystem definition (or the anonymous top scope, which has no ports).
/// `items` records the interleaved declaration order of processes and
/// instances; flattening walks it so instance expansion is reproducible
/// token-for-token from the source order.
struct SubsystemDef {
  struct Item {
    enum class Kind { kProcess, kInstance };
    Kind kind = Kind::kProcess;
    std::size_t index = 0;  // into `processes` or `instances`
  };

  std::string name;
  std::vector<PortDecl> ports;
  std::vector<ProcessDecl> processes;
  std::vector<InstanceDecl> instances;
  std::vector<Item> items;
  std::vector<ChannelDecl> channels;
  std::vector<ImplDecl> impls;
  std::vector<OrderDecl> orders;

  ProcessDecl& add_process(ProcessDecl p) {
    items.push_back({Item::Kind::kProcess, processes.size()});
    processes.push_back(std::move(p));
    return processes.back();
  }
  InstanceDecl& add_instance(InstanceDecl i) {
    items.push_back({Item::Kind::kInstance, instances.size()});
    instances.push_back(std::move(i));
    return instances.back();
  }
};

/// A library of definitions plus the top-level scope to elaborate.
struct HierarchicalModel {
  std::vector<SubsystemDef> defs;
  SubsystemDef top;
};

}  // namespace ermes::comp
