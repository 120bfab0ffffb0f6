#include "comp/flatten.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sysmodel/builder.h"

namespace ermes::comp {

using sysmodel::ChannelId;
using sysmodel::ProcessId;

namespace {

struct Scope {
  const SubsystemDef* def = nullptr;
  std::map<std::string, ProcessId> procs;
  std::map<std::string, ChannelId> chans;
  std::map<std::string, std::unique_ptr<Scope>> instances;
};

struct Flattener {
  const HierarchicalModel& hier;
  FlattenResult result;
  std::map<std::string, const SubsystemDef*> defs;

  std::vector<sysmodel::ImplRow> impls;
  struct PendingOrder {
    ProcessId process;
    bool gets;
    std::vector<ChannelId> channels;
    // The declaring scope's channels have the consecutive ids
    // [first, scope_end); the line covers those below `before`. Channels
    // of enclosing scopes attach later, so theirs are >= scope_end.
    ChannelId before;
    ChannelId scope_end;
  };
  std::vector<PendingOrder> orders;

  explicit Flattener(const HierarchicalModel& h) : hier(h) {}

  bool fail(const std::string& message) {
    result.ok = false;
    result.error = message;
    return false;
  }

  static bool valid_name(const std::string& name) {
    return !name.empty() && name.find('.') == std::string::npos;
  }

  bool index_defs() {
    for (const SubsystemDef& def : hier.defs) {
      if (!valid_name(def.name)) {
        return fail("bad subsystem name '" + def.name + "'");
      }
      if (!defs.emplace(def.name, &def).second) {
        return fail("duplicate subsystem " + def.name);
      }
    }
    return true;
  }

  // Rejects instantiation cycles anywhere in the library (even among
  // definitions the top scope never reaches): a cyclic library has no finite
  // elaboration, so it is an error regardless of use. Iterative DFS — the
  // library graph is attacker-controlled, so no recursion on its depth.
  bool check_cycles() {
    std::map<std::string, int> color;  // 0/absent white, 1 gray, 2 black
    struct Frame {
      const SubsystemDef* def;
      std::size_t next;
    };
    for (const SubsystemDef& root : hier.defs) {
      if (color.count(root.name) != 0 && color[root.name] != 0) continue;
      std::vector<Frame> stack;
      std::vector<std::string> path;
      color[root.name] = 1;
      stack.push_back({&root, 0});
      path.push_back(root.name);
      while (!stack.empty()) {
        Frame& frame = stack.back();
        if (frame.next >= frame.def->instances.size()) {
          color[frame.def->name] = 2;
          stack.pop_back();
          path.pop_back();
          continue;
        }
        const std::string& sub = frame.def->instances[frame.next++].subsystem;
        const auto cit = color.find(sub);
        const int c = cit == color.end() ? 0 : cit->second;
        if (c == 1) {
          std::string cycle;
          std::size_t pos = 0;
          while (pos < path.size() && path[pos] != sub) ++pos;
          for (std::size_t i = pos; i < path.size(); ++i) {
            cycle += path[i] + " -> ";
          }
          cycle += sub;
          return fail("instantiation cycle: " + cycle);
        }
        if (c == 0) {
          const auto dit = defs.find(sub);
          if (dit == defs.end()) {
            color[sub] = 2;  // unknown subsystem: expand() reports it
            continue;
          }
          color[sub] = 1;
          stack.push_back({dit->second, 0});
          path.push_back(sub);
        }
      }
    }
    return true;
  }

  bool declared(const Scope& scope, const std::string& name) const {
    return scope.procs.count(name) != 0 || scope.instances.count(name) != 0;
  }

  // Resolves an endpoint to the flat process it denotes, following port
  // bindings through nested instances. `as_source` tells which port
  // direction is legal along the way (a channel may only start on out ports
  // and end on in ports). `context` names the referring entity for errors.
  bool resolve(const Scope& scope, const Endpoint& ep, bool as_source,
               const std::string& context, ProcessId* out) {
    if (ep.is_local()) {
      const auto it = scope.procs.find(ep.name);
      if (it == scope.procs.end()) {
        if (scope.instances.count(ep.name) != 0) {
          return fail(context + ": '" + ep.name +
                      "' is a subsystem instance; name one of its ports "
                      "(" + ep.name + ".<port>)");
        }
        return fail(context + ": unknown process '" + ep.name + "'");
      }
      *out = it->second;
      return true;
    }
    const auto it = scope.instances.find(ep.instance);
    if (it == scope.instances.end()) {
      return fail(context + ": unknown instance '" + ep.instance + "'");
    }
    const Scope& child = *it->second;
    const PortDecl* port = nullptr;
    for (const PortDecl& p : child.def->ports) {
      if (p.name == ep.name) {
        port = &p;
        break;
      }
    }
    if (port == nullptr) {
      return fail(context + ": subsystem " + child.def->name +
                  " has no port '" + ep.name + "'");
    }
    if (as_source == port->is_input) {
      return fail(context + ": port " + ep.instance + "." + ep.name +
                  " of subsystem " + child.def->name + " is an " +
                  (port->is_input ? "input" : "output") +
                  " port and cannot be used as a channel " +
                  (as_source ? "source" : "target"));
    }
    if (port->binding.name.empty()) {
      return fail("port " + ep.name + " of subsystem " + child.def->name +
                  " is unbound");
    }
    return resolve(child, port->binding, as_source,
                   "port " + ep.name + " of subsystem " + child.def->name,
                   out);
  }

  bool expand(const SubsystemDef& def, const std::string& prefix, int depth,
              Scope& scope) {
    scope.def = &def;
    if (depth > kMaxHierDepth) {
      return fail("hierarchy deeper than " + std::to_string(kMaxHierDepth) +
                  " levels at " + prefix);
    }
    for (const SubsystemDef::Item& item : def.items) {
      if (item.kind == SubsystemDef::Item::Kind::kProcess) {
        const ProcessDecl& p = def.processes[item.index];
        if (!valid_name(p.name)) {
          return fail("bad process name '" + p.name + "' in " +
                      (def.name.empty() ? "top level" : def.name));
        }
        if (declared(scope, p.name)) {
          return fail("duplicate name " + p.name + " in " +
                      (def.name.empty() ? "top level" : def.name));
        }
        if (p.latency < 0 || p.area < 0.0) {
          return fail("process " + prefix + p.name +
                      ": negative latency or area");
        }
        const ProcessId id =
            result.system.add_process(prefix + p.name, p.latency, p.area);
        if (p.primed) result.system.set_primed(id, true);
        scope.procs[p.name] = id;
      } else {
        const InstanceDecl& inst = def.instances[item.index];
        if (!valid_name(inst.name)) {
          return fail("bad instance name '" + inst.name + "'");
        }
        if (declared(scope, inst.name)) {
          return fail("duplicate name " + inst.name + " in " +
                      (def.name.empty() ? "top level" : def.name));
        }
        const auto dit = defs.find(inst.subsystem);
        if (dit == defs.end()) {
          return fail("instance " + prefix + inst.name +
                      ": unknown subsystem '" + inst.subsystem + "'");
        }
        auto child = std::make_unique<Scope>();
        if (!expand(*dit->second, prefix + inst.name + ".", depth + 1,
                    *child)) {
          return false;
        }
        scope.instances[inst.name] = std::move(child);
      }
    }
    // Every port binding must resolve, whether or not a channel ever uses
    // it: a dangling binding is a structural error in the definition, and
    // catching it here (per expansion) keeps the lazy resolve() path from
    // masking it when the port happens to be unconnected.
    for (const PortDecl& port : def.ports) {
      if (port.binding.name.empty()) {
        return fail("port " + port.name + " of subsystem " + def.name +
                    " is unbound");
      }
      ProcessId bound = sysmodel::kInvalidProcess;
      if (!resolve(scope, port.binding, /*as_source=*/!port.is_input,
                   "port " + port.name + " of subsystem " + def.name,
                   &bound)) {
        return false;
      }
    }
    const ChannelId first_channel = result.system.num_channels();
    for (const ChannelDecl& c : def.channels) {
      if (!valid_name(c.name)) {
        return fail("bad channel name '" + c.name + "'");
      }
      if (scope.chans.count(c.name) != 0) {
        return fail("duplicate channel " + c.name + " in " +
                    (def.name.empty() ? "top level" : def.name));
      }
      if (c.latency < 0) {
        return fail("channel " + prefix + c.name + ": negative latency");
      }
      if (c.capacity < 0 && c.capacity != sysmodel::kUnboundedCapacity) {
        return fail("channel " + prefix + c.name + ": bad capacity");
      }
      const std::string context = "channel " + prefix + c.name;
      ProcessId from = sysmodel::kInvalidProcess;
      ProcessId to = sysmodel::kInvalidProcess;
      if (!resolve(scope, c.from, /*as_source=*/true, context, &from)) {
        return false;
      }
      if (!resolve(scope, c.to, /*as_source=*/false, context, &to)) {
        return false;
      }
      const ChannelId id =
          result.system.add_channel(prefix + c.name, from, to, c.latency);
      if (c.capacity != 0) result.system.set_channel_capacity(id, c.capacity);
      scope.chans[c.name] = id;
    }
    for (const ImplDecl& impl : def.impls) {
      const auto it = scope.procs.find(impl.process);
      if (it == scope.procs.end()) {
        return fail("impl of unknown process '" + impl.process + "' in " +
                    (def.name.empty() ? "top level" : def.name));
      }
      impls.push_back({it->second, impl.impl, impl.selected});
    }
    for (const OrderDecl& order : def.orders) {
      const auto pit = scope.procs.find(order.process);
      if (pit == scope.procs.end()) {
        return fail(std::string(order.gets ? "gets" : "puts") +
                    " of unknown process '" + order.process + "' in " +
                    (def.name.empty() ? "top level" : def.name));
      }
      PendingOrder pending;
      pending.process = pit->second;
      pending.gets = order.gets;
      pending.scope_end = result.system.num_channels();
      pending.before =
          static_cast<ChannelId>(first_channel + order.channels_before);
      for (const std::string& cname : order.channels) {
        const auto cit = scope.chans.find(cname);
        if (cit == scope.chans.end()) {
          return fail(std::string(order.gets ? "gets" : "puts") + " of " +
                      order.process + ": unknown channel '" + cname + "'");
        }
        pending.channels.push_back(cit->second);
      }
      orders.push_back(std::move(pending));
    }
    return true;
  }

  // Applies each order line as the flat parser does: it must list exactly
  // the incident channels declared before it, and the scope's later
  // channels follow in declaration order. Lines are checked here, after
  // every scope is expanded, so structural errors keep reporting first.
  bool finalize_orders() {
    for (PendingOrder& pending : orders) {
      const std::vector<ChannelId>& incident =
          pending.gets ? result.system.input_order(pending.process)
                       : result.system.output_order(pending.process);
      const bool through_port =
          std::any_of(incident.begin(), incident.end(), [&](ChannelId c) {
            return c >= pending.scope_end;
          });
      const std::string what = std::string(pending.gets ? "gets" : "puts") +
                               " of " +
                               result.system.process_name(pending.process) +
                               " must list exactly its incident channels";
      if (through_port) {
        return fail(what +
                    " (channels attached through subsystem ports cannot be "
                    "reordered from inside the definition)");
      }
      if (!sysmodel::is_incident_order(result.system, pending.process,
                                       pending.gets, pending.channels,
                                       pending.before)) {
        return fail(what);
      }
      for (const ChannelId c : incident) {
        if (c >= pending.before) pending.channels.push_back(c);
      }
      if (pending.gets) {
        result.system.set_input_order(pending.process,
                                      std::move(pending.channels));
      } else {
        result.system.set_output_order(pending.process,
                                       std::move(pending.channels));
      }
    }
    return true;
  }

  // Counts the flattened process/channel totals (same traversal shape as
  // expand(), minus validation) so the system model reserves exactly once.
  // Bails at the depth cap and on unknown subsystems — expand() reports
  // those as errors; an undercount here only costs a reallocation.
  void reserve_system() {
    struct Frame {
      const SubsystemDef* def;
      std::size_t next;
    };
    std::vector<Frame> stack;
    std::size_t processes = 0;
    std::size_t channels = 0;
    stack.push_back({&hier.top, 0});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next == 0) {
        processes += frame.def->processes.size();
        channels += frame.def->channels.size();
      }
      if (frame.next >= frame.def->instances.size() ||
          stack.size() > static_cast<std::size_t>(kMaxHierDepth) + 1) {
        stack.pop_back();
        continue;
      }
      const auto dit = defs.find(frame.def->instances[frame.next++].subsystem);
      if (dit != defs.end()) stack.push_back({dit->second, 0});
    }
    result.system.reserve(processes, channels);
  }

  FlattenResult run() {
    result.ok = true;
    if (!index_defs() || !check_cycles()) return std::move(result);
    reserve_system();
    Scope top;
    if (!expand(hier.top, "", 0, top)) return std::move(result);
    sysmodel::attach_implementations(result.system, std::move(impls));
    if (!finalize_orders()) return std::move(result);
    return std::move(result);
  }
};

}  // namespace

FlattenResult flatten(const HierarchicalModel& hier) {
  // Containment mirror of io::parse_soc: hostile or pathological models must
  // yield a structured error, never an uncaught throw.
  try {
    Flattener flattener(hier);
    return flattener.run();
  } catch (const std::exception& e) {
    FlattenResult result;
    result.error = std::string("flatten failed: ") + e.what();
    return result;
  } catch (...) {
    FlattenResult result;
    result.error = "flatten failed: unknown error";
    return result;
  }
}

}  // namespace ermes::comp
