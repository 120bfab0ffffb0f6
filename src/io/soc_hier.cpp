#include "io/soc_hier.h"

#include <functional>
#include <set>
#include <utility>

#include "comp/flatten.h"
#include "io/soc_syntax.h"

namespace ermes::io {

namespace {

// Declared names within one scope (checked at parse time; flatten re-checks
// for programmatically built models).
struct ScopeNames {
  std::set<std::string, std::less<>> items;  // processes + instances
  std::set<std::string, std::less<>> channels;
  std::set<std::string, std::less<>> ports;
};

// Declared names may not contain '.', which <endpoint> reserves.
bool dotted(std::string_view name) {
  return name.find('.') != std::string_view::npos;
}

std::string bad_name(const char* what, std::string_view name) {
  return std::string("bad ") + what + " name '" + std::string(name) +
         "' (declared names may not contain '.')";
}

// <endpoint> = <process> | <instance>.<port>
std::string parse_endpoint(std::string_view token, comp::Endpoint& out) {
  const std::size_t dot = token.find('.');
  if (dot == std::string_view::npos) {
    out.instance.clear();
    out.name.assign(token);
    return {};
  }
  const std::string_view instance = token.substr(0, dot);
  const std::string_view name = token.substr(dot + 1);
  if (instance.empty() || name.empty() || dotted(name)) {
    return "bad endpoint '" + std::string(token) +
           "' (expected <process> or <instance>.<port>)";
  }
  out.instance.assign(instance);
  out.name.assign(name);
  return {};
}

// Records each declaration in the current scope (a subsystem definition or
// the top level); comp::flatten resolves names across scopes.
struct HierParser final : StatementSink {
  HierParseResult& result;
  comp::SubsystemDef* cur;  // current scope (a def or top)
  bool in_subsystem = false;
  ScopeNames top_names;
  ScopeNames def_names;
  std::set<std::string, std::less<>> def_set;

  explicit HierParser(HierParseResult& r) : result(r), cur(&r.hier.top) {}

  ScopeNames& names() { return in_subsystem ? def_names : top_names; }

  std::string on_system(std::string_view name) override {
    if (in_subsystem) return "'system' is only valid at top level";
    result.system_name.assign(name);
    return {};
  }

  std::string on_process(comp::ProcessDecl& p) override {
    if (dotted(p.name)) return bad_name("process", p.name);
    if (!names().items.insert(p.name).second) return "duplicate name " + p.name;
    cur->add_process(std::move(p));
    return {};
  }

  std::string on_channel(comp::ChannelDecl& c) override {
    if (dotted(c.name)) return bad_name("channel", c.name);
    if (!names().channels.insert(c.name).second) {
      return "duplicate channel " + c.name;
    }
    // The grammar leaves each endpoint token whole in Endpoint::name.
    for (comp::Endpoint* ep : {&c.from, &c.to}) {
      const std::string token = std::move(ep->name);
      std::string error = parse_endpoint(token, *ep);
      if (!error.empty()) return error;
    }
    cur->channels.push_back(std::move(c));
    return {};
  }

  std::string on_impl(comp::ImplDecl& row) override {
    if (names().items.count(row.process) == 0) {
      return "impl of unknown process " + row.process;
    }
    cur->impls.push_back(std::move(row));
    return {};
  }

  std::string on_order(comp::OrderDecl& order) override {
    if (names().items.count(order.process) == 0) {
      return "unknown process " + order.process;
    }
    for (const std::string& channel : order.channels) {
      if (names().channels.count(channel) == 0) {
        return "unknown channel " + channel;
      }
    }
    order.channels_before = cur->channels.size();
    cur->orders.push_back(std::move(order));
    return {};
  }

  std::string on_other(const Tokens& t) override {
    if (t[0] == "subsystem") return on_subsystem(t);
    if (t[0] == "end") return on_end(t);
    if (t[0] == "port") return on_port(t);
    if (t[0] == "instance") return on_instance(t);
    return StatementSink::on_other(t);
  }

  std::string on_subsystem(const Tokens& t) {
    if (in_subsystem) return "subsystem blocks do not nest (missing 'end'?)";
    if (t.size() != 2) return "expected: subsystem <name>";
    if (dotted(t[1])) return bad_name("subsystem", t[1]);
    if (!def_set.emplace(t[1]).second) {
      return "duplicate subsystem " + std::string(t[1]);
    }
    result.hier.defs.emplace_back();
    result.hier.defs.back().name.assign(t[1]);
    cur = &result.hier.defs.back();
    in_subsystem = true;
    def_names = {};
    return {};
  }

  std::string on_end(const Tokens& t) {
    if (!in_subsystem) return "'end' outside a subsystem block";
    if (t.size() != 1) return "unexpected tokens after 'end'";
    cur = &result.hier.top;
    in_subsystem = false;
    return {};
  }

  std::string on_port(const Tokens& t) {
    if (!in_subsystem) return "'port' is only valid inside a subsystem block";
    if (t.size() != 5 || (t[1] != "in" && t[1] != "out") || t[3] != "=") {
      return "expected: port in|out <name> = <endpoint> (a port must be "
             "bound to an internal endpoint)";
    }
    if (dotted(t[2])) return bad_name("port", t[2]);
    if (!names().ports.emplace(t[2]).second) {
      return "duplicate port " + std::string(t[2]);
    }
    comp::PortDecl port;
    port.name.assign(t[2]);
    port.is_input = t[1] == "in";
    std::string error = parse_endpoint(t[4], port.binding);
    if (!error.empty()) return error;
    cur->ports.push_back(std::move(port));
    return {};
  }

  std::string on_instance(const Tokens& t) {
    if (t.size() != 3) return "expected: instance <name> <subsystem>";
    if (dotted(t[1])) return bad_name("instance", t[1]);
    if (!names().items.emplace(t[1]).second) {
      return "duplicate name " + std::string(t[1]);
    }
    // Forward references to subsystems are allowed; comp::flatten resolves
    // them (and rejects unknowns and cycles).
    comp::InstanceDecl inst;
    inst.name.assign(t[1]);
    inst.subsystem.assign(t[2]);
    cur->add_instance(std::move(inst));
    return {};
  }
};

}  // namespace

HierParseResult parse_soc_hier(const std::string& text) {
  return contain_parse<HierParseResult>([&text] {
    HierParseResult result;
    result.system_name = "system";
    HierParser parser(result);
    result.error = parse_statements(text, parser);
    if (result.error.empty() && parser.in_subsystem) {
      result.error =
          "unterminated subsystem " + parser.cur->name + " (missing 'end')";
    }
    result.ok = result.error.empty();
    return result;
  });
}

HierParseResult load_soc_hier(const std::string& path) {
  return load_file(path, parse_soc_hier);
}

ParseResult parse_soc_flattened(const std::string& text) {
  ParseResult out;
  HierParseResult parsed = parse_soc_hier(text);
  if (!parsed.ok) {
    out.error = std::move(parsed.error);
    return out;
  }
  comp::FlattenResult flat = comp::flatten(parsed.hier);
  if (!flat.ok) {
    out.error = std::move(flat.error);
    return out;
  }
  out.ok = true;
  out.system_name = std::move(parsed.system_name);
  out.system = std::move(flat.system);
  return out;
}

}  // namespace ermes::io
