#include "io/soc_format.h"

#include <fstream>
#include <functional>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "io/soc_syntax.h"
#include "sysmodel/builder.h"

namespace ermes::io {

using sysmodel::ChannelId;
using sysmodel::ProcessId;
using sysmodel::SystemModel;

namespace {

// Resolves names into the model as it goes; `impl` rows attach at the end.
// Names are taken verbatim, dots included (comp::flatten writes dotted
// instance paths).
struct FlatParser final : StatementSink {
  ParseResult& result;
  std::map<std::string, ProcessId, std::less<>> procs;
  std::map<std::string, ChannelId, std::less<>> chans;
  std::vector<sysmodel::ImplRow> impls;

  explicit FlatParser(ParseResult& r) : result(r) {}

  std::string on_system(std::string_view name) override {
    result.system_name.assign(name);
    return {};
  }

  std::string on_process(comp::ProcessDecl& p) override {
    const auto [it, fresh] =
        procs.try_emplace(p.name, result.system.num_processes());
    if (!fresh) return "duplicate process " + p.name;
    result.system.add_process(std::move(p.name), p.latency, p.area);
    if (p.primed) result.system.set_primed(it->second, true);
    return {};
  }

  std::string on_channel(comp::ChannelDecl& c) override {
    if (chans.count(c.name) != 0) return "duplicate channel " + c.name;
    const auto from = procs.find(c.from.name);
    if (from == procs.end()) return "unknown process " + c.from.name;
    const auto to = procs.find(c.to.name);
    if (to == procs.end()) return "unknown process " + c.to.name;
    const ChannelId id =
        result.system.add_channel(c.name, from->second, to->second, c.latency);
    result.system.set_channel_capacity(id, c.capacity);
    chans.emplace(std::move(c.name), id);
    return {};
  }

  std::string on_impl(comp::ImplDecl& row) override {
    const auto p = procs.find(row.process);
    if (p == procs.end()) return "unknown process " + row.process;
    impls.push_back({p->second, std::move(row.impl), row.selected});
    return {};
  }

  std::string on_order(comp::OrderDecl& decl) override {
    const auto p = procs.find(decl.process);
    if (p == procs.end()) return "unknown process " + decl.process;
    std::vector<ChannelId> order;
    order.reserve(decl.channels.size());
    for (const std::string& name : decl.channels) {
      const auto c = chans.find(name);
      if (c == chans.end()) return "unknown channel " + name;
      order.push_back(c->second);
    }
    // Against the channels declared so far (set_*_order asserts this).
    if (!sysmodel::is_incident_order(result.system, p->second, decl.gets,
                                     order, result.system.num_channels())) {
      return std::string(decl.gets ? "gets" : "puts") + " of " +
             decl.process + " must list exactly its incident channels";
    }
    if (decl.gets) {
      result.system.set_input_order(p->second, std::move(order));
    } else {
      result.system.set_output_order(p->second, std::move(order));
    }
    return {};
  }
};

}  // namespace

ParseResult parse_soc(const std::string& text) {
  return contain_parse<ParseResult>([&text] {
    ParseResult result;
    result.system_name = "system";
    FlatParser parser(result);
    result.error = parse_statements(text, parser);
    result.ok = result.error.empty();
    if (result.ok) {
      sysmodel::attach_implementations(result.system, std::move(parser.impls));
    }
    return result;
  });
}

ParseResult load_soc(const std::string& path) {
  return load_file(path, parse_soc);
}

std::string write_soc(const SystemModel& sys, const std::string& system_name) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "system " << system_name << "\n\n";
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    out << "process " << sys.process_name(p) << " latency "
        << sys.latency(p);
    if (sys.area(p) != 0.0) out << " area " << sys.area(p);
    if (sys.primed(p)) out << " primed";
    out << "\n";
  }
  out << "\n";
  for (ChannelId c = 0; c < sys.num_channels(); ++c) {
    out << "channel " << sys.channel_name(c) << " "
        << sys.process_name(sys.channel_source(c)) << " -> "
        << sys.process_name(sys.channel_target(c)) << " latency "
        << sys.channel_latency(c);
    if (sys.channel_capacity(c) == sysmodel::kUnboundedCapacity) {
      out << " capacity unbounded";
    } else if (sys.channel_capacity(c) > 0) {
      out << " capacity " << sys.channel_capacity(c);
    }
    out << "\n";
  }
  out << "\n";
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    if (!sys.has_implementations(p)) continue;
    const sysmodel::ParetoSet& set = sys.implementations(p);
    for (std::size_t i = 0; i < set.size(); ++i) {
      out << "impl " << sys.process_name(p) << " " << set.at(i).name
          << " latency " << set.at(i).latency << " area " << set.at(i).area;
      if (i == sys.selected_implementation(p)) out << " selected";
      out << "\n";
    }
  }
  out << "\n";
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    if (sys.input_order(p).size() > 1) {
      out << "gets " << sys.process_name(p);
      for (ChannelId c : sys.input_order(p)) {
        out << " " << sys.channel_name(c);
      }
      out << "\n";
    }
    if (sys.output_order(p).size() > 1) {
      out << "puts " << sys.process_name(p);
      for (ChannelId c : sys.output_order(p)) {
        out << " " << sys.channel_name(c);
      }
      out << "\n";
    }
  }
  return out.str();
}

bool save_soc(const SystemModel& sys, const std::string& path,
              const std::string& system_name) {
  std::ofstream out(path);
  if (!out) return false;
  out << write_soc(sys, system_name);
  return static_cast<bool>(out);
}

}  // namespace ermes::io
