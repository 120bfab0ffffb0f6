#include "sysmodel/builder.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <unordered_map>

#include "util/log.h"

namespace ermes::sysmodel {

SystemModel build_system(const SystemSpec& spec) {
  SystemModel sys;
  std::unordered_map<std::string, ProcessId> by_name;
  for (const SystemSpec::Proc& proc : spec.processes) {
    by_name[proc.name] = sys.add_process(proc.name, proc.latency, proc.area);
  }
  for (const SystemSpec::Chan& chan : spec.channels) {
    const auto from = by_name.find(chan.from);
    const auto to = by_name.find(chan.to);
    if (from == by_name.end() || to == by_name.end()) {
      ERMES_LOG(kError) << "build_system: unknown endpoint in channel "
                        << chan.name;
      std::abort();
    }
    sys.add_channel(chan.name, from->second, to->second, chan.latency);
  }
  return sys;
}

void attach_implementations(SystemModel& sys, std::vector<ImplRow> rows) {
  std::stable_sort(rows.begin(), rows.end(),
                   [](const ImplRow& a, const ImplRow& b) {
                     return a.process < b.process;
                   });
  for (auto first = rows.begin(); first != rows.end();) {
    const ProcessId p = first->process;
    ParetoSet set;
    const Implementation* selected = nullptr;
    auto row = first;
    for (; row != rows.end() && row->process == p; ++row) {
      set.add(row->impl);
      if (row->selected) selected = &row->impl;
    }
    const std::size_t index =
        selected == nullptr ? ParetoSet::npos : set.find(*selected);
    sys.set_implementations(p, std::move(set),
                            index == ParetoSet::npos ? 0 : index);
    first = row;
  }
}

bool is_incident_order(const SystemModel& sys, ProcessId p, bool gets,
                       const std::vector<ChannelId>& order, ChannelId before) {
  std::vector<ChannelId> listed = order;
  std::vector<ChannelId> incident;
  for (const ChannelId c : gets ? sys.input_order(p) : sys.output_order(p)) {
    if (c < before) incident.push_back(c);
  }
  std::sort(listed.begin(), listed.end());
  std::sort(incident.begin(), incident.end());
  return listed == incident;
}

SystemModel make_dac14_motivating_example() {
  SystemSpec spec;
  spec.processes = {
      {"src", 1, 0.0}, {"P2", 5, 0.0}, {"P3", 2, 0.0}, {"P4", 1, 0.0},
      {"P5", 2, 0.0},  {"P6", 2, 0.0}, {"snk", 1, 0.0},
  };
  spec.channels = {
      {"a", "src", "P2", 2}, {"b", "P2", "P3", 1}, {"c", "P3", "P4", 2},
      {"d", "P2", "P6", 3},  {"e", "P4", "P6", 1}, {"f", "P2", "P5", 1},
      {"g", "P5", "P6", 2},  {"h", "P6", "snk", 1},
  };
  return build_system(spec);
}

void apply_motivating_orders(SystemModel& sys,
                             const std::vector<std::string>& p2_puts,
                             const std::vector<std::string>& p6_gets) {
  const ProcessId p2 = sys.find_process("P2");
  const ProcessId p6 = sys.find_process("P6");
  assert(p2 != kInvalidProcess && p6 != kInvalidProcess);
  std::vector<ChannelId> puts, gets;
  for (const std::string& name : p2_puts) {
    const ChannelId c = sys.find_channel(name);
    assert(c != kInvalidChannel);
    puts.push_back(c);
  }
  for (const std::string& name : p6_gets) {
    const ChannelId c = sys.find_channel(name);
    assert(c != kInvalidChannel);
    gets.push_back(c);
  }
  sys.set_output_order(p2, std::move(puts));
  sys.set_input_order(p6, std::move(gets));
}

}  // namespace ermes::sysmodel
