#include "sysmodel/system.h"

#include <algorithm>
#include <cassert>

namespace ermes::sysmodel {

ProcessId SystemModel::add_process(std::string name, std::int64_t latency,
                                   double area) {
  assert(latency >= 0);
  const ProcessId p = num_processes();
  ProcRec rec;
  rec.name = std::move(name);
  rec.latency = latency;
  rec.area = area;
  procs_.push_back(std::move(rec));
  return p;
}

ChannelId SystemModel::add_channel(std::string name, ProcessId from,
                                   ProcessId to, std::int64_t latency) {
  assert(valid_process(from) && valid_process(to));
  assert(latency >= 0);
  const ChannelId c = num_channels();
  ChanRec rec;
  rec.name = std::move(name);
  rec.from = from;
  rec.to = to;
  rec.latency = latency;
  chans_.push_back(std::move(rec));
  procs_[static_cast<std::size_t>(from)].outputs.push_back(c);
  procs_[static_cast<std::size_t>(to)].inputs.push_back(c);
  return c;
}

void SystemModel::set_latency(ProcessId p, std::int64_t latency) {
  assert(valid_process(p) && latency >= 0);
  procs_[static_cast<std::size_t>(p)].latency = latency;
}

double SystemModel::total_area() const {
  double total = 0.0;
  for (const ProcRec& rec : procs_) total += rec.area;
  return total;
}

void SystemModel::set_implementations(ProcessId p, ParetoSet set,
                                      std::size_t selected) {
  assert(valid_process(p) && !set.empty() && selected < set.size());
  procs_[static_cast<std::size_t>(p)].pareto = std::move(set);
  select_implementation(p, selected);
}

void SystemModel::select_implementation(ProcessId p, std::size_t index) {
  assert(valid_process(p));
  ProcRec& rec = procs_[static_cast<std::size_t>(p)];
  assert(index < rec.pareto.size());
  rec.selected = index;
  rec.latency = rec.pareto.at(index).latency;
  rec.area = rec.pareto.at(index).area;
}

std::size_t SystemModel::total_pareto_points() const {
  std::size_t total = 0;
  for (const ProcRec& rec : procs_) total += rec.pareto.size();
  return total;
}

void SystemModel::set_channel_latency(ChannelId c, std::int64_t latency) {
  assert(valid_channel(c) && latency >= 0);
  chans_[static_cast<std::size_t>(c)].latency = latency;
}

void SystemModel::set_channel_capacity(ChannelId c, std::int64_t capacity) {
  assert(valid_channel(c) &&
         (capacity >= 0 || capacity == kUnboundedCapacity));
  chans_[static_cast<std::size_t>(c)].capacity = capacity;
}

void SystemModel::retarget_channel(ChannelId c, ProcessId new_target) {
  assert(valid_channel(c) && valid_process(new_target));
  ChanRec& rec = chans_[static_cast<std::size_t>(c)];
  if (rec.to == new_target) return;
  std::vector<ChannelId>& old_inputs =
      procs_[static_cast<std::size_t>(rec.to)].inputs;
  old_inputs.erase(std::remove(old_inputs.begin(), old_inputs.end(), c),
                   old_inputs.end());
  rec.to = new_target;
  procs_[static_cast<std::size_t>(new_target)].inputs.push_back(c);
}

ChannelId SystemModel::find_channel(const std::string& name) const {
  for (ChannelId c = 0; c < num_channels(); ++c) {
    if (chans_[static_cast<std::size_t>(c)].name == name) return c;
  }
  return kInvalidChannel;
}

ProcessId SystemModel::find_process(const std::string& name) const {
  for (ProcessId p = 0; p < num_processes(); ++p) {
    if (procs_[static_cast<std::size_t>(p)].name == name) return p;
  }
  return kInvalidProcess;
}

namespace {

[[maybe_unused]] bool same_multiset(std::vector<ChannelId> a,
                                    std::vector<ChannelId> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

}  // namespace

void SystemModel::set_input_order(ProcessId p, std::vector<ChannelId> order) {
  assert(valid_process(p));
  ProcRec& rec = procs_[static_cast<std::size_t>(p)];
  assert(same_multiset(rec.inputs, order));
  rec.inputs = std::move(order);
}

void SystemModel::set_output_order(ProcessId p, std::vector<ChannelId> order) {
  assert(valid_process(p));
  ProcRec& rec = procs_[static_cast<std::size_t>(p)];
  assert(same_multiset(rec.outputs, order));
  rec.outputs = std::move(order);
}

std::vector<ProcessId> SystemModel::sources() const {
  std::vector<ProcessId> list;
  for (ProcessId p = 0; p < num_processes(); ++p) {
    if (is_source(p)) list.push_back(p);
  }
  return list;
}

std::vector<ProcessId> SystemModel::sinks() const {
  std::vector<ProcessId> list;
  for (ProcessId p = 0; p < num_processes(); ++p) {
    if (is_sink(p)) list.push_back(p);
  }
  return list;
}

double SystemModel::num_order_combinations() const {
  double combos = 1.0;
  for (const ProcRec& rec : procs_) {
    for (std::size_t k = 2; k <= rec.inputs.size(); ++k) {
      combos *= static_cast<double>(k);
    }
    for (std::size_t k = 2; k <= rec.outputs.size(); ++k) {
      combos *= static_cast<double>(k);
    }
  }
  return combos;
}

graph::Digraph SystemModel::topology() const {
  graph::Digraph g;
  g.add_nodes(num_processes());
  for (ProcessId p = 0; p < num_processes(); ++p) {
    g.set_name(p, process_name(p));
  }
  for (ChannelId c = 0; c < num_channels(); ++c) {
    [[maybe_unused]] const graph::ArcId a =
        g.add_arc(channel_source(c), channel_target(c));
    assert(a == c);
  }
  return g;
}

}  // namespace ermes::sysmodel
