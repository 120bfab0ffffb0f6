#include "dse/selection.h"

namespace ermes::dse {

using sysmodel::ProcessId;
using sysmodel::SystemModel;

std::vector<Candidate> candidates_of(const SystemModel& sys, ProcessId p) {
  std::vector<Candidate> list;
  if (!sys.has_implementations(p)) {
    list.push_back(Candidate{0, 0, 0.0});
    return list;
  }
  const sysmodel::ParetoSet& set = sys.implementations(p);
  list.reserve(set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    Candidate cand;
    cand.impl_index = i;
    cand.latency_gain = sys.latency(p) - set.at(i).latency;
    cand.area_gain = sys.area(p) - set.at(i).area;
    list.push_back(cand);
  }
  return list;
}

std::vector<std::vector<Candidate>> candidate_lists(
    const SystemModel& sys,
    const std::function<void(ProcessId, std::vector<Candidate>&)>& filter) {
  std::vector<std::vector<Candidate>> lists;
  lists.reserve(static_cast<std::size_t>(sys.num_processes()));
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    lists.push_back(candidates_of(sys, p));
    if (filter) filter(p, lists.back());
  }
  return lists;
}

SelectionVector current_selection(const SystemModel& sys) {
  SelectionVector sel(static_cast<std::size_t>(sys.num_processes()), 0);
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    if (sys.has_implementations(p)) {
      sel[static_cast<std::size_t>(p)] = sys.selected_implementation(p);
    }
  }
  return sel;
}

std::int64_t ring_io_latency(const SystemModel& sys, sysmodel::ProcessId p) {
  std::int64_t total = 0;
  for (sysmodel::ChannelId c : sys.input_order(p)) {
    total += sys.channel_latency(c);
  }
  for (sysmodel::ChannelId c : sys.output_order(p)) {
    total += sys.channel_latency(c);
  }
  return total;
}

bool apply_selection(SystemModel& sys, const SelectionVector& selection) {
  bool changed = false;
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    if (!sys.has_implementations(p)) continue;
    const std::size_t want = selection[static_cast<std::size_t>(p)];
    if (sys.selected_implementation(p) != want) {
      sys.select_implementation(p, want);
      changed = true;
    }
  }
  return changed;
}

}  // namespace ermes::dse
