#include "analysis/tmg_builder.h"

#include <cassert>
#include <utility>

#include "obs/metrics.h"

namespace ermes::analysis {

using sysmodel::ChannelId;
using sysmodel::ProcessId;
using sysmodel::SystemModel;
using tmg::PlaceId;
using tmg::TransitionId;

SystemTmg build_tmg(const SystemModel& sys) {
  obs::count("analysis.tmg_builds");
  SystemTmg out;
  const auto num_channels = static_cast<std::size_t>(sys.num_channels());
  const auto num_processes = static_cast<std::size_t>(sys.num_processes());

  // Exact transition/place counts are known up front, so every array is
  // sized once: one transition per channel plus a read transition for
  // FIFOs, one per process; one place per ring element plus the FIFO
  // data/space couplings.
  std::size_t transitions = num_processes + num_channels;
  std::size_t places = 0;
  for (ChannelId c = 0; c < sys.num_channels(); ++c) {
    const std::int64_t capacity = sys.channel_capacity(c);
    if (capacity != 0) {
      ++transitions;
      places += capacity > 0 ? 2 : 1;
    }
  }
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    places += sys.input_order(p).size() + sys.output_order(p).size() + 1;
  }
  std::vector<std::int64_t> delay(transitions);
  std::vector<TransitionId> producer(places);
  std::vector<TransitionId> consumer(places);
  std::vector<std::int64_t> tokens(places, 0);
  out.transition_origin.resize(transitions);
  out.place_role.resize(places);

  // Transitions. A rendezvous channel is one shared transition; a FIFO
  // channel splits into a write transition (delay = channel latency, in the
  // producer's ring) and a zero-delay read transition (consumer's ring),
  // coupled by a data place (0 tokens) and a space place (k tokens). An
  // unbounded channel (capacity == kUnboundedCapacity) gets the data place
  // only: with no space place there is no consumer-to-producer arc, so the
  // channel never closes a cycle and the two sides fall into separate SCCs.
  out.channel_transition.resize(num_channels);
  out.channel_read_transition.resize(num_channels);
  TransitionId next_t = 0;
  for (ChannelId c = 0; c < sys.num_channels(); ++c) {
    const auto ci = static_cast<std::size_t>(c);
    const TransitionOrigin origin{TransitionOrigin::Kind::kChannel,
                                  sysmodel::kInvalidProcess, c};
    const TransitionId t = next_t++;
    delay[static_cast<std::size_t>(t)] = sys.channel_latency(c);
    out.transition_origin[static_cast<std::size_t>(t)] = origin;
    out.channel_transition[ci] = t;
    out.channel_read_transition[ci] = t;
    if (sys.channel_capacity(c) != 0) {
      const TransitionId tr = next_t++;
      out.transition_origin[static_cast<std::size_t>(tr)] = origin;
      out.channel_read_transition[ci] = tr;
    }
  }
  out.compute_transition.resize(num_processes);
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    const TransitionId t = next_t++;
    delay[static_cast<std::size_t>(t)] = sys.latency(p);
    out.transition_origin[static_cast<std::size_t>(t)] = {
        TransitionOrigin::Kind::kCompute, p, sysmodel::kInvalidChannel};
    out.compute_transition[static_cast<std::size_t>(p)] = t;
  }
  assert(static_cast<std::size_t>(next_t) == transitions);

  // Rings. Process p's ring visits its get transitions, L_p, then its put
  // transitions; the place feeding ring element i comes from element i-1
  // (cyclically) and takes element i's role.
  PlaceId next_p = 0;
  for (ProcessId p = 0; p < sys.num_processes(); ++p) {
    const auto& gets = sys.input_order(p);
    const auto& puts = sys.output_order(p);
    const std::size_t n = gets.size() + puts.size() + 1;
    const TransitionId compute =
        out.compute_transition[static_cast<std::size_t>(p)];
    // Ring element i: consumer-side read transitions (== the shared
    // transition for rendezvous channels), L_p, then write transitions.
    const auto element =
        [&](std::size_t i) -> std::pair<TransitionId, PlaceRole> {
      if (i < gets.size()) {
        const ChannelId c = gets[i];
        return {out.channel_read_transition[static_cast<std::size_t>(c)],
                {PlaceRole::Kind::kGet, p, c}};
      }
      if (i == gets.size()) {
        return {compute,
                {PlaceRole::Kind::kComputeIn, p, sysmodel::kInvalidChannel}};
      }
      const ChannelId c = puts[i - gets.size() - 1];
      return {out.channel_transition[static_cast<std::size_t>(c)],
              {PlaceRole::Kind::kPut, p, c}};
    };

    // The token sits on the place feeding the first I/O transition: the
    // first get when the process has inputs; otherwise the first put
    // (sources are "always ready to provide new input data"). A process with
    // no channels at all keeps the token on its compute self-ring.
    std::size_t marked_element = 0;
    if (gets.empty() && !puts.empty()) {
      marked_element = 1;  // first put transition (element 0 is L_p)
    } else if (sys.primed(p) && !puts.empty()) {
      // Primed process: starts ready to emit its initial output.
      marked_element = gets.size() + 1;
    }

    TransitionId from = element(n - 1).first;
    for (std::size_t i = 0; i < n; ++i) {
      const auto [to, role] = element(i);
      const auto pi = static_cast<std::size_t>(next_p++);
      producer[pi] = from;
      consumer[pi] = to;
      tokens[pi] = i == marked_element ? 1 : 0;
      out.place_role[pi] = role;
      from = to;
    }
  }
  // FIFO coupling places.
  for (ChannelId c = 0; c < sys.num_channels(); ++c) {
    const std::int64_t capacity = sys.channel_capacity(c);
    if (capacity == 0) continue;
    const auto ci = static_cast<std::size_t>(c);
    const TransitionId tw = out.channel_transition[ci];
    const TransitionId tr = out.channel_read_transition[ci];
    auto pi = static_cast<std::size_t>(next_p++);
    producer[pi] = tw;
    consumer[pi] = tr;
    out.place_role[pi] = {PlaceRole::Kind::kFifoData,
                          sysmodel::kInvalidProcess, c};
    if (capacity > 0) {
      pi = static_cast<std::size_t>(next_p++);
      producer[pi] = tr;
      consumer[pi] = tw;
      tokens[pi] = capacity;
      out.place_role[pi] = {PlaceRole::Kind::kFifoSpace,
                            sysmodel::kInvalidProcess, c};
    }
  }
  assert(static_cast<std::size_t>(next_p) == places);
  out.graph = tmg::MarkedGraph(std::move(delay), std::move(producer),
                               std::move(consumer), std::move(tokens));
  return out;
}

}  // namespace ermes::analysis
