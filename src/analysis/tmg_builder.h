#pragma once
// Elaboration of a SystemModel into its Timed Marked Graph (paper Section 3).
//
// Construction rules:
//  * one transition per channel, delay = channel latency;
//  * one compute transition L_p per process, delay = process latency;
//  * each process contributes a ring of places linking, in order, its input
//    channel transitions (get order), L_p, and its output channel
//    transitions (put order), closing back to the start. Channel transitions
//    are shared between the producer and the consumer rings, so every channel
//    transition is fed by a put-place (producer ring) and a get-place
//    (consumer ring) — exactly Fig. 3;
//  * initial marking: one token per process ring, on the place feeding the
//    first channel transition the process blocks on (the first get-place; for
//    a source testbench, its first put-place), modeling that each process
//    starts at its first I/O statement and the environment is always ready.
//
// Numbering and storage. Transitions are numbered channel by channel (the
// write transition, then a FIFO's read transition), then L_p per process;
// places ring by ring in process order (the place feeding the i-th ring
// element, i = 0..n-1), then each FIFO's data and space places. build_tmg
// fills the flat tmg::MarkedGraph arrays in one pass over the orders and
// allocates nothing per ring and no strings.
//
// Naming contract. The graph stores no names; transition_name/place_name
// derive them from transition_origin/place_role on demand, for DOT export
// and human-readable witnesses:
//   ch_<channel>  write (or rendezvous) transition of a channel
//   rd_<channel>  read transition of a FIFO channel
//   L_<process>   compute transition
//   get_<process>_<channel> / put_<process>_<channel> / cin_<process>
//                 ring places feeding a get, a put and L_p
//   data_<channel> / space_<channel>  FIFO coupling places

#include <string>
#include <vector>

#include "sysmodel/system.h"
#include "tmg/marked_graph.h"

namespace ermes::analysis {

/// Role of a place in the system interpretation of the TMG.
struct PlaceRole {
  enum class Kind {
    kGet,        // consumer-side place feeding a channel transition
    kPut,        // producer-side place feeding a channel transition
    kComputeIn,  // place feeding a compute transition L_p
    kFifoData,   // FIFO channel: write -> read place (buffered items)
    kFifoSpace   // FIFO channel: read -> write place (free slots, k tokens)
  };
  Kind kind = Kind::kComputeIn;
  sysmodel::ProcessId process = sysmodel::kInvalidProcess;
  sysmodel::ChannelId channel = sysmodel::kInvalidChannel;  // non-compute
};

/// What a transition represents.
struct TransitionOrigin {
  enum class Kind { kChannel, kCompute };
  Kind kind = Kind::kCompute;
  sysmodel::ProcessId process = sysmodel::kInvalidProcess;  // compute only
  sysmodel::ChannelId channel = sysmodel::kInvalidChannel;  // channel only
};

struct SystemTmg {
  tmg::MarkedGraph graph;

  /// channel_transition[c] = write-side transition of channel c (for a
  /// rendezvous channel, the single shared transition; for a FIFO channel,
  /// the producer's write transition).
  std::vector<tmg::TransitionId> channel_transition;
  /// channel_read_transition[c] = read-side transition (== write side for
  /// rendezvous channels).
  std::vector<tmg::TransitionId> channel_read_transition;
  /// compute_transition[p] = L_p.
  std::vector<tmg::TransitionId> compute_transition;

  /// Reverse maps, indexed by TransitionId / PlaceId.
  std::vector<TransitionOrigin> transition_origin;
  std::vector<PlaceRole> place_role;
};

/// Builds the TMG of `sys` under its current I/O orders and latencies.
SystemTmg build_tmg(const sysmodel::SystemModel& sys);

/// Display name of transition `t` of `stmg` (the TMG of `sys`), per the
/// naming contract above.
std::string transition_name(const sysmodel::SystemModel& sys,
                            const SystemTmg& stmg, tmg::TransitionId t);

/// Display name of place `p` of `stmg` (the TMG of `sys`).
std::string place_name(const sysmodel::SystemModel& sys, const SystemTmg& stmg,
                       tmg::PlaceId p);

}  // namespace ermes::analysis
