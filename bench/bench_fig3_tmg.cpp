// E2 — The TMG model (paper Fig. 3): prints the elaborated TMG of the
// motivating example — the P2 fragment the figure shows plus whole-model
// statistics — and validates the construction rules (two input places per
// channel transition, one token per process ring, initial marking on the
// first get-place / source put-place).

#include <cstdio>

#include "analysis/performance.h"
#include "analysis/tmg_builder.h"
#include "sysmodel/builder.h"
#include "tmg/liveness.h"
#include "util/table.h"

using namespace ermes;
using analysis::PlaceRole;
using analysis::SystemTmg;
using sysmodel::SystemModel;

int main() {
  std::printf("== E2: TMG model of the motivating example (Fig. 3) ==\n\n");
  const SystemModel sys = sysmodel::make_dac14_motivating_example();
  const SystemTmg stmg = analysis::build_tmg(sys);

  std::printf("system: %d processes, %d channels\n", sys.num_processes(),
              sys.num_channels());
  std::printf("TMG:    %d transitions (%d channel + %d compute), %d places, "
              "%lld tokens\n\n",
              stmg.graph.num_transitions(), sys.num_channels(),
              sys.num_processes(), stmg.graph.num_places(),
              static_cast<long long>(stmg.graph.total_tokens()));

  // The P2 fragment of Fig. 3: transitions around P2's ring.
  std::printf("-- P2 fragment (compare Fig. 3) --\n");
  util::Table table({"place", "producer", "consumer", "tokens", "role"});
  const sysmodel::ProcessId p2 = sys.find_process("P2");
  for (tmg::PlaceId pl = 0; pl < stmg.graph.num_places(); ++pl) {
    const PlaceRole& role = stmg.place_role[static_cast<std::size_t>(pl)];
    if (role.process != p2) continue;
    const char* kind = role.kind == PlaceRole::Kind::kGet   ? "get-place"
                       : role.kind == PlaceRole::Kind::kPut ? "put-place"
                                                            : "compute-in";
    table.add_row({analysis::place_name(sys, stmg, pl),
                   analysis::transition_name(sys, stmg,
                                             stmg.graph.producer(pl)),
                   analysis::transition_name(sys, stmg,
                                             stmg.graph.consumer(pl)),
                   std::to_string(stmg.graph.tokens(pl)), kind});
  }
  std::printf("%s", table.to_text(2).c_str());

  // Structural checks mirrored from the paper's construction.
  int channel_transitions_with_two_inputs = 0;
  for (sysmodel::ChannelId c = 0; c < sys.num_channels(); ++c) {
    const tmg::TransitionId t =
        stmg.channel_transition[static_cast<std::size_t>(c)];
    if (stmg.graph.in_places(t).size() == 2) {
      ++channel_transitions_with_two_inputs;
    }
  }
  std::printf("\nchannel transitions fed by a put-place + a get-place: %d/%d\n",
              channel_transitions_with_two_inputs, sys.num_channels());
  std::printf("tokens == processes (one per ring): %s\n",
              stmg.graph.total_tokens() == sys.num_processes() ? "yes" : "NO");
  std::printf("liveness: %s\n",
              tmg::is_live(stmg.graph) ? "live" : "DEADLOCKED");

  const analysis::PerformanceReport report = analysis::analyze(stmg);
  std::printf("cycle time pi(G) = %s (throughput %s)\n",
              util::format_double(report.cycle_time).c_str(),
              util::format_double(report.throughput, 5).c_str());
  return 0;
}
