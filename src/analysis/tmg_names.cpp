// On-demand display names for a system TMG (naming contract in
// analysis/tmg_builder.h). The graph itself stores no names; only DOT export
// and human-readable reports pay for these strings.

#include "analysis/tmg_builder.h"

namespace ermes::analysis {

std::string transition_name(const sysmodel::SystemModel& sys,
                            const SystemTmg& stmg, tmg::TransitionId t) {
  const TransitionOrigin& origin =
      stmg.transition_origin[static_cast<std::size_t>(t)];
  if (origin.kind == TransitionOrigin::Kind::kCompute) {
    return "L_" + sys.process_name(origin.process);
  }
  const bool read_side =
      stmg.channel_transition[static_cast<std::size_t>(origin.channel)] != t;
  return (read_side ? "rd_" : "ch_") + sys.channel_name(origin.channel);
}

std::string place_name(const sysmodel::SystemModel& sys, const SystemTmg& stmg,
                       tmg::PlaceId p) {
  const PlaceRole& role = stmg.place_role[static_cast<std::size_t>(p)];
  switch (role.kind) {
    case PlaceRole::Kind::kGet:
      return "get_" + sys.process_name(role.process) + "_" +
             sys.channel_name(role.channel);
    case PlaceRole::Kind::kPut:
      return "put_" + sys.process_name(role.process) + "_" +
             sys.channel_name(role.channel);
    case PlaceRole::Kind::kComputeIn:
      return "cin_" + sys.process_name(role.process);
    case PlaceRole::Kind::kFifoData:
      return "data_" + sys.channel_name(role.channel);
    case PlaceRole::Kind::kFifoSpace:
      return "space_" + sys.channel_name(role.channel);
  }
  return "p" + std::to_string(p);
}

}  // namespace ermes::analysis
