#pragma once
// Deterministic elaboration of a HierarchicalModel into a flat SystemModel.
//
// Expansion is purely structural: instances are macro-expanded depth-first
// in declaration order, every process and channel gets the dotted name of
// its instance path ("dec.vld.parse"), and the result is bit-identical in
// analysis to the same system written out flat by hand. Determinism
// guarantees, in flattening order:
//
//  * processes appear in declaration order, instances expanded in place;
//  * a scope's channels are added after its items (so the channels of inner
//    subsystems come first in every process' default I/O orders);
//  * implementation sets and explicit gets/puts orders are applied at the
//    end, through the same sysmodel finisher as the flat parser
//    (sysmodel::attach_implementations / is_incident_order).
//
// All semantic validation lives here (the parser only checks syntax and
// per-definition duplicates): unknown definitions, instantiation cycles,
// depth overflow, duplicate/dotted names, unbound endpoints, and port
// direction misuse all produce a structured error naming the entities
// involved.

#include <string>

#include "comp/hierarchy.h"
#include "sysmodel/system.h"

namespace ermes::comp {

/// Instance nesting beyond this depth is rejected (guards hostile inputs;
/// a legitimate design hierarchy is a handful of levels deep).
inline constexpr int kMaxHierDepth = 32;

struct FlattenResult {
  bool ok = false;
  std::string error;
  sysmodel::SystemModel system;
};

FlattenResult flatten(const HierarchicalModel& hier);

}  // namespace ermes::comp
