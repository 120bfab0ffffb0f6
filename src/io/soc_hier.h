#pragma once
// Hierarchical extension of the ".soc" format.
//
// Adds two constructs to the flat grammar, whose lexer and statements it
// shares (io/soc_syntax.h). A flat file in the layout write_soc emits
// (channels before gets/puts) parses to the same model through this entry
// point unless it declares a dotted name: '.' is reserved for <endpoint>s,
// so a flattened file (`ermes compose` writes instance paths such as
// `front.head`) parses only through io::parse_soc.
//
//   subsystem <name>
//     port in  <name> = <endpoint>   # data into the subsystem
//     port out <name> = <endpoint>   # data out of the subsystem
//     process ... / channel ... / impl ... / gets ... / puts ...
//     instance <name> <subsystem>
//   end
//   instance <name> <subsystem>      # also valid at top level
//
// where <endpoint> is a local process name or `<instance>.<port>`.
// Subsystem blocks do not nest textually; hierarchy comes from `instance`
// lines (definitions may be referenced before they are declared). The
// parser checks syntax and per-definition duplicates; comp::flatten does
// all cross-definition validation (unknown subsystems, instantiation
// cycles, port directions) and produces the flat model with dotted
// instance-path names.

#include <string>

#include "comp/hierarchy.h"
#include "io/soc_format.h"

namespace ermes::io {

struct HierParseResult {
  bool ok = false;
  std::string error;  // first error, with a line number
  std::string system_name;
  comp::HierarchicalModel hier;
};

/// Parses a hierarchical model from text (no flattening).
HierParseResult parse_soc_hier(const std::string& text);

/// Reads and parses a hierarchical .soc file.
HierParseResult load_soc_hier(const std::string& path);

/// Parses and flattens in one step. Flatten errors (which carry entity
/// names, not line numbers) are reported through ParseResult::error.
ParseResult parse_soc_flattened(const std::string& text);

/// Reads, parses, and flattens a .soc file.
ParseResult load_soc_flattened(const std::string& path);

}  // namespace ermes::io
