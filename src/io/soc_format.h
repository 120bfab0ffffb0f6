#pragma once
// Plain-text serialization of system models (".soc" format).
//
// ERMES is a CAD tool; designers need to feed it systems without writing
// C++. The format is line-oriented:
//
//   # comment
//   system <name>
//   process <name> latency <cycles> [area <mm2>] [primed]
//   impl <process> <name> latency <cycles> area <mm2> [selected]
//   channel <name> <from> -> <to> latency <cycles>
//           [capacity <slots>|unbounded]
//   gets <process> <channel> <channel> ...
//   puts <process> <channel> <channel> ...
//
// Declarations may appear in any order as long as names are declared before
// use. `gets`/`puts` lines override the default (declaration-order) I/O
// orders and must list exactly the incident channels. Names are taken
// verbatim, dots included. The lexer, number syntax and statement grammar
// are shared with the hierarchical format (io/soc_syntax.h).

#include <optional>
#include <string>

#include "sysmodel/system.h"

namespace ermes::io {

struct ParseResult {
  bool ok = false;
  std::string error;       // first error, with a line number
  std::string system_name;
  sysmodel::SystemModel system;
};

/// Parses a model from text.
ParseResult parse_soc(const std::string& text);

/// Reads and parses a .soc file. error mentions the path on I/O failure.
ParseResult load_soc(const std::string& path);

/// Serializes a model (stable, diff-friendly ordering; orders are always
/// written explicitly so a round trip is exact).
std::string write_soc(const sysmodel::SystemModel& sys,
                      const std::string& system_name = "system");

/// Writes to a file; returns false on I/O failure.
bool save_soc(const sysmodel::SystemModel& sys, const std::string& path,
              const std::string& system_name = "system");

}  // namespace ermes::io
