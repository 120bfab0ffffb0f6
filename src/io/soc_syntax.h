#pragma once
// The one .soc front end. The flat parser (soc_format.cpp) and the
// hierarchical parser (soc_hier.cpp) share its lexer, its number grammar,
// the grammar of the statements both formats have, its file reader and its
// containment wrapper; they differ only in what they do with a parsed
// declaration and in their name rules.
//
// Lexing: lines end at '\n' (a final line needs none); tokens are separated
// by the classic-locale whitespace set (space, \t, \v, \f, \r, so CRLF files
// lex like LF files); a token that starts with '#' ends the line, while
// `a#b` stays one token. Tokens are views into the input text.
//
// Numbers: integers (latencies, capacities) are an optional sign and decimal
// digits, magnitude at most 1e12; reals (areas) take strtod's decimal and
// 0x-hexadecimal syntax with an optional sign and must be finite, at most
// 1e18 in magnitude and not underflow to a subnormal or to zero.

#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "comp/hierarchy.h"

namespace ermes::io {

using Tokens = std::vector<std::string_view>;

/// What a parser does with the statements both grammars share. Each hook
/// gets a fully parsed declaration (names verbatim, channel endpoints as the
/// raw token in Endpoint::name) and returns "" or an error message; the
/// sink may move from the declaration.
class StatementSink {
 public:
  virtual std::string on_system(std::string_view name) = 0;
  virtual std::string on_process(comp::ProcessDecl& decl) = 0;
  virtual std::string on_channel(comp::ChannelDecl& decl) = 0;
  virtual std::string on_impl(comp::ImplDecl& decl) = 0;
  virtual std::string on_order(comp::OrderDecl& decl) = 0;
  /// A line whose keyword is none of the shared statements. The default
  /// rejects it as an unknown keyword.
  virtual std::string on_other(const Tokens& tokens);

 protected:
  ~StatementSink() = default;
};

/// Lexes `text` and feeds every statement to `sink`. A line's syntax errors
/// are found before the sink sees it. Returns "" or "line N: <message>" for
/// the first failing line.
std::string parse_statements(std::string_view text, StatementSink& sink);

/// Reads a whole file; false if it cannot be opened.
bool read_text_file(const std::string& path, std::string& text);

/// Runs one parser entry point so that nothing escapes it: every check runs
/// before the model is touched, so this only fires on resource exhaustion
/// (bad_alloc, length_error on pathological token sizes), which comes back
/// as Result::error.
template <class Result, class Parse>
Result contain_parse(Parse&& parse) {
  try {
    return parse();
  } catch (const std::exception& e) {
    Result result;
    result.error = std::string("parse failed: ") + e.what();
    return result;
  } catch (...) {
    Result result;
    result.error = "parse failed: unknown error";
    return result;
  }
}

/// Reads `path` and parses it with `parse`; "cannot open <path>" otherwise.
template <class Result>
Result load_file(const std::string& path,
                 Result (*parse)(const std::string& text)) {
  std::string text;
  if (!read_text_file(path, text)) {
    Result result;
    result.error = "cannot open " + path;
    return result;
  }
  return parse(text);
}

}  // namespace ermes::io
