#include "io/soc_syntax.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <system_error>

namespace ermes::io {

namespace {

// The classic-locale isspace set; '\n' never reaches a line.
constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r' ||
         c == '\n';
}

constexpr std::int64_t kMaxMagnitude = 1'000'000'000'000;  // 1e12
constexpr double kMaxReal = 1e18;

// Splits one line into `tokens`; a token starting with '#' ends the line.
void split_line(std::string_view line, Tokens& tokens) {
  tokens.clear();
  std::size_t i = 0;
  while (true) {
    while (i < line.size() && is_space(line[i])) ++i;
    if (i == line.size() || line[i] == '#') return;
    const std::size_t start = i;
    while (i < line.size() && !is_space(line[i])) ++i;
    tokens.push_back(line.substr(start, i - start));
  }
}

// Integer fields: magnitude at most 1e12, far from int64 overflow in any
// sum or product over a system, however hostile the input.
bool parse_i64(std::string_view token, std::int64_t& out) {
  // from_chars takes no '+'; strtol's grammar allows one before the digits.
  if (token.size() > 1 && token[0] == '+' && token[1] != '-') {
    token.remove_prefix(1);
  }
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc() && ptr == end && out <= kMaxMagnitude &&
         out >= -kMaxMagnitude;
}

bool parse_f64(std::string_view token, double& out) {
  // strtod's grammar: [sign] (decimal | 0x hex | inf | nan). from_chars
  // takes neither '+' nor the 0x prefix, so both are peeled off here.
  const bool negative = !token.empty() && token[0] == '-';
  if (!token.empty() && (token[0] == '+' || token[0] == '-')) {
    token.remove_prefix(1);
  }
  std::chars_format format = std::chars_format::general;
  if (token.size() > 1 && token[0] == '0' &&
      (token[1] == 'x' || token[1] == 'X')) {
    format = std::chars_format::hex;
    token.remove_prefix(2);
  }
  if (token.empty() || token[0] == '+' || token[0] == '-') return false;
  double value = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value, format);
  // Non-finite values would poison every cycle-time and area computation;
  // a subnormal result means the literal underflowed.
  if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
      value > kMaxReal ||
      (value != 0.0 && value < std::numeric_limits<double>::min())) {
    return false;
  }
  out = negative ? -value : value;
  return true;
}

std::string quoted(std::string_view token) {
  return "'" + std::string(token) + "'";
}

std::string parse_process(const Tokens& t, StatementSink& sink) {
  if (t.size() < 4 || t[2] != "latency") {
    return "expected: process <name> latency <cycles> [area <mm2>] [primed]";
  }
  comp::ProcessDecl p;
  p.name.assign(t[1]);
  if (!parse_i64(t[3], p.latency) || p.latency < 0) {
    return "bad latency " + quoted(t[3]);
  }
  for (std::size_t i = 4; i < t.size();) {
    if (t[i] == "area" && i + 1 < t.size()) {
      if (!parse_f64(t[i + 1], p.area) || p.area < 0.0) return "bad area";
      i += 2;
    } else if (t[i] == "primed") {
      p.primed = true;
      ++i;
    } else {
      return "unexpected token " + quoted(t[i]);
    }
  }
  return sink.on_process(p);
}

std::string parse_channel(const Tokens& t, StatementSink& sink) {
  if (t.size() < 7 || t[3] != "->" || t[5] != "latency") {
    return "expected: channel <name> <from> -> <to> latency <cycles> "
           "[capacity <slots>|unbounded]";
  }
  comp::ChannelDecl c;
  c.name.assign(t[1]);
  c.from.name.assign(t[2]);
  c.to.name.assign(t[4]);
  if (!parse_i64(t[6], c.latency) || c.latency < 0) return "bad latency";
  if (t.size() >= 9 && t[7] == "capacity") {
    if (t[8] == "unbounded") {
      c.capacity = sysmodel::kUnboundedCapacity;
    } else if (!parse_i64(t[8], c.capacity) || c.capacity < 0) {
      return "bad capacity";
    }
    if (t.size() != 9) return "unexpected trailing tokens";
  } else if (t.size() != 7) {
    return "unexpected trailing tokens";
  }
  return sink.on_channel(c);
}

std::string parse_impl(const Tokens& t, StatementSink& sink) {
  if (t.size() < 7 || t[3] != "latency" || t[5] != "area") {
    return "expected: impl <process> <name> latency <cycles> area <mm2> "
           "[selected]";
  }
  comp::ImplDecl row;
  row.process.assign(t[1]);
  row.impl.name.assign(t[2]);
  if (!parse_i64(t[4], row.impl.latency) || row.impl.latency < 0) {
    return "bad latency";
  }
  if (!parse_f64(t[6], row.impl.area) || row.impl.area < 0.0) {
    return "bad area";
  }
  row.selected = t.size() == 8 && t[7] == "selected";
  if (t.size() > 8 || (t.size() == 8 && !row.selected)) {
    return "unexpected trailing tokens";
  }
  return sink.on_impl(row);
}

std::string parse_order(const Tokens& t, StatementSink& sink) {
  if (t.size() < 2) return "expected: gets/puts <process> <channels>";
  comp::OrderDecl order;
  order.gets = t[0] == "gets";
  order.process.assign(t[1]);
  order.channels.assign(t.begin() + 2, t.end());
  return sink.on_order(order);
}

std::string parse_statement(const Tokens& t, StatementSink& sink) {
  const std::string_view keyword = t[0];
  if (keyword == "system") {
    if (t.size() != 2) return "expected: system <name>";
    return sink.on_system(t[1]);
  }
  if (keyword == "process") return parse_process(t, sink);
  if (keyword == "channel") return parse_channel(t, sink);
  if (keyword == "impl") return parse_impl(t, sink);
  if (keyword == "gets" || keyword == "puts") return parse_order(t, sink);
  return sink.on_other(t);
}

}  // namespace

std::string StatementSink::on_other(const Tokens& tokens) {
  return "unknown keyword " + quoted(tokens[0]);
}

std::string parse_statements(std::string_view text, StatementSink& sink) {
  Tokens tokens;  // views into `text`
  for (int line_no = 1; !text.empty(); ++line_no) {
    const std::size_t end = text.find('\n');
    split_line(text.substr(0, end), tokens);
    text.remove_prefix(end == std::string_view::npos ? text.size() : end + 1);
    if (tokens.empty()) continue;
    std::string error = parse_statement(tokens, sink);
    if (!error.empty()) {
      return "line " + std::to_string(line_no) + ": " + error;
    }
  }
  return {};
}

bool read_text_file(const std::string& path, std::string& text) {
  std::ifstream in(path);
  if (!in) return false;
  text.assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return true;
}

}  // namespace ermes::io
