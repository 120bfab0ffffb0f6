// Unit tests for the .soc text format: parsing, serialization, exact round
// trips, and error reporting.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/performance.h"
#include "apps/mpeg2/characterization.h"
#include "io/soc_format.h"
#include "io/soc_hier.h"
#include "ordering/baselines.h"
#include "synth/generator.h"
#include "synth/pareto_gen.h"
#include "soc_bad_corpus.h"
#include "sysmodel/builder.h"
#include "util/rng.h"

namespace ermes::io {
namespace {

using sysmodel::ChannelId;
using sysmodel::ProcessId;
using sysmodel::SystemModel;

void expect_equivalent(const SystemModel& a, const SystemModel& b) {
  ASSERT_EQ(a.num_processes(), b.num_processes());
  ASSERT_EQ(a.num_channels(), b.num_channels());
  for (ProcessId p = 0; p < a.num_processes(); ++p) {
    EXPECT_EQ(a.process_name(p), b.process_name(p));
    EXPECT_EQ(a.latency(p), b.latency(p));
    EXPECT_DOUBLE_EQ(a.area(p), b.area(p));
    EXPECT_EQ(a.primed(p), b.primed(p));
    EXPECT_EQ(a.input_order(p), b.input_order(p));
    EXPECT_EQ(a.output_order(p), b.output_order(p));
    ASSERT_EQ(a.has_implementations(p), b.has_implementations(p));
    if (a.has_implementations(p)) {
      ASSERT_EQ(a.implementations(p).size(), b.implementations(p).size());
      EXPECT_EQ(a.selected_implementation(p), b.selected_implementation(p));
      for (std::size_t i = 0; i < a.implementations(p).size(); ++i) {
        EXPECT_EQ(a.implementations(p).at(i), b.implementations(p).at(i));
      }
    }
  }
  for (ChannelId c = 0; c < a.num_channels(); ++c) {
    EXPECT_EQ(a.channel_name(c), b.channel_name(c));
    EXPECT_EQ(a.channel_source(c), b.channel_source(c));
    EXPECT_EQ(a.channel_target(c), b.channel_target(c));
    EXPECT_EQ(a.channel_latency(c), b.channel_latency(c));
    EXPECT_EQ(a.channel_capacity(c), b.channel_capacity(c));
  }
}

// ---- parsing -----------------------------------------------------------------

TEST(SocParseTest, MinimalSystem) {
  const ParseResult parsed = parse_soc(R"(
system tiny
process a latency 3
process b latency 4 area 0.5
channel ab a -> b latency 7
)");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.system_name, "tiny");
  EXPECT_EQ(parsed.system.num_processes(), 2);
  EXPECT_EQ(parsed.system.latency(0), 3);
  EXPECT_DOUBLE_EQ(parsed.system.area(1), 0.5);
  EXPECT_EQ(parsed.system.channel_latency(0), 7);
}

TEST(SocParseTest, CommentsAndBlanksIgnored) {
  const ParseResult parsed = parse_soc(R"(
# a comment
process a latency 1   # trailing comment

process b latency 2
channel ab a -> b latency 1
)");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.system.num_processes(), 2);
}

TEST(SocParseTest, PrimedAndCapacity) {
  const ParseResult parsed = parse_soc(R"(
process a latency 1
process b latency 2 primed
channel ab a -> b latency 4 capacity 3
)");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_TRUE(parsed.system.primed(1));
  EXPECT_EQ(parsed.system.channel_capacity(0), 3);
}

TEST(SocParseTest, ImplementationsAttach) {
  const ParseResult parsed = parse_soc(R"(
process a latency 8
process b latency 1
channel ab a -> b latency 1
impl a fast latency 2 area 4.0
impl a slow latency 8 area 1.0 selected
)");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_TRUE(parsed.system.has_implementations(0));
  EXPECT_EQ(parsed.system.implementations(0).size(), 2u);
  EXPECT_EQ(parsed.system.latency(0), 8);  // slow selected
  EXPECT_EQ(parsed.system.selected_implementation(0), 1u);
}

TEST(SocParseTest, OrdersApplied) {
  const ParseResult parsed = parse_soc(R"(
process a latency 1
process b latency 1
process c latency 1
channel x a -> c latency 1
channel y b -> c latency 1
gets c y x
)");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const ProcessId c = parsed.system.find_process("c");
  EXPECT_EQ(parsed.system.channel_name(parsed.system.input_order(c)[0]), "y");
}

// The flat grammar takes dotted names verbatim (comp::flatten writes them,
// see `ermes compose`); the hierarchical grammar reserves '.' for
// <instance>.<port> endpoints, so a flattened file is flat-only.
TEST(SocParseTest, DottedNamesAreFlatOnly) {
  const std::string text =
      "process front.head latency 1\nprocess b latency 1\n"
      "channel front.x front.head -> b latency 1\n";
  const ParseResult flat = parse_soc(text);
  ASSERT_TRUE(flat.ok) << flat.error;
  EXPECT_EQ(flat.system.process_name(0), "front.head");
  EXPECT_EQ(flat.system.channel_name(0), "front.x");
  const HierParseResult hier = parse_soc_hier(text);
  EXPECT_FALSE(hier.ok);
  EXPECT_EQ(hier.error,
            "line 1: bad process name 'front.head' (declared names may not "
            "contain '.')");
}

// ---- parse errors ----------------------------------------------------------------

TEST(SocParseTest, UnknownKeywordReportsLine) {
  const ParseResult parsed = parse_soc("process a latency 1\nbogus line\n");
  EXPECT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("line 2"), std::string::npos);
}

TEST(SocParseTest, UnknownProcessInChannel) {
  const ParseResult parsed =
      parse_soc("process a latency 1\nchannel x a -> ghost latency 1\n");
  EXPECT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("ghost"), std::string::npos);
}

TEST(SocParseTest, DuplicateProcessRejected) {
  const ParseResult parsed =
      parse_soc("process a latency 1\nprocess a latency 2\n");
  EXPECT_FALSE(parsed.ok);
}

TEST(SocParseTest, BadLatencyRejected) {
  EXPECT_FALSE(parse_soc("process a latency abc\n").ok);
  EXPECT_FALSE(parse_soc("process a latency -3\n").ok);
}

// A line's syntax is checked before its names, in both grammars: a
// malformed value wins over a duplicate or unknown name on the same line.
TEST(SocParseTest, SyntaxErrorsComeBeforeNameErrors) {
  const std::string duplicate = "process a latency 1\nprocess a latency x\n";
  EXPECT_EQ(parse_soc(duplicate).error, "line 2: bad latency 'x'");
  EXPECT_EQ(parse_soc_flattened(duplicate).error, "line 2: bad latency 'x'");
  const std::string unknown =
      "process b latency 1\nchannel c a -> b latency x\n";
  EXPECT_EQ(parse_soc(unknown).error, "line 2: bad latency");
}

TEST(SocParseTest, IncompleteOrderRejected) {
  const ParseResult parsed = parse_soc(R"(
process a latency 1
process b latency 1
process c latency 1
channel x a -> c latency 1
channel y b -> c latency 1
gets c y
)");
  EXPECT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("incident"), std::string::npos);
}

// An order line covers the channels declared before it, in both grammars;
// a channel declared after it is appended. The hierarchical path checks
// each line the same way, and names subsystem ports only when one is
// involved.
TEST(SocParseTest, OrderLineCoversChannelsDeclaredBeforeIt) {
  const std::string text =
      "process a latency 1\nprocess b latency 1\nprocess c latency 1\n"
      "channel y b -> c latency 1\ngets c y\nchannel x a -> c latency 1\n";
  const ParseResult flat = parse_soc(text);
  ASSERT_TRUE(flat.ok) << flat.error;
  const ParseResult hier = parse_soc_flattened(text);
  ASSERT_TRUE(hier.ok) << hier.error;
  expect_equivalent(flat.system, hier.system);
  const ProcessId c = hier.system.find_process("c");
  ASSERT_EQ(hier.system.input_order(c).size(), 2u);
  EXPECT_EQ(hier.system.channel_name(hier.system.input_order(c)[0]), "y");
  EXPECT_EQ(hier.system.channel_name(hier.system.input_order(c)[1]), "x");
  EXPECT_EQ(analysis::analyze_system(hier.system).cycle_time,
            analysis::analyze_system(flat.system).cycle_time);

  // Listing a channel declared after the line is an error in both, and
  // the hierarchical text no longer blames subsystem ports.
  const std::string early =
      "process a latency 1\nprocess b latency 1\nprocess c latency 1\n"
      "channel y b -> c latency 1\ngets c x y\nchannel x a -> c latency 1\n";
  EXPECT_EQ(parse_soc(early).error, "line 5: unknown channel x");
  EXPECT_EQ(parse_soc_flattened(early).error, "line 5: unknown channel x");
  const std::string partial =
      "process a latency 1\nprocess b latency 1\nprocess c latency 1\n"
      "channel y b -> c latency 1\nchannel x a -> c latency 1\ngets c y\n";
  EXPECT_EQ(parse_soc_flattened(partial).error,
            "gets of c must list exactly its incident channels");

  // A channel attached through a port cannot be reordered from inside.
  const std::string ported =
      "subsystem s\nprocess p latency 1\nprocess q latency 1\n"
      "channel pq p -> q latency 1\ngets q pq\nport in i = q\nend\n"
      "process src latency 1\ninstance u s\n"
      "channel in src -> u.i latency 1\n";
  EXPECT_EQ(parse_soc_flattened(ported).error,
            "gets of u.q must list exactly its incident channels (channels "
            "attached through subsystem ports cannot be reordered from "
            "inside the definition)");
}

TEST(SocParseTest, MissingFileReported) {
  const ParseResult parsed = load_soc("/nonexistent/path.soc");
  EXPECT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("cannot open"), std::string::npos);
}

// ---- round trips ---------------------------------------------------------------

TEST(SocRoundTripTest, MotivatingExample) {
  const SystemModel original = sysmodel::make_dac14_motivating_example();
  const ParseResult parsed = parse_soc(write_soc(original, "m"));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  expect_equivalent(original, parsed.system);
}

TEST(SocRoundTripTest, Mpeg2WithImplementations) {
  const SystemModel original = mpeg2::make_characterized_mpeg2_encoder();
  const ParseResult parsed = parse_soc(write_soc(original, "mpeg2"));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  expect_equivalent(original, parsed.system);
  // The analytic report of the reparsed system is identical.
  EXPECT_DOUBLE_EQ(analysis::analyze_system(original).cycle_time,
                   analysis::analyze_system(parsed.system).cycle_time);
}

TEST(SocRoundTripTest, RandomSystemsWithOrdersAndCapacities) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    synth::GeneratorConfig config;
    config.num_processes = 20;
    config.num_channels = 34;
    config.feedback_fraction = 0.2;
    config.seed = seed;
    SystemModel original = synth::generate_soc(config);
    synth::attach_pareto_sets(original, seed + 5);
    util::Rng rng(seed * 7);
    ordering::apply_random_ordering(original, rng);
    for (ChannelId c = 0; c < original.num_channels(); ++c) {
      if (rng.flip(0.3)) {
        original.set_channel_capacity(c, rng.uniform_int(1, 5));
      }
    }
    const ParseResult parsed = parse_soc(write_soc(original, "rand"));
    ASSERT_TRUE(parsed.ok) << "seed " << seed << ": " << parsed.error;
    expect_equivalent(original, parsed.system);
  }
}

TEST(SocRoundTripTest, FileSaveLoad) {
  const SystemModel original = sysmodel::make_dac14_motivating_example();
  const std::string path = ::testing::TempDir() + "/ermes_roundtrip.soc";
  ASSERT_TRUE(save_soc(original, path, "m"));
  const ParseResult parsed = load_soc(path);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  expect_equivalent(original, parsed.system);
  std::remove(path.c_str());
}

TEST(SocWriteTest, StableOutput) {
  const SystemModel sys = sysmodel::make_dac14_motivating_example();
  EXPECT_EQ(write_soc(sys, "m"), write_soc(sys, "m"));
}

// ---- hostile input -----------------------------------------------------------

// Every corpus entry must produce a structured error — ok == false with a
// message — and never crash or throw out of parse_soc. The same corpus runs
// end-to-end against the daemon in tests/test_svc.cpp.
TEST(SocHardeningTest, BadCorpusRejectedStructurally) {
  for (const ermes::testing::BadSoc& bad : ermes::testing::bad_soc_corpus()) {
    ParseResult parsed;
    ASSERT_NO_THROW(parsed = parse_soc(bad.text)) << bad.label;
    EXPECT_FALSE(parsed.ok) << bad.label;
    EXPECT_FALSE(parsed.error.empty()) << bad.label;
  }
}

// Rejections must be deterministic: the same hostile input yields the same
// error message (no dependence on leftover parser state).
TEST(SocHardeningTest, BadCorpusDeterministic) {
  for (const ermes::testing::BadSoc& bad : ermes::testing::bad_soc_corpus()) {
    EXPECT_EQ(parse_soc(bad.text).error, parse_soc(bad.text).error)
        << bad.label;
  }
}

// An absurdly long token must not crash (a 4 MiB process name is legal, if
// silly — the point is bounded, exception-free handling).
TEST(SocHardeningTest, HugeTokenSurvives) {
  ParseResult parsed;
  ASSERT_NO_THROW(parsed = parse_soc(ermes::testing::huge_token_soc(4u << 20)));
  if (parsed.ok) {
    EXPECT_EQ(parsed.system.num_processes(), 1u);
  } else {
    EXPECT_FALSE(parsed.error.empty());
  }
}

// Truncated documents (every prefix of a valid file) must parse or reject
// cleanly — a truncation can never crash.
TEST(SocHardeningTest, EveryPrefixHandled) {
  const std::string full =
      write_soc(sysmodel::make_dac14_motivating_example(), "m");
  for (std::size_t len = 0; len <= full.size(); ++len) {
    ParseResult parsed;
    ASSERT_NO_THROW(parsed = parse_soc(full.substr(0, len))) << "len " << len;
    if (!parsed.ok) {
      EXPECT_FALSE(parsed.error.empty()) << "len " << len;
    }
  }
}

// Error messages carry the offending line number.
TEST(SocHardeningTest, ErrorsNameTheLine) {
  const ParseResult parsed =
      parse_soc("system ok\nprocess a latency 1\nprocess a latency 2\n");
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("line 3"), std::string::npos) << parsed.error;
}

// Golden rejection texts: the exact error (line number and message) of every
// hostile-corpus entry, through the flat entry point and through the
// hierarchical one (parse + flatten). Both corpora run through both.
struct GoldenError {
  const char* label;
  const char* flat;       // io::parse_soc
  const char* flattened;  // io::parse_soc_flattened
};

const std::vector<GoldenError>& golden_errors() {
  static const std::vector<GoldenError> golden = {
    {"unknown keyword",
     "line 1: unknown keyword 'systtem'",
     "line 1: unknown keyword 'systtem'"},
    {"system without name",
     "line 1: expected: system <name>",
     "line 1: expected: system <name>"},
    {"system with extra tokens",
     "line 1: expected: system <name>",
     "line 1: expected: system <name>"},
    {"process missing latency keyword",
     "line 1: expected: process <name> latency <cycles> [area <mm2>] [primed]",
     "line 1: expected: process <name> latency <cycles> [area <mm2>] [primed]"},
    {"process non-numeric latency",
     "line 1: bad latency 'ten'",
     "line 1: bad latency 'ten'"},
    {"process negative latency",
     "line 1: bad latency '-4'",
     "line 1: bad latency '-4'"},
    {"process latency overflow",
     "line 1: bad latency '99999999999999999999999999'",
     "line 1: bad latency '99999999999999999999999999'"},
    {"process latency above magnitude bound",
     "line 1: bad latency '9000000000000000'",
     "line 1: bad latency '9000000000000000'"},
    {"process area inf",
     "line 1: bad area",
     "line 1: bad area"},
    {"process area nan",
     "line 1: bad area",
     "line 1: bad area"},
    {"process negative area",
     "line 1: bad area",
     "line 1: bad area"},
    {"process area overflow",
     "line 1: bad area",
     "line 1: bad area"},
    {"process trailing garbage",
     "line 1: unexpected token 'garbage'",
     "line 1: unexpected token 'garbage'"},
    {"duplicate process",
     "line 2: duplicate process a",
     "line 2: duplicate name a"},
    {"channel arrow missing",
     "line 3: expected: channel <name> <from> -> <to> latency <cycles> [capacity <slots>|unbounded]",
     "line 3: expected: channel <name> <from> -> <to> latency <cycles> [capacity <slots>|unbounded]"},
    {"channel unknown source",
     "line 2: unknown process a",
     "channel ab: unknown process 'a'"},
    {"channel unknown target",
     "line 2: unknown process b",
     "channel ab: unknown process 'b'"},
    {"channel negative latency",
     "line 3: bad latency",
     "line 3: bad latency"},
    {"channel bad capacity",
     "line 3: bad capacity",
     "line 3: bad capacity"},
    {"channel negative capacity",
     "line 3: bad capacity",
     "line 3: bad capacity"},
    {"duplicate channel",
     "line 4: duplicate channel ab",
     "line 4: duplicate channel ab"},
    {"channel trailing garbage",
     "line 3: unexpected trailing tokens",
     "line 3: unexpected trailing tokens"},
    {"impl for unknown process",
     "line 1: unknown process ghost",
     "line 1: impl of unknown process ghost"},
    {"impl non-finite area",
     "line 2: bad area",
     "line 2: bad area"},
    {"impl trailing garbage",
     "line 2: unexpected trailing tokens",
     "line 2: unexpected trailing tokens"},
    {"gets unknown process",
     "line 1: unknown process ghost",
     "line 1: unknown process ghost"},
    {"gets unknown channel",
     "line 4: unknown channel ghost",
     "line 4: unknown channel ghost"},
    {"gets wrong channel set",
     "line 5: gets of b must list exactly its incident channels",
     "gets of b must list exactly its incident channels"},
    {"gets duplicated channel",
     "line 4: gets of b must list exactly its incident channels",
     "gets of b must list exactly its incident channels"},
    {"subsystem without name",
     "line 1: unknown keyword 'subsystem'",
     "line 1: expected: subsystem <name>"},
    {"subsystem with extra tokens",
     "line 1: unknown keyword 'subsystem'",
     "line 1: expected: subsystem <name>"},
    {"subsystem never closed",
     "line 1: unknown keyword 'subsystem'",
     "unterminated subsystem a (missing 'end')"},
    {"end without subsystem",
     "line 2: unknown keyword 'end'",
     "line 2: 'end' outside a subsystem block"},
    {"textually nested subsystem",
     "line 1: unknown keyword 'subsystem'",
     "line 2: subsystem blocks do not nest (missing 'end'?)"},
    {"duplicate subsystem definition",
     "line 1: unknown keyword 'subsystem'",
     "line 4: duplicate subsystem a"},
    {"port outside subsystem",
     "line 1: unknown keyword 'port'",
     "line 1: 'port' is only valid inside a subsystem block"},
    {"port bad direction",
     "line 1: unknown keyword 'subsystem'",
     "line 2: expected: port in|out <name> = <endpoint> (a port must be bound to an internal endpoint)"},
    {"port missing equals",
     "line 1: unknown keyword 'subsystem'",
     "line 2: expected: port in|out <name> = <endpoint> (a port must be bound to an internal endpoint)"},
    {"duplicate port",
     "line 1: unknown keyword 'subsystem'",
     "line 4: duplicate port x"},
    {"port bound to unknown process",
     "line 1: unknown keyword 'subsystem'",
     "port x of subsystem a: unknown process 'ghost'"},
    {"endpoint with two dots",
     "line 1: unknown keyword 'subsystem'",
     "line 8: bad endpoint 'u.v.x' (expected <process> or <instance>.<port>)"},
    {"instance without subsystem name",
     "line 1: unknown keyword 'instance'",
     "line 1: expected: instance <name> <subsystem>"},
    {"instance of unknown subsystem",
     "line 1: unknown keyword 'instance'",
     "instance u: unknown subsystem 'ghost'"},
    {"duplicate instance",
     "line 1: unknown keyword 'subsystem'",
     "line 5: duplicate name u"},
    {"instance shadowing a process",
     "line 1: unknown keyword 'subsystem'",
     "line 5: duplicate name u"},
    {"self-instantiation cycle",
     "line 1: unknown keyword 'subsystem'",
     "instantiation cycle: a -> a"},
    {"two-definition instantiation cycle",
     "line 1: unknown keyword 'subsystem'",
     "instantiation cycle: a -> b -> a"},
    {"channel to unknown instance port",
     "line 1: unknown keyword 'subsystem'",
     "channel c: subsystem a has no port 'ghost'"},
    {"channel into an out port",
     "line 1: unknown keyword 'subsystem'",
     "channel c: port u.x of subsystem a is an output port and cannot be used as a channel target"},
    {"channel from an in port",
     "line 1: unknown keyword 'subsystem'",
     "channel c: port u.x of subsystem a is an input port and cannot be used as a channel source"},
    {"unused definition with unbound channel endpoint",
     "line 1: unknown keyword 'subsystem'",
     "channel u.c: unknown process 'ghost'"},
    {"order names a port channel",
     "line 1: unknown keyword 'subsystem'",
     "line 4: unknown channel link"},
  };
  return golden;
}

TEST(SocHardeningTest, BadCorpusErrorTextsAreGolden) {
  std::vector<ermes::testing::BadSoc> corpus = ermes::testing::bad_soc_corpus();
  for (const ermes::testing::BadSoc& bad : ermes::testing::bad_hier_corpus()) {
    corpus.push_back(bad);
  }
  const std::vector<GoldenError>& golden = golden_errors();
  ASSERT_EQ(corpus.size(), golden.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    ASSERT_STREQ(corpus[i].label, golden[i].label);
    EXPECT_EQ(parse_soc(corpus[i].text).error, golden[i].flat)
        << corpus[i].label;
    EXPECT_EQ(parse_soc_flattened(corpus[i].text).error, golden[i].flattened)
        << corpus[i].label;
  }
}

// ---- lexer and number edge cases -------------------------------------------

// One line per outcome: the error text, or "ok <name> <latency> <area>" of
// the first process.
std::string outcome(const ParseResult& parsed) {
  if (!parsed.ok) return parsed.error;
  char numbers[64];
  std::snprintf(numbers, sizeof numbers, " %lld %.17g",
                static_cast<long long>(parsed.system.latency(0)),
                parsed.system.area(0));
  return "ok " + parsed.system.process_name(0) + numbers;
}

struct LexCase {
  const char* label;
  std::string text;
  std::string expected;
};

// Whitespace, comments, line ends and number syntax. The flat and the
// hierarchical entry points agree on every case.
TEST(SocLexTest, EdgeCasesMatchTheGrammar) {
  using namespace std::string_literals;
  const std::vector<LexCase> cases = {
      {"plus-signed latency", "process a latency +5\n", "ok a 5 0"},
      {"doubly signed latency", "process a latency +-5\n",
       "line 1: bad latency '+-5'"},
      {"hex latency", "process a latency 0x10\n",
       "line 1: bad latency '0x10'"},
      {"exponent latency", "process a latency 1e3\n",
       "line 1: bad latency '1e3'"},
      {"latency at the bound", "process a latency 1000000000000\n",
       "ok a 1000000000000 0"},
      {"latency past the bound", "process a latency 1000000000001\n",
       "line 1: bad latency '1000000000001'"},
      {"leading zeros", "process a latency 00012\n", "ok a 12 0"},
      {"hex area", "process a latency 1 area 0x10\n", "ok a 1 16"},
      {"upper-case hex area", "process a latency 1 area 0X10\n", "ok a 1 16"},
      {"hex float area", "process a latency 1 area 0x1p3\n", "ok a 1 8"},
      {"hex fraction area", "process a latency 1 area 0x.8\n", "ok a 1 0.5"},
      {"signed hex area", "process a latency 1 area +0x1p3\n", "ok a 1 8"},
      {"hex sign after prefix", "process a latency 1 area 0x-1\n",
       "line 1: bad area"},
      {"bare hex prefix", "process a latency 1 area 0x\n", "line 1: bad area"},
      {"plus-signed area", "process a latency 1 area +1.5\n", "ok a 1 1.5"},
      {"doubly signed area", "process a latency 1 area +-1.5\n",
       "line 1: bad area"},
      {"bare fraction", "process a latency 1 area .5\n", "ok a 1 0.5"},
      {"dangling exponent", "process a latency 1 area 1e\n", "line 1: bad area"},
      {"subnormal area", "process a latency 1 area 1e-320\n",
       "line 1: bad area"},
      {"underflow to zero", "process a latency 1 area 1e-400\n",
       "line 1: bad area"},
      {"zero with a tiny exponent", "process a latency 1 area 0e-999\n",
       "ok a 1 0"},
      {"smallest normal area",
       "process a latency 1 area 2.2250738585072014e-308\n",
       "ok a 1 2.2250738585072014e-308"},
      // strtod flagged only inexact subnormals; every subnormal is rejected
      // now, so the one exact spelling no longer slips through.
      {"exact subnormal hex area", "process a latency 1 area 0x1p-1074\n",
       "line 1: bad area"},
      {"area at the bound", "process a latency 1 area 1e18\n",
       "ok a 1 1e+18"},
      {"area past the bound", "process a latency 1 area 1.0000001e18\n",
       "line 1: bad area"},
      {"infinite area", "process a latency 1 area inf\n", "line 1: bad area"},
      {"negative infinite area", "process a latency 1 area -inf\n",
       "line 1: bad area"},
      {"nan area", "process a latency 1 area nan\n", "line 1: bad area"},
      {"overflowing area", "process a latency 1 area 1e999\n",
       "line 1: bad area"},
      {"CRLF line ends", "system s\r\nprocess a latency 1\r\n", "ok a 1 0"},
      {"CRLF error line", "process a latency 1\r\nprocess b latency x\r\n",
       "line 2: bad latency 'x'"},
      {"tab separators", "process\ta\tlatency\t3\n", "ok a 3 0"},
      {"vertical tab and form feed", "process\va\flatency\v3\f\n", "ok a 3 0"},
      {"final line without newline", "process a latency 7", "ok a 7 0"},
      {"error on a final line without newline",
       "process a latency 1\nprocess b latency x", "line 2: bad latency 'x'"},
      {"blank lines count", "\n\nbogus", "line 3: unknown keyword 'bogus'"},
      {"hash inside a token", "process a#b latency 1\n", "ok a#b 1 0"},
      {"hash starting a token", "process a latency #1\n",
       "line 1: expected: process <name> latency <cycles> [area <mm2>] "
       "[primed]"},
      {"NUL inside a name", "process a\0b latency 1\n"s, "ok a\0b 1 0"s},
      {"NUL inside a number", "process a latency 1\0\n"s,
       "line 1: bad latency '1\0'"s},
  };
  for (const LexCase& c : cases) {
    EXPECT_EQ(outcome(parse_soc(c.text)), c.expected) << c.label;
    EXPECT_EQ(outcome(parse_soc_flattened(c.text)), c.expected) << c.label;
  }
}

}  // namespace
}  // namespace ermes::io
