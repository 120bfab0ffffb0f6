// Tests for the analysis service (src/svc): the JSON document model and
// parser, the NDJSON protocol, the broker (admission control, deadlines,
// drain), and the socket server end-to-end over a unix-domain socket with
// concurrent clients.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "io/soc_format.h"
#include "io/soc_hier.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "soc_bad_corpus.h"
#include "svc/broker.h"
#include "svc/client.h"
#include "svc/json.h"
#include "svc/protocol.h"
#include "svc/render.h"
#include "svc/server.h"
#include "sysmodel/builder.h"

namespace ermes::svc {
namespace {

std::string demo_soc() {
  return io::write_soc(sysmodel::make_dac14_motivating_example(),
                       "dac14_motivating");
}

// ---------------------------------------------------------------------------
// JSON

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json_parse("null").ok);
  EXPECT_TRUE(json_parse("true").ok);
  EXPECT_TRUE(json_parse("false").ok);
  JsonParseResult number = json_parse("42");
  ASSERT_TRUE(number.ok);
  EXPECT_TRUE(number.value.is_integer());
  EXPECT_EQ(number.value.as_int(), 42);
  JsonParseResult negative = json_parse("-17");
  ASSERT_TRUE(negative.ok);
  EXPECT_EQ(negative.value.as_int(), -17);
  JsonParseResult fraction = json_parse("2.55e1");
  ASSERT_TRUE(fraction.ok);
  EXPECT_FALSE(fraction.value.is_integer());
  EXPECT_DOUBLE_EQ(fraction.value.as_double(), 25.5);
  // An integral double keeps its exact accessor usable.
  JsonParseResult integral = json_parse("2.5e1");
  ASSERT_TRUE(integral.ok);
  EXPECT_TRUE(integral.value.is_integer());
  EXPECT_EQ(integral.value.as_int(), 25);
}

TEST(Json, ParsesNestedDocument) {
  const JsonParseResult parsed = json_parse(
      R"({"a":[1,2,{"b":"x"}],"c":{"d":null},"e":"\u00e9\n"})");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const JsonValue* a = parsed.value.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_EQ(a->items()[0].as_int(), 1);
  const JsonValue* e = parsed.value.find("e");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->as_string(), "\xc3\xa9\n");
}

TEST(Json, RoundTripsThroughToString) {
  const std::string doc =
      R"({"a":[1,2.5,"x"],"b":{"c":true,"d":null},"e":-7})";
  const JsonParseResult once = json_parse(doc);
  ASSERT_TRUE(once.ok);
  const JsonParseResult twice = json_parse(once.value.to_string());
  ASSERT_TRUE(twice.ok);
  EXPECT_EQ(once.value.to_string(), twice.value.to_string());
}

TEST(Json, RejectsMalformedInput) {
  const char* kBad[] = {
      "",          "{",           "}",           "[1,",       "{\"a\":}",
      "tru",       "nul",         "01",          "1.",        "1e",
      "\"\\q\"",   "\"\\u12\"",   "\"\\ud800\"", "{'a':1}",   "[1]]",
      "{\"a\":1,}", "[,1]",       "\"unterminated", "+1",     "--1",
      "{\"a\":1 \"b\":2}",        "\x01",        "{\"a\":1}{", "inf",
  };
  for (const char* text : kBad) {
    const JsonParseResult parsed = json_parse(text);
    EXPECT_FALSE(parsed.ok) << "input: " << text;
    EXPECT_FALSE(parsed.error.empty()) << "input: " << text;
  }
}

TEST(Json, RejectsDuplicateKeys) {
  EXPECT_FALSE(json_parse(R"({"a":1,"a":2})").ok);
}

TEST(Json, ManyMemberObjectParsesInLinearTime) {
  // Regression: duplicate-key detection used a linear scan per member,
  // making a crafted object quadratic on the connection reader thread.
  // 50k members parse in well under a second with the hash-set path; the
  // quadratic version burned ~10^9 comparisons here.
  constexpr int kMembers = 50000;
  std::string doc = "{";
  for (int i = 0; i < kMembers; ++i) {
    if (i > 0) doc += ',';
    doc += "\"k" + std::to_string(i) + "\":" + std::to_string(i);
  }
  doc += '}';
  const JsonParseResult parsed = json_parse(doc);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.members().size(),
            static_cast<std::size_t>(kMembers));
  // A duplicate buried at the end is still caught.
  std::string dup = doc;
  dup.back() = ',';
  dup += "\"k0\":99}";
  EXPECT_FALSE(json_parse(dup).ok);
}

TEST(Json, RejectsRawControlCharactersInStrings) {
  EXPECT_FALSE(json_parse("\"a\nb\"").ok);
}

TEST(Json, DepthLimitStopsDeepNesting) {
  std::string deep;
  for (int i = 0; i < 2000; ++i) deep += '[';
  const JsonParseResult parsed = json_parse(deep);
  EXPECT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("nesting too deep"), std::string::npos);
  // Just inside the limit parses fine.
  std::string ok;
  for (int i = 0; i < kJsonMaxDepth; ++i) ok += '[';
  for (int i = 0; i < kJsonMaxDepth; ++i) ok += ']';
  EXPECT_TRUE(json_parse(ok).ok);
}

TEST(Json, Int64BoundaryValuesAreExact) {
  const JsonParseResult max = json_parse("9223372036854775807");
  ASSERT_TRUE(max.ok);
  ASSERT_TRUE(max.value.is_integer());
  EXPECT_EQ(max.value.as_int(), 9223372036854775807LL);
  // One past int64 falls back to double rather than failing.
  const JsonParseResult over = json_parse("9223372036854775808");
  ASSERT_TRUE(over.ok);
  EXPECT_FALSE(over.value.is_integer());
}

TEST(Json, SerializationIsDeterministic) {
  JsonValue object = JsonValue::object();
  object.set("z", JsonValue::integer(1));
  object.set("a", JsonValue::string("two"));
  object.set("z", JsonValue::integer(3));  // overwrite keeps the slot
  EXPECT_EQ(object.to_string(), R"({"z":3,"a":"two"})");
}

// ---------------------------------------------------------------------------
// Protocol

TEST(Protocol, ParsesMinimalRequest) {
  const RequestParse parsed = parse_request(R"({"op":"stats"})");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.request.op, Op::kStats);
  EXPECT_TRUE(parsed.request.id.is_null());
}

TEST(Protocol, ParsesFullExploreRequest) {
  const RequestParse parsed = parse_request(
      R"({"v":1,"id":"r1","op":"explore","soc":"x","tct":12,"deadline_ms":500})");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.request.op, Op::kExplore);
  EXPECT_EQ(parsed.request.soc, "x");
  EXPECT_EQ(parsed.request.tct, 12);
  EXPECT_EQ(parsed.request.deadline_ms, 500);
  EXPECT_EQ(parsed.request.id.as_string(), "r1");
}

TEST(Protocol, RejectsBadRequests) {
  const char* kBad[] = {
      "not json at all",
      "[]",                                     // not an object
      R"({"v":3,"op":"stats"})",                // unsupported version
      R"({"v":0,"op":"stats"})",                // below the minimum
      R"({"v":"1","op":"stats"})",              // version wrong type
      R"({"op":"frobnicate"})",                 // unknown op
      R"({"soc":"x"})",                         // missing op
      R"({"op":"stats","bogus":1})",            // unknown member
      R"({"op":"analyze"})",                    // missing soc
      R"({"op":"analyze","soc":""})",           // empty soc
      R"({"op":"explore","soc":"x"})",          // missing tct
      R"({"op":"explore","soc":"x","tct":0})",  // non-positive tct
      R"({"op":"explore","soc":"x","tct":1.5})",   // fractional tct
      R"({"op":"sweep","soc":"x","lo":5,"hi":2})", // hi < lo
      R"({"op":"sweep","soc":"x","lo":0,"hi":2})", // lo <= 0
      R"({"op":"stats","id":true})",            // id must be string/int/null
      R"({"op":"stats","deadline_ms":-5})",     // negative deadline
      // Sweep expanding past kMaxSweepTargets must be rejected up front
      // rather than allocating an unbounded target list.
      R"({"op":"sweep","soc":"x","lo":1,"hi":1000000000000000000,"step":1})",
  };
  for (const char* line : kBad) {
    const RequestParse parsed = parse_request(line);
    EXPECT_FALSE(parsed.ok) << "line: " << line;
    EXPECT_FALSE(parsed.error.empty()) << "line: " << line;
  }
}

TEST(Protocol, V2MembersAreRejectedOutsideProtocolV2) {
  // Session ops and v2-only members require an explicit "v":2 — a v1 client
  // can never trip over them by accident, and a v1 server rejects them with
  // a message naming the fix.
  const char* kBad[] = {
      R"({"op":"open_session","session":"s","soc":"x"})",   // no v:2
      R"({"v":1,"op":"open_session","session":"s","soc":"x"})",
      R"({"v":1,"op":"patch","session":"s","patches":[{"process":"p","latency":1}]})",
      R"({"v":1,"op":"close_session","session":"s"})",
      R"({"v":1,"op":"analyze","soc":"x","hier":true})",    // hier is v2-only
      R"({"v":1,"op":"analyze","soc":"x","session":"s"})",  // session op only
  };
  for (const char* line : kBad) {
    const RequestParse parsed = parse_request(line);
    EXPECT_FALSE(parsed.ok) << "line: " << line;
    EXPECT_FALSE(parsed.error.empty()) << "line: " << line;
  }
}

TEST(Protocol, RejectsBadV2Requests) {
  const std::string long_session(kMaxSessionIdLen + 1, 's');
  std::string too_many_patches =
      R"({"v":2,"op":"patch","session":"s","patches":[)";
  for (std::size_t i = 0; i <= kMaxPatchOps; ++i) {
    if (i > 0) too_many_patches += ',';
    too_many_patches += R"({"process":"p","latency":1})";
  }
  too_many_patches += "]}";
  const std::string kBad[] = {
      R"({"v":2,"op":"open_session","soc":"x"})",          // missing session
      R"({"v":2,"op":"open_session","session":"","soc":"x"})",  // empty
      R"({"v":2,"op":"open_session","session":")" + long_session +
          R"(","soc":"x"})",                               // session too long
      R"({"v":2,"op":"open_session","session":"s"})",      // missing soc
      R"({"v":2,"op":"close_session"})",                   // missing session
      R"({"v":2,"op":"patch","session":"s"})",             // missing patches
      R"({"v":2,"op":"patch","session":"s","patches":[]})",   // empty batch
      R"({"v":2,"op":"patch","session":"s","patches":"x"})",  // not an array
      R"({"v":2,"op":"patch","session":"s","patches":[1]})",  // not an object
      // Patch ops must be exactly one of the four two-member shapes.
      R"({"v":2,"op":"patch","session":"s","patches":[{}]})",
      R"({"v":2,"op":"patch","session":"s","patches":[{"process":"p"}]})",
      R"({"v":2,"op":"patch","session":"s","patches":[{"process":"p","latency":1,"select":0}]})",
      R"({"v":2,"op":"patch","session":"s","patches":[{"process":"p","bogus":1}]})",
      R"({"v":2,"op":"patch","session":"s","patches":[{"channel":"c","select":0}]})",
      R"({"v":2,"op":"patch","session":"s","patches":[{"process":"","latency":1}]})",
      R"({"v":2,"op":"patch","session":"s","patches":[{"process":"p","latency":-1}]})",
      R"({"v":2,"op":"patch","session":"s","patches":[{"process":"p","select":-2}]})",
      R"({"v":2,"op":"patch","session":"s","patches":[{"process":"p","latency":1.5}]})",
      R"({"v":2,"op":"patch","session":"s","patches":[{"channel":"c","retarget":""}]})",
      too_many_patches,
      // hier must be boolean and only on soc-carrying ops.
      R"({"v":2,"op":"analyze","soc":"x","hier":1})",
      R"({"v":2,"op":"stats","hier":true})",
      R"({"v":2,"op":"close_session","session":"s","hier":true})",
      // patches only belong to the patch op.
      R"({"v":2,"op":"analyze","soc":"x","patches":[{"process":"p","latency":1}]})",
  };
  for (const std::string& line : kBad) {
    const RequestParse parsed = parse_request(line);
    EXPECT_FALSE(parsed.ok) << "line: " << line;
    EXPECT_FALSE(parsed.error.empty()) << "line: " << line;
  }
}

TEST(Protocol, ParsesSessionRequests) {
  const RequestParse open = parse_request(
      R"({"v":2,"id":"o1","op":"open_session","session":"dec","soc":"x","hier":true})");
  ASSERT_TRUE(open.ok) << open.error;
  EXPECT_EQ(open.request.version, 2);
  EXPECT_EQ(open.request.op, Op::kOpenSession);
  EXPECT_EQ(open.request.session, "dec");
  EXPECT_TRUE(open.request.hier);
  EXPECT_EQ(open.request.soc, "x");

  const RequestParse patch = parse_request(
      R"({"v":2,"op":"patch","session":"dec","patches":[)"
      R"({"process":"p","select":2},)"
      R"({"process":"p","latency":7},)"
      R"({"channel":"c","latency":0},)"
      R"({"channel":"c","retarget":"q"}]})");
  ASSERT_TRUE(patch.ok) << patch.error;
  ASSERT_EQ(patch.request.patches.size(), 4u);
  EXPECT_EQ(patch.request.patches[0].kind, PatchOp::Kind::kSelect);
  EXPECT_EQ(patch.request.patches[0].process, "p");
  EXPECT_EQ(patch.request.patches[0].value, 2);
  EXPECT_EQ(patch.request.patches[1].kind, PatchOp::Kind::kProcessLatency);
  EXPECT_EQ(patch.request.patches[1].value, 7);
  EXPECT_EQ(patch.request.patches[2].kind, PatchOp::Kind::kChannelLatency);
  EXPECT_EQ(patch.request.patches[2].channel, "c");
  EXPECT_EQ(patch.request.patches[2].value, 0);
  EXPECT_EQ(patch.request.patches[3].kind, PatchOp::Kind::kRetarget);
  EXPECT_EQ(patch.request.patches[3].target, "q");

  const RequestParse close = parse_request(
      R"({"v":2,"op":"close_session","session":"dec"})");
  ASSERT_TRUE(close.ok) << close.error;
  EXPECT_EQ(close.request.op, Op::kCloseSession);

  // v2 is also a plain superset for the v1 ops.
  const RequestParse analyze =
      parse_request(R"({"v":2,"op":"analyze","soc":"x"})");
  ASSERT_TRUE(analyze.ok) << analyze.error;
  EXPECT_EQ(analyze.request.version, 2);
  EXPECT_FALSE(analyze.request.hier);
}

TEST(Protocol, ResponsesEchoTheRequestVersion) {
  const std::string v1 =
      encode_ok(JsonValue::string("a"), JsonValue::object(), 1);
  EXPECT_NE(v1.find("\"v\":1"), std::string::npos) << v1;
  const std::string v2 = encode_error(JsonValue::string("b"),
                                      ErrorCode::kBadRequest, "nope", 2);
  EXPECT_NE(v2.find("\"v\":2"), std::string::npos) << v2;
}

TEST(Protocol, EncodeRequestRoundTrips) {
  const std::string line =
      encode_request(Op::kSweep, JsonValue::integer(7), "soc text\nline2", 0,
                     10, 20, 5, 250);
  const RequestParse parsed = parse_request(line);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.request.op, Op::kSweep);
  EXPECT_EQ(parsed.request.soc, "soc text\nline2");
  EXPECT_EQ(parsed.request.lo, 10);
  EXPECT_EQ(parsed.request.hi, 20);
  EXPECT_EQ(parsed.request.step, 5);
  EXPECT_EQ(parsed.request.deadline_ms, 250);
  EXPECT_EQ(parsed.request.id.as_int(), 7);
}

TEST(Protocol, ResponsesEchoTheRequestId) {
  JsonValue result = JsonValue::object();
  result.set("x", JsonValue::integer(1));
  const ResponseView ok =
      parse_response(encode_ok(JsonValue::string("r9"), std::move(result)));
  ASSERT_TRUE(ok.ok) << ok.parse_error;
  EXPECT_TRUE(ok.success);
  EXPECT_EQ(ok.id.as_string(), "r9");
  ASSERT_NE(ok.result.find("x"), nullptr);

  const ResponseView err = parse_response(
      encode_error(JsonValue::integer(3), ErrorCode::kOverloaded, "full"));
  ASSERT_TRUE(err.ok) << err.parse_error;
  EXPECT_FALSE(err.success);
  EXPECT_EQ(err.id.as_int(), 3);
  EXPECT_EQ(err.error_code, "overloaded");
  EXPECT_EQ(err.error_message, "full");
}

// ---------------------------------------------------------------------------
// Broker

TEST(Broker, AnalyzeMatchesDirectAnalysisBitForBit) {
  Broker broker({.workers = 2});
  const std::string response = broker.handle_line_sync(
      encode_request(Op::kAnalyze, JsonValue::string("a"), demo_soc()));
  const ResponseView view = parse_response(response);
  ASSERT_TRUE(view.ok) << view.parse_error;
  ASSERT_TRUE(view.success) << view.error_message;
  const JsonValue* text = view.result.find("text");
  ASSERT_NE(text, nullptr);
  const sysmodel::SystemModel sys = sysmodel::make_dac14_motivating_example();
  EXPECT_EQ(text->as_string(),
            analyze_text(sys, analysis::analyze_system(sys)));
}

TEST(Broker, BadCorpusComesBackAsBadRequest) {
  // Every hostile .soc from the shared corpus must produce a structured
  // bad_request end-to-end — the broker keeps serving afterwards.
  Broker broker({.workers = 1});
  for (const ermes::testing::BadSoc& bad : ermes::testing::bad_soc_corpus()) {
    const ResponseView view = parse_response(broker.handle_line_sync(
        encode_request(Op::kAnalyze, JsonValue::string(bad.label), bad.text)));
    ASSERT_TRUE(view.ok) << bad.label << ": " << view.parse_error;
    EXPECT_FALSE(view.success) << bad.label;
    EXPECT_EQ(view.error_code, "bad_request") << bad.label;
  }
  // Still healthy: a good request succeeds.
  const ResponseView ok = parse_response(broker.handle_line_sync(
      encode_request(Op::kAnalyze, JsonValue::null(), demo_soc())));
  EXPECT_TRUE(ok.success) << ok.error_message;
  EXPECT_EQ(broker.stats().bad_requests,
            static_cast<std::int64_t>(ermes::testing::bad_soc_corpus().size()));
}

TEST(Broker, MalformedJsonLineIsBadRequest) {
  Broker broker({.workers = 1});
  const ResponseView view =
      parse_response(broker.handle_line_sync("this is not json"));
  ASSERT_TRUE(view.ok) << view.parse_error;
  EXPECT_FALSE(view.success);
  EXPECT_EQ(view.error_code, "bad_request");
}

TEST(Broker, OverloadRejectsInsteadOfBlocking) {
  // One worker, queue depth 2, and a slow explore occupying the worker:
  // pushing many more requests must return `overloaded` immediately for the
  // excess instead of blocking the submitting thread.
  Broker broker({.workers = 1, .queue_depth = 2, .test_iter_delay_ms = 20});
  std::atomic<int> overloaded{0};
  std::atomic<int> responded{0};
  constexpr int kRequests = 12;
  const std::string slow =
      encode_request(Op::kExplore, JsonValue::null(), demo_soc(), /*tct=*/1);
  for (int i = 0; i < kRequests; ++i) {
    broker.handle_line(slow, [&](std::string response) {
      const ResponseView view = parse_response(response);
      if (!view.success && view.error_code == "overloaded") {
        overloaded.fetch_add(1);
      }
      responded.fetch_add(1);
    });
  }
  broker.begin_drain();
  broker.drain();
  EXPECT_EQ(responded.load(), kRequests);
  EXPECT_GE(overloaded.load(), kRequests - 3);  // depth 2 + 1 executing
  EXPECT_EQ(broker.stats().rejected_overloaded, overloaded.load());
}

TEST(Broker, DeadlineExceededReleasesTheWorker) {
  // test_iter_delay_ms makes every DSE iteration cost >= 20 ms, so a 1 ms
  // deadline must cancel during the first iterations and come back within a
  // small multiple of the iteration delay — then the worker is free and a
  // normal request completes.
  Broker broker({.workers = 1, .test_iter_delay_ms = 20});
  const auto start = std::chrono::steady_clock::now();
  const ResponseView slow = parse_response(broker.handle_line_sync(
      encode_request(Op::kExplore, JsonValue::string("slow"), demo_soc(),
                     /*tct=*/1, 0, 0, 0, /*deadline_ms=*/1)));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(slow.ok) << slow.parse_error;
  EXPECT_FALSE(slow.success);
  EXPECT_EQ(slow.error_code, "deadline_exceeded");
  // Tolerance: one pending iteration poll (20 ms) plus generous scheduling
  // slack; the whole uncancelled exploration would take far longer.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000);
  EXPECT_EQ(broker.stats().deadline_exceeded, 1);

  // The daemon keeps serving: same op without a deadline succeeds.
  Broker fast({.workers = 1});
  const ResponseView after = parse_response(fast.handle_line_sync(
      encode_request(Op::kExplore, JsonValue::null(), demo_soc(), /*tct=*/12)));
  EXPECT_TRUE(after.success) << after.error_message;
}

TEST(Broker, HugeDeadlineIsClampedNotWrapped) {
  // Regression: now() + milliseconds(INT64_MAX) overflowed steady_clock's
  // nanosecond representation and wrapped to a past deadline, so a huge
  // client-supplied deadline failed instantly with deadline_exceeded.
  Broker broker({.workers = 1});
  const ResponseView view = parse_response(broker.handle_line_sync(
      encode_request(Op::kAnalyze, JsonValue::null(), demo_soc(), 0, 0, 0, 0,
                     /*deadline_ms=*/9223372036854775807LL)));
  EXPECT_TRUE(view.success) << view.error_code << ": " << view.error_message;
  EXPECT_EQ(broker.stats().deadline_exceeded, 0);
}

TEST(Broker, SweepNearInt64MaxDoesNotOverflow) {
  // Regression: the target-building loop advanced with `tct += step`, which
  // is signed-overflow UB once hi is within one step of INT64_MAX.
  constexpr std::int64_t kMax = 9223372036854775807LL;
  Broker broker({.workers = 1});
  const ResponseView view = parse_response(broker.handle_line_sync(
      encode_request(Op::kSweep, JsonValue::null(), demo_soc(), 0,
                     /*lo=*/kMax - 2, /*hi=*/kMax, /*step=*/1)));
  ASSERT_TRUE(view.success) << view.error_code << ": " << view.error_message;
  const JsonValue* targets = view.result.find("targets");
  ASSERT_NE(targets, nullptr);
  EXPECT_EQ(targets->items().size(), 3u);
  EXPECT_EQ(targets->items().back().find("tct")->as_int(), kMax);
}

TEST(Broker, DefaultDeadlineApplies) {
  Broker broker(
      {.workers = 1, .default_deadline_ms = 1, .test_iter_delay_ms = 20});
  const ResponseView view = parse_response(broker.handle_line_sync(
      encode_request(Op::kExplore, JsonValue::null(), demo_soc(), /*tct=*/1)));
  EXPECT_FALSE(view.success);
  EXPECT_EQ(view.error_code, "deadline_exceeded");
}

TEST(Broker, WarmCacheIsSharedAcrossRequests) {
  Broker broker({.workers = 2});
  const std::string request =
      encode_request(Op::kExplore, JsonValue::null(), demo_soc(), /*tct=*/12);
  ASSERT_TRUE(parse_response(broker.handle_line_sync(request)).success);
  const std::int64_t misses_after_first = broker.cache().misses();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(parse_response(broker.handle_line_sync(request)).success);
  }
  // Repeat requests replay the memo: no (or almost no) new misses.
  EXPECT_LE(broker.cache().misses(), misses_after_first + 1);
  EXPECT_GT(broker.cache().hits(), 0);
}

TEST(Broker, ShutdownRespondsThenDrains) {
  Broker broker({.workers = 1});
  const ResponseView view = parse_response(broker.handle_line_sync(
      encode_request(Op::kShutdown, JsonValue::string("bye"), "")));
  ASSERT_TRUE(view.ok) << view.parse_error;
  EXPECT_TRUE(view.success);
  EXPECT_TRUE(broker.draining());
  // Requests after the drain flip get shutting_down.
  const ResponseView rejected = parse_response(broker.handle_line_sync(
      encode_request(Op::kAnalyze, JsonValue::null(), demo_soc())));
  EXPECT_FALSE(rejected.success);
  EXPECT_EQ(rejected.error_code, "shutting_down");
  EXPECT_EQ(broker.stats().rejected_shutting_down, 1);
}

TEST(Broker, StatsReportsCounters) {
  Broker broker({.workers = 1, .queue_depth = 5});
  ASSERT_TRUE(parse_response(broker.handle_line_sync(
                  encode_request(Op::kAnalyze, JsonValue::null(), demo_soc())))
                  .success);
  const ResponseView stats = parse_response(
      broker.handle_line_sync(encode_request(Op::kStats, JsonValue::null(),
                                             "")));
  ASSERT_TRUE(stats.success) << stats.error_message;
  const JsonValue* broker_stats = stats.result.find("broker");
  ASSERT_NE(broker_stats, nullptr);
  EXPECT_EQ(broker_stats->find("queue_depth")->as_int(), 5);
  EXPECT_GE(broker_stats->find("accepted")->as_int(), 2);
  ASSERT_NE(stats.result.find("cache"), nullptr);
  ASSERT_NE(stats.result.find("metrics"), nullptr);
}

// RAII telemetry switch for the stats/metrics/tracing tests (obs is off by
// default so the rest of the suite measures the untelemetered paths).
struct TelemetryGuard {
  TelemetryGuard() { obs::set_enabled(true); }
  ~TelemetryGuard() { obs::set_enabled(false); }
};

// Builds a stats/metrics request at an explicit protocol version (the
// encode_request helper always speaks the latest).
std::string versioned_line(const std::string& op, int version) {
  JsonValue req = JsonValue::object();
  if (version > 1) req.set("v", JsonValue::integer(version));
  req.set("id", JsonValue::string("t"));
  req.set("op", JsonValue::string(op));
  return req.to_string();
}

TEST(Broker, StatsV2IsAdditiveOverV1) {
  TelemetryGuard telemetry;
  obs::Registry::global().reset();
  Broker broker({.workers = 1});
  ASSERT_TRUE(parse_response(broker.handle_line_sync(
                  encode_request(Op::kAnalyze, JsonValue::null(), demo_soc())))
                  .success);
  // The session path drives the CSR CycleMeanSolver, so the v2 `solver`
  // counters have something to show (plain analyze solves via Howard).
  JsonValue open = JsonValue::object();
  open.set("v", JsonValue::integer(2));
  open.set("op", JsonValue::string("open_session"));
  open.set("session", JsonValue::string("stats-v2"));
  open.set("soc", JsonValue::string(demo_soc()));
  ASSERT_TRUE(parse_response(broker.handle_line_sync(open.to_string()))
                  .success);

  // A v1 `stats` keeps exactly the pre-telemetry shape: none of the v2
  // members may appear (old clients that diff the body must never see them).
  const ResponseView v1 =
      parse_response(broker.handle_line_sync(versioned_line("stats", 1)));
  ASSERT_TRUE(v1.success) << v1.error_message;
  for (const char* member : {"latency", "queue_wait", "ops", "window",
                             "solver", "build"}) {
    EXPECT_EQ(v1.result.find(member), nullptr) << member;
  }
  const JsonValue* v1_cache = v1.result.find("cache");
  ASSERT_NE(v1_cache, nullptr);
  for (const char* member : {"shards", "window_hit_rate", "bytes",
                             "byte_budget", "evictions", "admission_rejects",
                             "restored"}) {
    EXPECT_EQ(v1_cache->find(member), nullptr) << member;
  }

  // The same request at v2 carries the whole telemetry plane.
  const ResponseView v2 =
      parse_response(broker.handle_line_sync(versioned_line("stats", 2)));
  ASSERT_TRUE(v2.success) << v2.error_message;
  const JsonValue* latency = v2.result.find("latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_GE(latency->find("count")->as_int(), 1);
  EXPECT_GT(latency->find("p99_ns")->as_int(), 0);
  EXPECT_GE(latency->find("p99_ns")->as_int(),
            latency->find("p50_ns")->as_int());
  const JsonValue* ops = v2.result.find("ops");
  ASSERT_NE(ops, nullptr);
  const JsonValue* analyze_ns = ops->find("analyze");
  ASSERT_NE(analyze_ns, nullptr) << "per-op instrument for analyze";
  EXPECT_GE(analyze_ns->find("count")->as_int(), 1);
  const JsonValue* window = v2.result.find("window");
  ASSERT_NE(window, nullptr);
  EXPECT_GE(window->find("requests")->as_int(), 1);
  EXPECT_GT(window->find("rps")->as_double(), 0.0);
  ASSERT_NE(v2.result.find("queue_wait"), nullptr);
  const JsonValue* solver = v2.result.find("solver");
  ASSERT_NE(solver, nullptr);
  // The session's first analysis compiled a CSR solver; `solves` counts
  // only canonical full-graph runs, so it may legitimately still be zero.
  EXPECT_GE(solver->find("compiles")->as_int(), 1);
  EXPECT_GE(solver->find("solves")->as_int(), 0);
  const JsonValue* cache = v2.result.find("cache");
  ASSERT_NE(cache, nullptr);
  const JsonValue* shards = cache->find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_GT(shards->items().size(), 0u);
  std::int64_t shard_misses = 0;
  for (const JsonValue& shard : shards->items()) {
    shard_misses += shard.find("misses")->as_int();
  }
  // Per-shard counters fold up to the cache-wide totals.
  EXPECT_EQ(shard_misses, cache->find("misses")->as_int());
  // Capacity plane (v2-only): bytes tracked, budget echoed (0 here —
  // unbounded), eviction/restore counters, and the build identity.
  ASSERT_NE(cache->find("bytes"), nullptr);
  EXPECT_GT(cache->find("bytes")->as_int(), 0);
  ASSERT_NE(cache->find("byte_budget"), nullptr);
  EXPECT_EQ(cache->find("byte_budget")->as_int(), 0);
  ASSERT_NE(cache->find("evictions"), nullptr);
  ASSERT_NE(cache->find("restored"), nullptr);
  ASSERT_NE(cache->find("admission_rejects"), nullptr);
  // One memo: no per-family split repeats the totals above.
  EXPECT_EQ(cache->find("families"), nullptr);
  const JsonValue* build = v2.result.find("build");
  ASSERT_NE(build, nullptr);
  EXPECT_NE(build->as_string().find("ermes "), std::string::npos);
}

TEST(Broker, MetricsOpServesPrometheusTextAtEveryVersion) {
  TelemetryGuard telemetry;
  obs::Registry::global().reset();
  Broker broker({.workers = 1});
  ASSERT_TRUE(parse_response(broker.handle_line_sync(
                  encode_request(Op::kAnalyze, JsonValue::null(), demo_soc())))
                  .success);

  for (int version : {1, 2}) {
    const ResponseView view = parse_response(
        broker.handle_line_sync(versioned_line("metrics", version)));
    ASSERT_TRUE(view.success) << "v" << version << ": " << view.error_message;
    const JsonValue* content_type = view.result.find("content_type");
    ASSERT_NE(content_type, nullptr);
    EXPECT_NE(content_type->as_string().find("version=0.0.4"),
              std::string::npos);
    const JsonValue* body = view.result.find("body");
    ASSERT_NE(body, nullptr);
    const std::string& text = body->as_string();
    EXPECT_NE(text.find("# TYPE ermes_svc_request_ns histogram\n"),
              std::string::npos);
    EXPECT_NE(text.find("ermes_svc_request_ns_q{quantile=\"0.99\"}"),
              std::string::npos);
    EXPECT_NE(text.find("ermes_cache_shard_hits_total{shard=\"0\"}"),
              std::string::npos);
    EXPECT_NE(text.find("\nermes_cache_bytes "), std::string::npos);
    EXPECT_NE(text.find("\nermes_cache_byte_budget "), std::string::npos);
    EXPECT_EQ(text.find("ermes_cache_family_"), std::string::npos);
    EXPECT_NE(text.find("# TYPE ermes_svc_window_rps gauge\n"),
              std::string::npos);
    // `text` mirrors `body` so --text prints a raw scrape.
    const JsonValue* text_member = view.result.find("text");
    ASSERT_NE(text_member, nullptr);
    EXPECT_EQ(text_member->as_string(), text);
  }
}

TEST(Broker, SlowRequestLogCarriesIdAndStageBreakdown) {
  std::mutex lines_mu;
  std::vector<std::string> lines;
  BrokerOptions options;
  options.workers = 1;
  options.slow_request_ms = 1;        // everything qualifies...
  options.test_iter_delay_ms = 5;     // ...because explore sleeps per iter
  options.slow_log_sink = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(lines_mu);
    lines.push_back(line);
  };
  Broker broker(options);
  const ResponseView view = parse_response(broker.handle_line_sync(
      encode_request(Op::kExplore, JsonValue::string("slow-1"), demo_soc(),
                     /*tct=*/1)));
  ASSERT_TRUE(view.success) << view.error_message;

  std::lock_guard<std::mutex> lock(lines_mu);
  ASSERT_EQ(lines.size(), 1u);
  const JsonParseResult parsed = json_parse(lines[0]);
  ASSERT_TRUE(parsed.ok) << lines[0] << ": " << parsed.error;
  const JsonValue& entry = parsed.value;
  EXPECT_TRUE(entry.find("slow_request")->as_bool());
  // The line carries the originating wire id verbatim.
  EXPECT_EQ(entry.find("id")->as_string(), "slow-1");
  EXPECT_EQ(entry.find("op")->as_string(), "explore");
  EXPECT_GE(entry.find("elapsed_ms")->as_double(), 1.0);
  const JsonValue* stages = entry.find("stages_ns");
  ASSERT_NE(stages, nullptr);
  for (const char* stage : {"queue_wait", "parse", "cache_probe", "solve",
                            "render"}) {
    ASSERT_NE(stages->find(stage), nullptr) << stage;
    EXPECT_GE(stages->find(stage)->as_int(), 0) << stage;
  }
  // The stages actually exercised by an explore carry real time.
  EXPECT_GT(stages->find("solve")->as_int(), 0);
  EXPECT_GT(stages->find("parse")->as_int(), 0);
  ASSERT_NE(entry.find("traced"), nullptr);
}

TEST(Broker, TraceSampleSuppressesSpansButNotCounters) {
  TelemetryGuard telemetry;
  obs::Registry::global().reset();
  obs::SpanRecorder::global().clear();
  BrokerOptions options;
  options.workers = 1;
  options.trace_sample = 1000;  // only request 0 of each 1000 is traced
  Broker broker(options);
  const std::string line =
      encode_request(Op::kAnalyze, JsonValue::null(), demo_soc());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(parse_response(broker.handle_line_sync(line)).success);
  }
  // Exactly one request recorded spans; all four hit the histogram.
  EXPECT_EQ(obs::Registry::global().counter("svc.requests.traced").value(), 1);
  EXPECT_GT(obs::SpanRecorder::global().size(), 0u);
  EXPECT_EQ(obs::Registry::global().quantile("svc.request_ns").count(), 4);
  obs::SpanRecorder::global().clear();
}

// ---------------------------------------------------------------------------
// Broker: incremental sessions (protocol v2)

// Builds a v2 request line with properly escaped members. `patches` is a
// JSON array literal (validated here so tests fail loudly on typos).
std::string v2_line(const std::string& op, const std::string& session,
                    const std::string& soc = "", bool hier = false,
                    const std::string& patches = "") {
  JsonValue req = JsonValue::object();
  req.set("v", JsonValue::integer(2));
  req.set("op", JsonValue::string(op));
  if (!session.empty()) req.set("session", JsonValue::string(session));
  if (!soc.empty()) req.set("soc", JsonValue::string(soc));
  if (hier) req.set("hier", JsonValue::boolean(true));
  if (!patches.empty()) {
    const JsonParseResult parsed = json_parse(patches);
    EXPECT_TRUE(parsed.ok) << patches << ": " << parsed.error;
    req.set("patches", parsed.value);
  }
  return req.to_string();
}

std::string hier_pipeline_soc() {
  return "subsystem stage\n"
         "  port in din = head\n"
         "  port out dout = tail\n"
         "  process head latency 4\n"
         "  process tail latency 6\n"
         "  channel link head -> tail latency 1 capacity 2\n"
         "end\n"
         "process src latency 2\n"
         "process snk latency 1\n"
         "instance front stage\n"
         "instance mid stage\n"
         "instance back stage\n"
         "channel feed src -> front.din latency 1 capacity unbounded\n"
         "channel fm front.dout -> mid.din latency 1 capacity unbounded\n"
         "channel mb mid.dout -> back.din latency 1 capacity unbounded\n"
         "channel out back.dout -> snk latency 1 capacity unbounded\n";
}

TEST(BrokerSession, RoundTripMatchesColdAnalysisBitForBit) {
  Broker broker({.workers = 2});
  const sysmodel::SystemModel base = sysmodel::make_dac14_motivating_example();

  const ResponseView open = parse_response(
      broker.handle_line_sync(v2_line("open_session", "s1", demo_soc())));
  ASSERT_TRUE(open.ok) << open.parse_error;
  ASSERT_TRUE(open.success) << open.error_message;
  const analysis::PerformanceReport cold = analysis::analyze_system(base);
  EXPECT_EQ(open.result.find("session")->as_string(), "s1");
  EXPECT_EQ(open.result.find("ct_num")->as_int(), cold.ct_num);
  EXPECT_EQ(open.result.find("ct_den")->as_int(), cold.ct_den);
  EXPECT_EQ(open.result.find("cycle_time")->as_double(), cold.cycle_time);
  EXPECT_GE(open.result.find("sccs")->as_int(), 1);
  EXPECT_EQ(broker.stats().sessions, 1);

  // Patch one process latency; the session's re-analysis must equal a cold
  // analysis of the same mutation.
  sysmodel::SystemModel patched = base;
  const std::string pname = patched.process_name(0);
  patched.set_latency(0, 40);
  const analysis::PerformanceReport expected =
      analysis::analyze_system(patched);
  const ResponseView pr = parse_response(broker.handle_line_sync(v2_line(
      "patch", "s1", "", false,
      R"([{"process":")" + pname + R"(","latency":40}])")));
  ASSERT_TRUE(pr.success) << pr.error_message;
  EXPECT_EQ(pr.result.find("patched")->as_int(), 1);
  EXPECT_EQ(pr.result.find("ct_num")->as_int(), expected.ct_num);
  EXPECT_EQ(pr.result.find("ct_den")->as_int(), expected.ct_den);
  EXPECT_EQ(pr.result.find("cycle_time")->as_double(), expected.cycle_time);

  const ResponseView close =
      parse_response(broker.handle_line_sync(v2_line("close_session", "s1")));
  ASSERT_TRUE(close.success) << close.error_message;
  EXPECT_TRUE(close.result.find("closed")->as_bool());
  EXPECT_EQ(broker.stats().sessions, 0);

  // The session is really gone.
  const ResponseView after = parse_response(broker.handle_line_sync(v2_line(
      "patch", "s1", "", false,
      R"([{"process":")" + pname + R"(","latency":7}])")));
  EXPECT_FALSE(after.success);
  EXPECT_EQ(after.error_code, "bad_request");
  EXPECT_NE(after.error_message.find("unknown session"), std::string::npos);
}

TEST(BrokerSession, PatchBatchesAreAtomic) {
  Broker broker({.workers = 1});
  const sysmodel::SystemModel base = sysmodel::make_dac14_motivating_example();
  const analysis::PerformanceReport cold = analysis::analyze_system(base);
  ASSERT_TRUE(parse_response(broker.handle_line_sync(
                  v2_line("open_session", "s", demo_soc())))
                  .success);

  // First op is valid, second is not: nothing may be applied.
  const std::string pname = base.process_name(0);
  const ResponseView bad = parse_response(broker.handle_line_sync(v2_line(
      "patch", "s", "", false,
      R"([{"process":")" + pname + R"(","latency":40},)" +
          R"({"process":"no_such_process","latency":1}])")));
  ASSERT_FALSE(bad.success);
  EXPECT_EQ(bad.error_code, "bad_request");
  EXPECT_NE(bad.error_message.find("patch 1"), std::string::npos)
      << bad.error_message;

  // A no-op patch re-analyzes: the report matches the *unpatched* model,
  // proving the valid first op of the failed batch was rolled... never
  // applied in the first place.
  const ResponseView still = parse_response(broker.handle_line_sync(v2_line(
      "patch", "s", "", false,
      R"([{"process":")" + pname + R"(","latency":)" +
          std::to_string(base.latency(0)) + "}]")));
  ASSERT_TRUE(still.success) << still.error_message;
  EXPECT_EQ(still.result.find("ct_num")->as_int(), cold.ct_num);
  EXPECT_EQ(still.result.find("ct_den")->as_int(), cold.ct_den);
}

TEST(BrokerSession, HierModelsOpenAndPatchThroughTheFlattenedPath) {
  Broker broker({.workers = 1});
  const io::ParseResult flat = io::parse_soc_flattened(hier_pipeline_soc());
  ASSERT_TRUE(flat.ok) << flat.error;

  // hier:true also applies to plain analyze.
  const std::string analyze_line = [&] {
    JsonValue req = JsonValue::object();
    req.set("v", JsonValue::integer(2));
    req.set("op", JsonValue::string("analyze"));
    req.set("soc", JsonValue::string(hier_pipeline_soc()));
    req.set("hier", JsonValue::boolean(true));
    return req.to_string();
  }();
  const ResponseView analyzed =
      parse_response(broker.handle_line_sync(analyze_line));
  ASSERT_TRUE(analyzed.success) << analyzed.error_message;
  const analysis::PerformanceReport cold =
      analysis::analyze_system(flat.system);
  EXPECT_EQ(analyzed.result.find("ct_num")->as_int(), cold.ct_num);

  // Without hier, the flat parser rejects the subsystem grammar.
  const ResponseView rejected = parse_response(broker.handle_line_sync(
      encode_request(Op::kAnalyze, JsonValue::null(), hier_pipeline_soc())));
  EXPECT_FALSE(rejected.success);
  EXPECT_EQ(rejected.error_code, "bad_request");

  // Hier session: patch a flattened (dotted) process by name.
  const ResponseView open = parse_response(broker.handle_line_sync(
      v2_line("open_session", "h", hier_pipeline_soc(), /*hier=*/true)));
  ASSERT_TRUE(open.success) << open.error_message;
  EXPECT_EQ(open.result.find("sccs")->as_int(), 5);
  sysmodel::SystemModel patched = flat.system;
  patched.set_latency(patched.find_process("back.head"), 20);
  const analysis::PerformanceReport expected =
      analysis::analyze_system(patched);
  const ResponseView pr = parse_response(broker.handle_line_sync(v2_line(
      "patch", "h", "", false,
      R"([{"process":"back.head","latency":20}])")));
  ASSERT_TRUE(pr.success) << pr.error_message;
  EXPECT_EQ(pr.result.find("ct_num")->as_int(), expected.ct_num);
  EXPECT_EQ(pr.result.find("ct_den")->as_int(), expected.ct_den);
  // Only the patched stage's component re-solved; the rest stayed clean.
  EXPECT_LT(pr.result.find("sccs_solved")->as_int(),
            pr.result.find("sccs")->as_int());
  EXPECT_EQ(pr.result.find("sccs_reused"), nullptr);
}

TEST(BrokerSession, TableIsBoundedAndDuplicatesRejected) {
  Broker broker({.workers = 1, .max_sessions = 2});
  ASSERT_TRUE(parse_response(broker.handle_line_sync(
                  v2_line("open_session", "a", demo_soc())))
                  .success);
  const ResponseView dup = parse_response(
      broker.handle_line_sync(v2_line("open_session", "a", demo_soc())));
  EXPECT_FALSE(dup.success);
  EXPECT_EQ(dup.error_code, "bad_request");
  EXPECT_NE(dup.error_message.find("already open"), std::string::npos);

  ASSERT_TRUE(parse_response(broker.handle_line_sync(
                  v2_line("open_session", "b", demo_soc())))
                  .success);
  const ResponseView full = parse_response(
      broker.handle_line_sync(v2_line("open_session", "c", demo_soc())));
  EXPECT_FALSE(full.success);
  EXPECT_EQ(full.error_code, "overloaded");

  // Closing a session frees a slot.
  ASSERT_TRUE(parse_response(
                  broker.handle_line_sync(v2_line("close_session", "a")))
                  .success);
  EXPECT_TRUE(parse_response(broker.handle_line_sync(
                  v2_line("open_session", "c", demo_soc())))
                  .success);
  EXPECT_EQ(broker.stats().sessions, 2);
}

TEST(BrokerSession, ResponsesEchoTheRequestVersion) {
  Broker broker({.workers = 1});
  // A version-less (v1) request gets a v1 envelope; session ops on v1 are
  // rejected — v1 clients observe exactly the pre-v2 behaviour.
  JsonValue v1 = JsonValue::object();
  v1.set("op", JsonValue::string("analyze"));
  v1.set("soc", JsonValue::string(demo_soc()));
  const std::string v1_response = broker.handle_line_sync(v1.to_string());
  EXPECT_NE(v1_response.find("\"v\":1"), std::string::npos) << v1_response;
  ASSERT_TRUE(parse_response(v1_response).success);

  const std::string v2_response =
      broker.handle_line_sync(v2_line("open_session", "s", demo_soc()));
  EXPECT_NE(v2_response.find("\"v\":2"), std::string::npos) << v2_response;
  ASSERT_TRUE(parse_response(v2_response).success);

  const std::string v1_session = broker.handle_line_sync(
      R"({"v":1,"op":"close_session","session":"s"})");
  const ResponseView view = parse_response(v1_session);
  EXPECT_FALSE(view.success);
  EXPECT_EQ(view.error_code, "bad_request");
  EXPECT_NE(view.error_message.find("v2"), std::string::npos)
      << view.error_message;
  EXPECT_NE(v1_session.find("\"v\":1"), std::string::npos) << v1_session;
}

TEST(BrokerSession, HostileHierCorpusComesBackAsBadRequest) {
  Broker broker({.workers = 1});
  for (const ermes::testing::BadSoc& bad : ermes::testing::bad_hier_corpus()) {
    const ResponseView view = parse_response(broker.handle_line_sync(
        v2_line("open_session", "x", bad.text, /*hier=*/true)));
    ASSERT_TRUE(view.ok) << bad.label << ": " << view.parse_error;
    EXPECT_FALSE(view.success) << bad.label;
    EXPECT_EQ(view.error_code, "bad_request") << bad.label;
  }
  EXPECT_EQ(broker.stats().sessions, 0);
  // Still healthy afterwards.
  EXPECT_TRUE(parse_response(broker.handle_line_sync(
                  v2_line("open_session", "x", demo_soc())))
                  .success);
}

// ---------------------------------------------------------------------------
// Server end-to-end (unix-domain socket)

std::string test_socket_path(const char* tag) {
  return ::testing::TempDir() + "/ermes_svc_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(Server, ServesConcurrentClientsOverUnixSocket) {
  ServerOptions options;
  options.socket_path = test_socket_path("conc");
  options.broker.workers = 2;
  Server server(std::move(options));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  std::thread server_thread([&server] { server.run(); });

  const std::string soc = demo_soc();
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  const sysmodel::SystemModel sys = sysmodel::make_dac14_motivating_example();
  const std::string expected_text =
      analyze_text(sys, analysis::analyze_system(sys));
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::string client_error;
      std::unique_ptr<Client> client =
          Client::connect_unix(server.socket_path(), &client_error);
      if (client == nullptr) {
        failures.fetch_add(1);
        return;
      }
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const std::string id =
            "c" + std::to_string(c) + "r" + std::to_string(r);
        const ResponseView view = client->call(
            encode_request(Op::kAnalyze, JsonValue::string(id), soc));
        if (!view.ok || !view.success ||
            view.id.as_string() != id ||
            view.result.find("text")->as_string() != expected_text) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  server.request_stop();
  server_thread.join();
  // Cross-client cache sharing: one cold miss set, everything else hits.
  EXPECT_GT(server.broker().cache().hits(), 0);
}

TEST(Server, PipelinedRequestsAllAnswered) {
  ServerOptions options;
  options.socket_path = test_socket_path("pipe");
  options.broker.workers = 2;
  Server server(std::move(options));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  std::thread server_thread([&server] { server.run(); });

  std::string client_error;
  std::unique_ptr<Client> client =
      Client::connect_unix(server.socket_path(), &client_error);
  ASSERT_NE(client, nullptr) << client_error;
  const std::string soc = demo_soc();
  constexpr int kPipelined = 16;
  for (int i = 0; i < kPipelined; ++i) {
    ASSERT_TRUE(client->send_line(
        encode_request(Op::kAnalyze, JsonValue::integer(i), soc),
        &client_error))
        << client_error;
  }
  // Responses arrive in completion order; collect ids and check coverage.
  std::set<std::int64_t> seen;
  for (int i = 0; i < kPipelined; ++i) {
    std::string line;
    ASSERT_TRUE(client->recv_line(&line, &client_error)) << client_error;
    const ResponseView view = parse_response(line);
    ASSERT_TRUE(view.ok) << view.parse_error;
    EXPECT_TRUE(view.success);
    seen.insert(view.id.as_int());
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kPipelined));

  server.request_stop();
  server_thread.join();
}

TEST(Server, MalformedLinesGetBadRequestWithoutKillingConnection) {
  ServerOptions options;
  options.socket_path = test_socket_path("bad");
  options.broker.workers = 1;
  Server server(std::move(options));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  std::thread server_thread([&server] { server.run(); });

  std::string client_error;
  std::unique_ptr<Client> client =
      Client::connect_unix(server.socket_path(), &client_error);
  ASSERT_NE(client, nullptr) << client_error;
  const ResponseView bad = client->call("{{{{ not json");
  ASSERT_TRUE(bad.ok) << bad.parse_error;
  EXPECT_FALSE(bad.success);
  EXPECT_EQ(bad.error_code, "bad_request");
  // Same connection still works.
  const ResponseView good = client->call(
      encode_request(Op::kAnalyze, JsonValue::null(), demo_soc()));
  ASSERT_TRUE(good.ok) << good.parse_error;
  EXPECT_TRUE(good.success);

  server.request_stop();
  server_thread.join();
}

TEST(Server, DisconnectedClientsAreReaped) {
  // Regression: completed connections kept their fd open and their reader
  // thread unjoined until shutdown, so a long-lived daemon leaked one fd +
  // one thread per client that ever connected (ending in EMFILE and a
  // busy-spinning accept loop). Readers now reap themselves on disconnect.
  ServerOptions options;
  options.socket_path = test_socket_path("reap");
  options.broker.workers = 1;
  Server server(std::move(options));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  std::thread server_thread([&server] { server.run(); });

  const std::string soc = demo_soc();
  constexpr int kSequentialClients = 8;
  for (int i = 0; i < kSequentialClients; ++i) {
    std::string client_error;
    std::unique_ptr<Client> client =
        Client::connect_unix(server.socket_path(), &client_error);
    ASSERT_NE(client, nullptr) << client_error;
    const ResponseView view = client->call(
        encode_request(Op::kAnalyze, JsonValue::integer(i), soc));
    ASSERT_TRUE(view.ok) << view.parse_error;
    EXPECT_TRUE(view.success);
  }  // client destructor closes the socket

  // The readers notice EOF and drop their connection records shortly after
  // each hang-up; poll with a deadline instead of assuming scheduling.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.active_connections() > 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.active_connections(), 0u);

  server.request_stop();
  server_thread.join();
}

TEST(Server, ShutdownRequestDrainsTheServer) {
  ServerOptions options;
  options.socket_path = test_socket_path("down");
  options.broker.workers = 1;
  Server server(std::move(options));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  std::thread server_thread([&server] { server.run(); });

  std::string client_error;
  std::unique_ptr<Client> client =
      Client::connect_unix(server.socket_path(), &client_error);
  ASSERT_NE(client, nullptr) << client_error;
  const ResponseView view = client->call(
      encode_request(Op::kShutdown, JsonValue::string("bye"), ""));
  ASSERT_TRUE(view.ok) << view.parse_error;
  EXPECT_TRUE(view.success);
  // run() returns once the drain completes — joining proves it.
  server_thread.join();
  EXPECT_TRUE(server.broker().draining());
}

TEST(Server, OversizedLineIsRejectedAndConnectionClosed) {
  ServerOptions options;
  options.socket_path = test_socket_path("huge");
  options.broker.workers = 1;
  options.max_line_bytes = 1024;
  Server server(std::move(options));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  std::thread server_thread([&server] { server.run(); });

  // Raw socket: 4 KiB with NO newline, so the frame bound trips while the
  // line is still incomplete — the server answers bad_request and hangs up.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, server.socket_path().c_str(),
               sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string blob(4096, 'x');
  ASSERT_EQ(::send(fd, blob.data(), blob.size(), 0),
            static_cast<ssize_t>(blob.size()));
  std::string line;
  char chunk[8192];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // server hangs up after the error response
    line.append(chunk, static_cast<std::size_t>(n));
    if (line.find('\n') != std::string::npos) break;
  }
  ::close(fd);
  ASSERT_NE(line.find('\n'), std::string::npos) << "no response before EOF";
  const ResponseView view = parse_response(line.substr(0, line.find('\n')));
  EXPECT_FALSE(view.success);
  EXPECT_EQ(view.error_code, "bad_request");

  server.request_stop();
  server_thread.join();
}

}  // namespace
}  // namespace ermes::svc
