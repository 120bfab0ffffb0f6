#pragma once
// Versioned NDJSON request/response protocol of the analysis service.
//
// One request per line, one response line per request, both JSON objects:
//
//   -> {"v":1,"id":"r1","op":"analyze","soc":"system s\nprocess a ..."}
//   <- {"v":1,"id":"r1","ok":true,"result":{...}}
//   <- {"v":1,"id":"r2","ok":false,
//       "error":{"code":"bad_request","message":"..."}}
//
// Request schema (strict — unknown members are rejected so that a future
// field can never be silently ignored by an older server):
//
//   v            optional int, 1 or 2 (absent = 1); responses echo it back
//   id           optional string or integer, echoed verbatim (null if absent)
//   op           required: analyze | order | explore | sweep | stats |
//                metrics | shutdown | open_session | patch | close_session |
//                cache_save (v2)
//   soc          model text (required for analyze/order/explore/sweep/
//                open_session)
//   tct          required positive integer for explore
//   lo, hi, step sweep targets (step optional); 0 < lo <= hi
//   deadline_ms  optional deadline in milliseconds (0/absent = server default)
//
// Protocol v2 is a strict superset of v1: every v1 line parses and behaves
// identically, and the members below are only accepted when the request
// says "v":2 (a v1 request using them is rejected exactly like any other
// unknown member, which is what keeps v1 clients honest):
//
//   hier         optional bool on ops taking `soc`: parse it through the
//                hierarchical grammar (io/soc_hier.h) and flatten
//   session      required string for the session ops (<= kMaxSessionIdLen)
//   patches      required array for op `patch` (<= kMaxPatchOps entries);
//                each entry is an object with exactly two members, one of
//                  {"process": p, "select": i}    implementation swap
//                  {"process": p, "latency": n}   computation latency
//                  {"channel": c, "latency": n}   transfer latency
//                  {"channel": c, "retarget": q}  new consumer process
//
// The session ops hold an incremental analysis session
// (comp::IncrementalAnalyzer) open across requests: `open_session` parses a
// model and runs the first full analysis, `patch` applies a batch of
// component patches atomically (all validated before any is applied) and
// re-analyzes only the dirtied components, `close_session` releases it.
//
// Two observability ops take no extra members: `stats` returns the broker/
// cache/metrics snapshot (v2 requests additionally get per-op latency
// percentiles, sliding-window rates, solver counters, and per-shard cache
// stats — the v1 response shape never changes); `metrics` returns the same
// registry rendered as Prometheus text exposition in result.body (a new op
// is additive, so it is accepted at every protocol version).
//
// Error codes, in the order a request can die: `bad_request` (framing,
// schema, or .soc parse failure), `overloaded` (admission queue full),
// `shutting_down` (daemon draining), `deadline_exceeded` (cooperative
// cancellation fired), `internal` (handler threw). Responses are emitted by
// the broker; this header is pure data — parsing, validation, and encoding
// with no sockets and no threads, so the whole protocol is unit-testable
// in-process.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "svc/json.h"

namespace ermes::svc {

inline constexpr int kProtocolVersion = 2;
inline constexpr int kMinProtocolVersion = 1;

/// Upper bounds on v2 session requests, rejected as bad_request beyond.
inline constexpr std::size_t kMaxPatchOps = 256;
inline constexpr std::size_t kMaxSessionIdLen = 128;

/// Upper bound on the number of targets one `sweep` request may expand to;
/// a wider [lo, hi]/step combination is rejected as bad_request instead of
/// allocating (and exploring) an unbounded target list.
inline constexpr std::int64_t kMaxSweepTargets = 1000;

enum class ErrorCode {
  kBadRequest,
  kOverloaded,
  kShuttingDown,
  kDeadlineExceeded,
  kInternal,
};

const char* to_string(ErrorCode code);

enum class Op {
  kAnalyze,
  kOrder,
  kExplore,
  kSweep,
  kStats,
  kMetrics,
  kShutdown,
  // v2 session ops.
  kOpenSession,
  kPatch,
  kCloseSession,
  // v2: persist the warm eval cache to the daemon's --cache-file now
  // (in addition to the automatic save on clean shutdown).
  kCacheSave,
};

const char* to_string(Op op);
bool parse_op(std::string_view name, Op* out);

/// True for the ops that carry an incremental-session id (all v2-only).
bool is_session_op(Op op);

/// One component patch of a v2 `patch` request (names, not ids — the
/// session's model resolves them).
struct PatchOp {
  enum class Kind {
    kSelect,          // {"process": p, "select": i}
    kProcessLatency,  // {"process": p, "latency": n}
    kChannelLatency,  // {"channel": c, "latency": n}
    kRetarget,        // {"channel": c, "retarget": q}
  };
  Kind kind = Kind::kSelect;
  std::string process;  // kSelect / kProcessLatency
  std::string channel;  // kChannelLatency / kRetarget
  std::int64_t value = 0;   // select index or latency
  std::string target;       // kRetarget: new consumer process
};

struct Request {
  JsonValue id;  // string/integer echoed into the response; null when absent
  int version = 1;  // echoed into the response envelope
  Op op = Op::kStats;
  std::string soc;
  std::int64_t tct = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::int64_t step = 0;
  std::int64_t deadline_ms = 0;  // 0 = use the broker default
  // v2 members.
  bool hier = false;     // parse `soc` through the hierarchical grammar
  std::string session;   // session ops
  std::vector<PatchOp> patches;  // op `patch`
};

struct RequestParse {
  bool ok = false;
  std::string error;  // bad_request message when !ok
  Request request;    // id and version are best-effort recovered on failure
};

/// Parses and schema-validates one request line. Never throws.
RequestParse parse_request(std::string_view line);

/// Expands a sweep range into its targets: lo, lo + step, ... up to hi. A
/// non-positive step defaults to ~8 targets over the span. Returns an empty
/// vector and sets *error when the range is invalid (not 0 < lo <= hi) or
/// expands to more than kMaxSweepTargets targets; the walk never overflows,
/// even when hi is near INT64_MAX. Shared by the `sweep` op and the CLI.
std::vector<std::int64_t> sweep_targets(std::int64_t lo, std::int64_t hi,
                                        std::int64_t step, std::string* error);

/// Serializes a success response line (no trailing newline). `version` is
/// the request's (echoed) protocol version.
std::string encode_ok(const JsonValue& id, JsonValue result,
                      int version = kProtocolVersion);

/// Serializes an error response line (no trailing newline).
std::string encode_error(const JsonValue& id, ErrorCode code,
                         std::string_view message,
                         int version = kProtocolVersion);

/// Convenience for clients: builds a request line from parts (no newline).
/// Fields with zero values are omitted, matching the schema's optionality;
/// `hier` sets the v2 `hier` member.
std::string encode_request(Op op, const JsonValue& id, std::string_view soc,
                           std::int64_t tct = 0, std::int64_t lo = 0,
                           std::int64_t hi = 0, std::int64_t step = 0,
                           std::int64_t deadline_ms = 0, bool hier = false);

/// Parsed view of a response line (for clients and tests).
struct ResponseView {
  bool ok = false;          // transport-level parse succeeded
  std::string parse_error;  // when !ok
  JsonValue id;
  bool success = false;     // "ok" member
  std::string error_code;   // when !success
  std::string error_message;
  JsonValue result;         // when success
};

ResponseView parse_response(std::string_view line);

}  // namespace ermes::svc
