#include "svc/protocol.h"

#include <algorithm>

namespace ermes::svc {

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kShuttingDown: return "shutting_down";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kInternal: return "internal";
  }
  return "?";
}

const char* to_string(Op op) {
  switch (op) {
    case Op::kAnalyze: return "analyze";
    case Op::kOrder: return "order";
    case Op::kExplore: return "explore";
    case Op::kSweep: return "sweep";
    case Op::kStats: return "stats";
    case Op::kMetrics: return "metrics";
    case Op::kShutdown: return "shutdown";
    case Op::kOpenSession: return "open_session";
    case Op::kPatch: return "patch";
    case Op::kCloseSession: return "close_session";
    case Op::kCacheSave: return "cache_save";
  }
  return "?";
}

bool parse_op(std::string_view name, Op* out) {
  const struct { std::string_view name; Op op; } kOps[] = {
      {"analyze", Op::kAnalyze},
      {"order", Op::kOrder},
      {"explore", Op::kExplore},
      {"sweep", Op::kSweep},
      {"stats", Op::kStats},
      {"metrics", Op::kMetrics},
      {"shutdown", Op::kShutdown},
      {"open_session", Op::kOpenSession},
      {"patch", Op::kPatch},
      {"close_session", Op::kCloseSession},
      {"cache_save", Op::kCacheSave},
  };
  for (const auto& entry : kOps) {
    if (entry.name == name) {
      *out = entry.op;
      return true;
    }
  }
  return false;
}

bool is_session_op(Op op) {
  return op == Op::kOpenSession || op == Op::kPatch ||
         op == Op::kCloseSession;
}

namespace {

bool needs_soc(Op op) {
  return op == Op::kAnalyze || op == Op::kOrder || op == Op::kExplore ||
         op == Op::kSweep || op == Op::kOpenSession;
}

// Validates an optional non-negative integer member into *out.
bool read_i64(const JsonValue& obj, std::string_view key, std::int64_t* out,
              std::string* error) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  if (!v->is_integer() || v->as_int() < 0) {
    *error = std::string(key) + " must be a non-negative integer";
    return false;
  }
  *out = v->as_int();
  return true;
}

// One entry of a `patches` array: an object with exactly two members
// matching one of the four documented shapes. Anything looser would let a
// typoed patch ("latancy") silently apply as a different kind.
bool parse_patch_op(const JsonValue& item, PatchOp* out, std::string* error) {
  if (!item.is_object() || item.members().size() != 2) {
    *error = "each patch must be an object with exactly two members";
    return false;
  }
  const auto name_member = [&](std::string_view key,
                               std::string* dst) -> bool {
    const JsonValue* v = item.find(key);
    if (v == nullptr) return false;
    if (!v->is_string() || v->as_string().empty()) {
      *error = std::string("patch member '") + std::string(key) +
               "' must be a non-empty string";
      return false;
    }
    *dst = v->as_string();
    return true;
  };
  const auto int_member = [&](std::string_view key,
                              std::int64_t* dst) -> bool {
    const JsonValue* v = item.find(key);
    if (v == nullptr) return false;
    if (!v->is_integer() || v->as_int() < 0) {
      *error = std::string("patch member '") + std::string(key) +
               "' must be a non-negative integer";
      return false;
    }
    *dst = v->as_int();
    return true;
  };

  if (item.find("process") != nullptr) {
    if (!name_member("process", &out->process)) return false;
    if (item.find("select") != nullptr) {
      out->kind = PatchOp::Kind::kSelect;
      return int_member("select", &out->value);
    }
    if (item.find("latency") != nullptr) {
      out->kind = PatchOp::Kind::kProcessLatency;
      return int_member("latency", &out->value);
    }
    *error = "a 'process' patch needs 'select' or 'latency'";
    return false;
  }
  if (item.find("channel") != nullptr) {
    if (!name_member("channel", &out->channel)) return false;
    if (item.find("latency") != nullptr) {
      out->kind = PatchOp::Kind::kChannelLatency;
      return int_member("latency", &out->value);
    }
    if (item.find("retarget") != nullptr) {
      out->kind = PatchOp::Kind::kRetarget;
      return name_member("retarget", &out->target);
    }
    *error = "a 'channel' patch needs 'latency' or 'retarget'";
    return false;
  }
  *error = "each patch must name a 'process' or a 'channel'";
  return false;
}

}  // namespace

RequestParse parse_request(std::string_view line) {
  RequestParse out;
  const JsonParseResult doc = json_parse(line);
  if (!doc.ok) {
    out.error = "invalid JSON: " + doc.error;
    return out;
  }
  if (!doc.value.is_object()) {
    out.error = "request must be a JSON object";
    return out;
  }
  const JsonValue& obj = doc.value;

  // Recover the id first so even schema failures echo it back.
  if (const JsonValue* id = obj.find("id")) {
    if (!id->is_string() && !id->is_integer() && !id->is_null()) {
      out.error = "id must be a string or an integer";
      return out;
    }
    out.request.id = *id;
  }

  // Recover the version next: even schema failures answer in the client's
  // dialect.
  if (const JsonValue* v = obj.find("v")) {
    if (!v->is_integer() || v->as_int() < kMinProtocolVersion ||
        v->as_int() > kProtocolVersion) {
      out.error = "unsupported protocol version (this server speaks v" +
                  std::to_string(kMinProtocolVersion) + "..v" +
                  std::to_string(kProtocolVersion) + ")";
      return out;
    }
    out.request.version = static_cast<int>(v->as_int());
  }
  const bool v2 = out.request.version >= 2;

  const JsonValue* op = obj.find("op");
  if (op == nullptr || !op->is_string()) {
    out.error = "missing required member 'op'";
    return out;
  }
  if (!parse_op(op->as_string(), &out.request.op)) {
    out.error = "unknown op '" + op->as_string() + "'";
    return out;
  }
  if ((is_session_op(out.request.op) || out.request.op == Op::kCacheSave) &&
      !v2) {
    out.error = "op '" + std::string(to_string(out.request.op)) +
                "' requires protocol v2 (send \"v\":2)";
    return out;
  }

  // Strict schema: every member must be known, apply to the op, and — for
  // the v2 members — be backed by a "v":2 declaration.
  for (const auto& [key, value] : obj.members()) {
    (void)value;
    const bool known =
        key == "v" || key == "id" || key == "op" || key == "deadline_ms" ||
        (key == "soc" && needs_soc(out.request.op)) ||
        (key == "tct" && out.request.op == Op::kExplore) ||
        ((key == "lo" || key == "hi" || key == "step") &&
         out.request.op == Op::kSweep) ||
        (v2 && key == "hier" && needs_soc(out.request.op)) ||
        (v2 && key == "session" && is_session_op(out.request.op)) ||
        (v2 && key == "patches" && out.request.op == Op::kPatch);
    if (!known) {
      out.error = "unexpected member '" + key + "' for op '" +
                  std::string(to_string(out.request.op)) + "'";
      return out;
    }
  }

  if (needs_soc(out.request.op)) {
    const JsonValue* soc = obj.find("soc");
    if (soc == nullptr || !soc->is_string() || soc->as_string().empty()) {
      out.error = "op '" + std::string(to_string(out.request.op)) +
                  "' requires a non-empty string member 'soc'";
      return out;
    }
    out.request.soc = soc->as_string();
  }

  if (!read_i64(obj, "deadline_ms", &out.request.deadline_ms, &out.error)) {
    return out;
  }

  if (out.request.op == Op::kExplore) {
    const JsonValue* tct = obj.find("tct");
    if (tct == nullptr || !tct->is_integer() || tct->as_int() <= 0) {
      out.error = "op 'explore' requires a positive integer member 'tct'";
      return out;
    }
    out.request.tct = tct->as_int();
  }

  if (out.request.op == Op::kSweep) {
    if (!read_i64(obj, "lo", &out.request.lo, &out.error)) return out;
    if (!read_i64(obj, "hi", &out.request.hi, &out.error)) return out;
    if (!read_i64(obj, "step", &out.request.step, &out.error)) return out;
    std::string error;
    if (sweep_targets(out.request.lo, out.request.hi, out.request.step, &error)
            .empty()) {
      out.error = "op 'sweep' " + error;
      return out;
    }
  }

  if (const JsonValue* hier = obj.find("hier")) {
    if (!hier->is_bool()) {
      out.error = "hier must be a boolean";
      return out;
    }
    out.request.hier = hier->as_bool();
  }

  if (is_session_op(out.request.op)) {
    const JsonValue* session = obj.find("session");
    if (session == nullptr || !session->is_string() ||
        session->as_string().empty()) {
      out.error = "op '" + std::string(to_string(out.request.op)) +
                  "' requires a non-empty string member 'session'";
      return out;
    }
    if (session->as_string().size() > kMaxSessionIdLen) {
      out.error = "session id longer than " +
                  std::to_string(kMaxSessionIdLen) + " bytes";
      return out;
    }
    out.request.session = session->as_string();
  }

  if (out.request.op == Op::kPatch) {
    const JsonValue* patches = obj.find("patches");
    if (patches == nullptr || !patches->is_array() ||
        patches->items().empty()) {
      out.error = "op 'patch' requires a non-empty array member 'patches'";
      return out;
    }
    if (patches->items().size() > kMaxPatchOps) {
      out.error = "more than " + std::to_string(kMaxPatchOps) +
                  " patches in one request";
      return out;
    }
    out.request.patches.reserve(patches->items().size());
    for (const JsonValue& item : patches->items()) {
      PatchOp patch;
      if (!parse_patch_op(item, &patch, &out.error)) return out;
      out.request.patches.push_back(std::move(patch));
    }
  }

  out.ok = true;
  return out;
}

std::vector<std::int64_t> sweep_targets(std::int64_t lo, std::int64_t hi,
                                        std::int64_t step, std::string* error) {
  if (lo <= 0 || hi < lo) {
    *error = "needs 0 < lo <= hi";
    return {};
  }
  // lo > 0 and hi >= lo make the span arithmetic overflow-free.
  if (step <= 0) step = std::max<std::int64_t>(1, (hi - lo) / 7);
  if ((hi - lo) / step + 1 > kMaxSweepTargets) {
    *error = "expands to more than " + std::to_string(kMaxSweepTargets) +
             " targets; raise 'step' or narrow [lo, hi]";
    return {};
  }
  std::vector<std::int64_t> targets;
  // Comparing against `hi - step` stops the walk before `tct += step` could
  // overflow when hi is near INT64_MAX.
  for (std::int64_t tct = lo;; tct += step) {
    targets.push_back(tct);
    if (tct > hi - step) break;
  }
  return targets;
}

namespace {

JsonValue envelope(const JsonValue& id, int version) {
  JsonValue response = JsonValue::object();
  response.set("v", JsonValue::integer(version));
  response.set("id", id);
  return response;
}

}  // namespace

std::string encode_ok(const JsonValue& id, JsonValue result, int version) {
  JsonValue response = envelope(id, version);
  response.set("ok", JsonValue::boolean(true));
  response.set("result", std::move(result));
  return response.to_string();
}

std::string encode_error(const JsonValue& id, ErrorCode code,
                         std::string_view message, int version) {
  JsonValue error = JsonValue::object();
  error.set("code", JsonValue::string(to_string(code)));
  error.set("message", JsonValue::string(message));
  JsonValue response = envelope(id, version);
  response.set("ok", JsonValue::boolean(false));
  response.set("error", std::move(error));
  return response.to_string();
}

std::string encode_request(Op op, const JsonValue& id, std::string_view soc,
                           std::int64_t tct, std::int64_t lo, std::int64_t hi,
                           std::int64_t step, std::int64_t deadline_ms,
                           bool hier) {
  JsonValue request = JsonValue::object();
  request.set("v", JsonValue::integer(kProtocolVersion));
  if (!id.is_null()) request.set("id", id);
  request.set("op", JsonValue::string(to_string(op)));
  if (!soc.empty()) request.set("soc", JsonValue::string(soc));
  if (tct > 0) request.set("tct", JsonValue::integer(tct));
  if (lo > 0) request.set("lo", JsonValue::integer(lo));
  if (hi > 0) request.set("hi", JsonValue::integer(hi));
  if (step > 0) request.set("step", JsonValue::integer(step));
  if (deadline_ms > 0) {
    request.set("deadline_ms", JsonValue::integer(deadline_ms));
  }
  if (hier) request.set("hier", JsonValue::boolean(true));
  return request.to_string();
}

ResponseView parse_response(std::string_view line) {
  ResponseView view;
  const JsonParseResult doc = json_parse(line);
  if (!doc.ok) {
    view.parse_error = doc.error;
    return view;
  }
  if (!doc.value.is_object()) {
    view.parse_error = "response must be a JSON object";
    return view;
  }
  if (const JsonValue* id = doc.value.find("id")) view.id = *id;
  const JsonValue* ok = doc.value.find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    view.parse_error = "response missing 'ok'";
    return view;
  }
  view.ok = true;
  view.success = ok->as_bool();
  if (view.success) {
    if (const JsonValue* result = doc.value.find("result")) {
      view.result = *result;
    }
  } else if (const JsonValue* error = doc.value.find("error")) {
    if (const JsonValue* code = error->find("code")) {
      if (code->is_string()) view.error_code = code->as_string();
    }
    if (const JsonValue* message = error->find("message")) {
      if (message->is_string()) view.error_message = message->as_string();
    }
  }
  return view;
}

}  // namespace ermes::svc
