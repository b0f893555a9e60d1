#include "svc/protocol.hpp"

#include <cmath>
#include <stdexcept>

#include "util/error.hpp"

namespace hepex::svc {

namespace {

using util::json::Kind;
using util::json::Value;

[[noreturn]] void fail_at(const std::string& path, const std::string& why) {
  fail_require("request." + path + ": " + why);
}

const Value& require_member(const Value& obj, const std::string& key,
                            Kind kind) {
  const Value* v = obj.find(key);
  if (v == nullptr) fail_at(key, "missing required field");
  if (v->kind() != kind) {
    fail_at(key, std::string("expected ") + util::json::kind_name(kind) +
                     ", got " + util::json::kind_name(v->kind()));
  }
  return *v;
}

void reject_unknown_keys(const Value& obj,
                         std::initializer_list<const char*> known,
                         const char* what) {
  for (const auto& [key, value] : obj.members()) {
    (void)value;
    bool ok = false;
    for (const char* k : known) {
      if (key == k) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      fail_require(std::string(what) + ": unknown field \"" + key + "\"");
    }
  }
}

/// The range is checked on the double: casting one outside int's range
/// is undefined behaviour.
int require_int(const Value& v, const std::string& path, int lo, int hi) {
  const double d = v.as_number();
  if (std::floor(d) != d) fail_at(path, "expected an integer");
  if (d < lo || d > hi) {
    fail_at(path, "value " + util::json::number_to_string(d) + " outside [" +
                      std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return static_cast<int>(d);
}

}  // namespace

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kProtocol: return "protocol";
    case ErrorCode::kShed: return "shed";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kShuttingDown: return "shutting_down";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

ErrorCode error_code_from_string(const std::string& s) {
  if (s == "bad_request") return ErrorCode::kBadRequest;
  if (s == "protocol") return ErrorCode::kProtocol;
  if (s == "shed") return ErrorCode::kShed;
  if (s == "timeout") return ErrorCode::kTimeout;
  if (s == "shutting_down") return ErrorCode::kShuttingDown;
  if (s == "internal") return ErrorCode::kInternal;
  fail_require("unknown service error code \"" + s + "\"");
}

bool is_retryable(ErrorCode code) {
  switch (code) {
    case ErrorCode::kShed:
    case ErrorCode::kTimeout:
    case ErrorCode::kShuttingDown:
      return true;
    case ErrorCode::kBadRequest:
    case ErrorCode::kProtocol:
    case ErrorCode::kInternal:
      return false;
  }
  return false;
}

bool method_runs_scenario(const std::string& method) {
  return method == "advise" || method == "simulate" || method == "validate";
}

bool method_known(const std::string& method) {
  return method == "ping" || method == "stats" ||
         method_runs_scenario(method);
}

Request parse_request(const std::string& payload,
                      const util::json::ParseLimits& limits) {
  const Value doc = util::json::parse(payload, "request", limits);
  if (!doc.is_object()) {
    fail_require("request: expected an object, got " +
                 std::string(util::json::kind_name(doc.kind())));
  }
  reject_unknown_keys(doc, {"schema", "id", "method", "timeout_ms",
                            "scenario"},
                      "request");

  const std::string& schema =
      require_member(doc, "schema", Kind::kString).as_string();
  if (schema != kRequestSchema) {
    fail_at("schema", "expected \"" + std::string(kRequestSchema) +
                          "\", got \"" + schema + "\"");
  }

  Request req;
  req.id = require_member(doc, "id", Kind::kString).as_string();
  if (req.id.empty()) fail_at("id", "must not be empty");
  if (req.id.size() > 128) {
    fail_at("id", "longer than 128 bytes (" + std::to_string(req.id.size()) +
                      ")");
  }
  req.method = require_member(doc, "method", Kind::kString).as_string();
  if (!method_known(req.method)) {
    fail_at("method",
            "unknown method \"" + req.method +
                "\" (known: ping, stats, advise, simulate, validate)");
  }

  if (const Value* t = doc.find("timeout_ms"); t != nullptr) {
    if (!t->is_number()) {
      fail_at("timeout_ms", std::string("expected number, got ") +
                                util::json::kind_name(t->kind()));
    }
    // 0 = server default; the server caps the effective value anyway.
    req.timeout_ms = require_int(*t, "timeout_ms", 0, 86'400'000);
  }

  const Value* scenario = doc.find("scenario");
  if (method_runs_scenario(req.method)) {
    if (scenario == nullptr) {
      fail_at("scenario",
              "required for method \"" + req.method + "\"");
    }
    if (!scenario->is_object()) {
      fail_at("scenario", std::string("expected object, got ") +
                              util::json::kind_name(scenario->kind()));
    }
    req.scenario = *scenario;
  } else if (scenario != nullptr && !scenario->is_null()) {
    fail_at("scenario",
            "must be absent or null for method \"" + req.method + "\"");
  }
  return req;
}

std::string make_request(const Request& req) {
  Value doc = Value::object();
  doc.set("schema", kRequestSchema);
  doc.set("id", req.id);
  doc.set("method", req.method);
  if (req.timeout_ms > 0) doc.set("timeout_ms", req.timeout_ms);
  if (!req.scenario.is_null()) doc.set("scenario", req.scenario);
  return util::json::dump_compact(doc);
}

std::string make_result_response(const std::string& id,
                                 util::json::Value result) {
  Value doc = Value::object();
  doc.set("schema", kResponseSchema);
  doc.set("id", id);
  doc.set("ok", true);
  doc.set("result", std::move(result));
  return util::json::dump_compact(doc);
}

std::string make_error_response(const std::string& id, ErrorCode code,
                                const std::string& message) {
  Value err = Value::object();
  err.set("code", to_string(code));
  err.set("message", message);
  err.set("retry", is_retryable(code));
  Value doc = Value::object();
  doc.set("schema", kResponseSchema);
  doc.set("id", id);
  doc.set("ok", false);
  doc.set("error", std::move(err));
  return util::json::dump_compact(doc);
}

Response parse_response(const std::string& payload,
                        const util::json::ParseLimits& limits) {
  const Value doc = util::json::parse(payload, "response", limits);
  if (!doc.is_object()) {
    fail_require("response: expected an object, got " +
                 std::string(util::json::kind_name(doc.kind())));
  }
  const Value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kResponseSchema) {
    fail_require(std::string("response.schema: expected \"") +
                 kResponseSchema + "\"");
  }
  Response res;
  const Value* id = doc.find("id");
  if (id == nullptr || !id->is_string()) {
    fail_require("response.id: missing or not a string");
  }
  res.id = id->as_string();
  const Value* ok = doc.find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    fail_require("response.ok: missing or not a bool");
  }
  res.ok = ok->as_bool();
  if (res.ok) {
    const Value* result = doc.find("result");
    if (result == nullptr) fail_require("response.result: missing");
    res.result = *result;
  } else {
    const Value* err = doc.find("error");
    if (err == nullptr || !err->is_object()) {
      fail_require("response.error: missing or not an object");
    }
    const Value* code = err->find("code");
    if (code == nullptr || !code->is_string()) {
      fail_require("response.error.code: missing or not a string");
    }
    res.code = error_code_from_string(code->as_string());
    const Value* msg = err->find("message");
    if (msg == nullptr || !msg->is_string()) {
      fail_require("response.error.message: missing or not a string");
    }
    res.message = msg->as_string();
    const Value* retry = err->find("retry");
    res.retry = retry != nullptr && retry->is_bool() ? retry->as_bool()
                                                     : is_retryable(res.code);
  }
  return res;
}

}  // namespace hepex::svc
