// hepexd wire schema — envelope validation with path-pinned errors, the
// error-code taxonomy, and request/response canonical round-trips.

#include "svc/protocol.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "util/json.hpp"

namespace hepex::svc {
namespace {

std::string expect_invalid(const std::string& payload) {
  try {
    (void)parse_request(payload);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "payload accepted: " << payload;
  return "";
}

/// A timeout outside int's range is a range error: the range is checked
/// on the double, before any cast to int.
TEST(Protocol, TimeoutOutsideIntRangeIsARangeError) {
  for (const char* t : {"1e300", "3e9"}) {
    const std::string msg = expect_invalid(
        std::string(R"({"schema": "hepex-svc-request/1", "id": "a",
                        "method": "ping", "timeout_ms": )") +
        t + "}");
    EXPECT_NE(msg.find("request.timeout_ms: value "), std::string::npos)
        << msg;
    EXPECT_NE(msg.find(" outside [0, 86400000]"), std::string::npos) << msg;
  }
}

TEST(Protocol, ErrorCodeStringsRoundTrip) {
  for (ErrorCode c :
       {ErrorCode::kBadRequest, ErrorCode::kProtocol, ErrorCode::kShed,
        ErrorCode::kTimeout, ErrorCode::kShuttingDown, ErrorCode::kInternal}) {
    EXPECT_EQ(error_code_from_string(to_string(c)), c);
  }
  EXPECT_THROW(error_code_from_string("not_a_code"), std::invalid_argument);
}

TEST(Protocol, RetryTaxonomyIsExactlyTheTransientCodes) {
  EXPECT_TRUE(is_retryable(ErrorCode::kShed));
  EXPECT_TRUE(is_retryable(ErrorCode::kTimeout));
  EXPECT_TRUE(is_retryable(ErrorCode::kShuttingDown));
  EXPECT_FALSE(is_retryable(ErrorCode::kBadRequest));
  EXPECT_FALSE(is_retryable(ErrorCode::kProtocol));
  EXPECT_FALSE(is_retryable(ErrorCode::kInternal));
}

TEST(Protocol, MethodClassification) {
  for (const char* m : {"advise", "simulate", "validate"}) {
    EXPECT_TRUE(method_known(m)) << m;
    EXPECT_TRUE(method_runs_scenario(m)) << m;
  }
  for (const char* m : {"ping", "stats"}) {
    EXPECT_TRUE(method_known(m)) << m;
    EXPECT_FALSE(method_runs_scenario(m)) << m;
  }
  EXPECT_FALSE(method_known("advize"));
}

TEST(Protocol, RequestRoundTripsThroughCanonicalBytes) {
  Request req;
  req.id = "abc-1";
  req.method = "simulate";
  req.timeout_ms = 1500;
  req.scenario = util::json::parse(R"({"schema": "hepex-scenario/1"})");
  const Request back = parse_request(make_request(req));
  EXPECT_EQ(back.id, "abc-1");
  EXPECT_EQ(back.method, "simulate");
  EXPECT_EQ(back.timeout_ms, 1500);
  EXPECT_TRUE(back.scenario.is_object());
  // make_request is deterministic: same request, same bytes.
  EXPECT_EQ(make_request(req), make_request(back));
}

TEST(Protocol, PingNeedsNoScenarioOrTimeout) {
  const Request req = parse_request(
      R"({"schema": "hepex-svc-request/1", "id": "p", "method": "ping"})");
  EXPECT_EQ(req.method, "ping");
  EXPECT_EQ(req.timeout_ms, 0);
  EXPECT_TRUE(req.scenario.is_null());
}

TEST(Protocol, RejectionsPinTheFieldPath) {
  // Wrong/missing schema tag.
  EXPECT_NE(expect_invalid(R"({"id": "a", "method": "ping"})")
                .find("request.schema"),
            std::string::npos);
  EXPECT_NE(expect_invalid(
                R"({"schema": "hepex-svc-request/9", "id": "a",
                    "method": "ping"})")
                .find("request.schema"),
            std::string::npos);
  // Unknown envelope field.
  EXPECT_NE(expect_invalid(
                R"({"schema": "hepex-svc-request/1", "id": "a",
                    "method": "ping", "surprise": 1})")
                .find("unknown field \"surprise\""),
            std::string::npos);
  // id: type confusion, empty, oversized.
  EXPECT_NE(expect_invalid(
                R"({"schema": "hepex-svc-request/1", "id": 7,
                    "method": "ping"})")
                .find("request.id"),
            std::string::npos);
  EXPECT_NE(expect_invalid(
                R"({"schema": "hepex-svc-request/1", "id": "",
                    "method": "ping"})")
                .find("request.id"),
            std::string::npos);
  const std::string long_id(200, 'x');
  EXPECT_NE(expect_invalid(R"({"schema": "hepex-svc-request/1", "id": ")" +
                           long_id + R"(", "method": "ping"})")
                .find("longer than 128 bytes"),
            std::string::npos);
  // method: unknown.
  EXPECT_NE(expect_invalid(
                R"({"schema": "hepex-svc-request/1", "id": "a",
                    "method": "halt"})")
                .find("request.method"),
            std::string::npos);
  // timeout_ms: non-integer and out of range.
  EXPECT_NE(expect_invalid(
                R"({"schema": "hepex-svc-request/1", "id": "a",
                    "method": "ping", "timeout_ms": 1.5})")
                .find("request.timeout_ms"),
            std::string::npos);
  EXPECT_NE(expect_invalid(
                R"({"schema": "hepex-svc-request/1", "id": "a",
                    "method": "ping", "timeout_ms": -1})")
                .find("request.timeout_ms"),
            std::string::npos);
  // scenario: required for run methods, forbidden for ping.
  EXPECT_NE(expect_invalid(
                R"({"schema": "hepex-svc-request/1", "id": "a",
                    "method": "simulate"})")
                .find("request.scenario"),
            std::string::npos);
  EXPECT_NE(expect_invalid(
                R"({"schema": "hepex-svc-request/1", "id": "a",
                    "method": "simulate", "scenario": []})")
                .find("request.scenario"),
            std::string::npos);
  EXPECT_NE(expect_invalid(
                R"({"schema": "hepex-svc-request/1", "id": "a",
                    "method": "ping", "scenario": {}})")
                .find("request.scenario"),
            std::string::npos);
  // Not an object at all.
  EXPECT_NE(expect_invalid("[1, 2]").find("expected an object"),
            std::string::npos);
}

TEST(Protocol, ParseLimitsApplyToTheRequestDocument) {
  std::string deep = R"({"schema": "hepex-svc-request/1", "id": "a",
                         "method": "simulate", "scenario": )";
  deep += std::string(300, '[') + std::string(300, ']') + "}";
  EXPECT_THROW((void)parse_request(deep), std::invalid_argument);
}

TEST(Protocol, ResultResponseRoundTrips) {
  auto result = util::json::Value::object();
  result.set("answer", 42);
  const Response res = parse_response(make_result_response("id-9", result));
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.id, "id-9");
  ASSERT_NE(res.result.find("answer"), nullptr);
  EXPECT_DOUBLE_EQ(res.result.find("answer")->as_number(), 42.0);
}

TEST(Protocol, ErrorResponseRoundTripsWithRetryHint) {
  const Response shed = parse_response(
      make_error_response("x", ErrorCode::kShed, "queue full"));
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.code, ErrorCode::kShed);
  EXPECT_EQ(shed.message, "queue full");
  EXPECT_TRUE(shed.retry);
  const Response bad = parse_response(
      make_error_response("y", ErrorCode::kBadRequest, "nope"));
  EXPECT_FALSE(bad.retry);
}

TEST(Protocol, MalformedResponsesAreRejected) {
  EXPECT_THROW((void)parse_response("[]"), std::invalid_argument);
  EXPECT_THROW((void)parse_response(R"({"schema": "hepex-svc-response/1"})"),
               std::invalid_argument);
  EXPECT_THROW(
      (void)parse_response(
          R"({"schema": "hepex-svc-response/1", "id": "a", "ok": true})"),
      std::invalid_argument);
  EXPECT_THROW(
      (void)parse_response(
          R"({"schema": "hepex-svc-response/1", "id": "a", "ok": false,
              "error": {"code": "weird", "message": "m"}})"),
      std::invalid_argument);
}

}  // namespace
}  // namespace hepex::svc
