// hepexd server core, end-to-end over real sockets: the acceptance
// contract is that every request ends in exactly one structured outcome
// — result, bad_request, protocol error, shed, timeout or shutting_down
// — and graceful stop drains in-flight work. These tests run the whole
// stack (framing, the admission gate, request deadlines, advisor cache)
// in-process on an ephemeral TCP port or a Unix socket.

#include "svc/server.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cfg/scenario.hpp"
#include "core/run.hpp"
#include "svc/client.hpp"
#include "util/json.hpp"

namespace hepex::svc {
namespace {

using Clock = std::chrono::steady_clock;

int64_t ms_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               t0)
      .count();
}

/// Fast scenario (~ms): one simulate of SP class S.
util::json::Value fast_scenario() {
  return util::json::parse(R"({
    "schema": "hepex-scenario/1",
    "platform": {"preset": "xeon"},
    "workload": {"program": "SP", "class": "S"},
    "config": {"n": 2, "c": 2, "f": "1800000000Hz"}
  })");
}

/// Slow scenario (hundreds of ms): `validate` simulates a physical-node
/// sweep at class A — long enough for a deadline to demonstrably cancel
/// it, with cooperative checkpoints throughout. The sweep stays
/// within nodes_available because validation runs "physical" baselines.
util::json::Value slow_scenario() {
  return util::json::parse(R"({
    "schema": "hepex-scenario/1",
    "platform": {"preset": "xeon"},
    "workload": {"program": "SP", "class": "A"},
    "sweep": {"nodes": [1, 2, 4, 8]}
  })");
}

Request make(const std::string& id, const std::string& method,
             util::json::Value scenario, int timeout_ms = 0) {
  Request req;
  req.id = id;
  req.method = method;
  req.timeout_ms = timeout_ms;
  req.scenario = std::move(scenario);
  return req;
}

ServerConfig tcp_config() {
  ServerConfig c;
  c.tcp_port = 0;  // ephemeral
  return c;
}

TEST(Server, PingStatsAndSimulateOverTcp) {
  Server server(tcp_config());
  server.start();
  Client client = Client::connect_tcp_socket(server.port());

  const Response pong = client.call(make("p1", "ping", {}));
  ASSERT_TRUE(pong.ok);
  EXPECT_EQ(pong.id, "p1");
  EXPECT_TRUE(pong.result.find("pong")->as_bool());

  const Response sim = client.call(make("s1", "simulate", fast_scenario()));
  ASSERT_TRUE(sim.ok) << sim.message;
  EXPECT_EQ(sim.result.find("schema")->as_string(), "hepex-run-report/1");
  ASSERT_NE(sim.result.find("results"), nullptr);

  const Response stats = client.call(make("st1", "stats", {}));
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.result.find("schema")->as_string(), "hepex-svc-stats/1");
  const util::json::Value* counters = stats.result.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->find("requests_ok")->as_number(), 2.0);

  server.stop();
  EXPECT_EQ(server.stats().requests_ok.load(), 3u);
  EXPECT_EQ(server.stats().internal_errors.load(), 0u);
}

TEST(Server, UnixSocketTransport) {
  char path[64];
  std::snprintf(path, sizeof(path), "/tmp/hepexd_test_%d.sock",
                static_cast<int>(::getpid()));
  ServerConfig cfg;
  cfg.unix_path = path;
  Server server(std::move(cfg));
  server.start();
  Client client = Client::connect_unix_socket(path);
  const Response pong = client.call(make("u1", "ping", {}));
  EXPECT_TRUE(pong.ok);
  server.stop();
  // stop() removes the socket file.
  EXPECT_THROW((void)Client::connect_unix_socket(path), std::runtime_error);
}

TEST(Server, IdenticalRequestsGetByteIdenticalResponses) {
  Server server(tcp_config());
  server.start();
  Client client = Client::connect_tcp_socket(server.port());
  const Response a = client.call(make("same", "simulate", fast_scenario()));
  const Response b = client.call(make("same", "simulate", fast_scenario()));
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(util::json::dump_compact(a.result),
            util::json::dump_compact(b.result));
  server.stop();
}

TEST(Server, AdviseUsesTheAdvisorCacheAcrossRequests) {
  Server server(tcp_config());
  server.start();
  Client client = Client::connect_tcp_socket(server.port());
  // Class A: advise characterizes against the default class-W baseline,
  // so the target class must sit strictly above it.
  const auto advise_scenario = [] {
    return util::json::parse(R"({
      "schema": "hepex-scenario/1",
      "platform": {"preset": "xeon"},
      "workload": {"program": "SP", "class": "A"}
    })");
  };
  const Response first = client.call(make("a1", "advise", advise_scenario()));
  ASSERT_TRUE(first.ok) << first.message;
  ASSERT_NE(first.result.find("summary"), nullptr);
  EXPECT_GE(
      first.result.find("summary")->find("frontier_points")->as_number(),
      1.0);
  (void)client.call(make("a2", "advise", advise_scenario()));
  const Response stats = client.call(make("st", "stats", {}));
  const util::json::Value* advisors = stats.result.find("advisors");
  ASSERT_NE(advisors, nullptr);
  EXPECT_EQ(advisors->find("entries")->as_number(), 1.0);
  EXPECT_EQ(advisors->find("hits")->as_number(), 1.0);
  EXPECT_EQ(advisors->find("misses")->as_number(), 1.0);
  server.stop();
}

TEST(Server, GridAdviseAnswersOneRowPerGridPoint) {
  Server server(tcp_config());
  server.start();
  Client client = Client::connect_tcp_socket(server.port());
  const Response r = client.call(make("g1", "advise", util::json::parse(R"({
    "schema": "hepex-scenario/1",
    "platform": {"preset": "xeon"},
    "workload": {"class": "A",
                 "grid": {"ai": [30, 120], "bpi": [0.6], "mi": [100],
                          "seed": 7}}
  })")));
  ASSERT_TRUE(r.ok) << r.message;
  const util::json::Value* summary = r.result.find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->find("frontier"), nullptr);
  ASSERT_NE(summary->find("grid_points"), nullptr);
  EXPECT_EQ(summary->find("grid_points")->as_number(), 2.0);
  const util::json::Value* grid = summary->find("grid");
  ASSERT_NE(grid, nullptr);
  ASSERT_EQ(grid->as_array().size(), 2u);
  EXPECT_NE(grid->as_array()[0].find("signature")->as_string(),
            grid->as_array()[1].find("signature")->as_string());
  server.stop();
}

/// `examples/scenarios/xeon.json` with `workload.class` and `sweep`
/// replaced (a null argument keeps the shipped value).
util::json::Value xeon_scenario(const char* cls, const char* sweep) {
  std::ifstream in(std::string(HEPEX_SOURCE_DIR) +
                   "/examples/scenarios/xeon.json");
  std::ostringstream text;
  text << in.rdbuf();
  util::json::Value doc = util::json::parse(text.str());
  if (cls != nullptr) {
    util::json::Value workload = *doc.find("workload");
    workload.set("class", cls);
    doc.set("workload", std::move(workload));
  }
  if (sweep != nullptr) doc.set("sweep", util::json::parse(sweep));
  return doc;
}

TEST(Server, RunMethodsAnswerWhatCoreRunBuilds) {
  // Each run-method's result must be the report core::run builds under
  // the daemon's overrides (no obs outputs, jobs 0, no host section), so
  // no hand-built path can drift from the CLI's. simulate runs xeon.json
  // at class S; advise and validate keep its class A (class S has no
  // smaller class to characterize on), and validate sweeps physical node
  // counts only.
  struct Case {
    const char* method;
    core::Method run_as;
    util::json::Value scenario;
  };
  const Case cases[] = {
      {"advise", core::Method::kAdvise, xeon_scenario(nullptr, nullptr)},
      {"simulate", core::Method::kSimulate, xeon_scenario("S", nullptr)},
      {"validate", core::Method::kValidate,
       xeon_scenario(nullptr, R"({"nodes": [1, 2], "cores": [8]})")},
  };
  Server server(tcp_config());
  server.start();
  Client client = Client::connect_tcp_socket(server.port());
  for (const Case& c : cases) {
    const Response r = client.call(make(c.method, c.method, c.scenario));
    ASSERT_TRUE(r.ok) << c.method << ": " << r.message;
    cfg::Scenario s = cfg::load_scenario(c.scenario, "request.scenario");
    s.obs = cfg::ObsSettings{};
    s.jobs = 0;
    EXPECT_EQ(util::json::dump_compact(r.result),
              util::json::dump_compact(
                  core::run(s, c.run_as).report.to_json_value()))
        << c.method;
  }
  server.stop();
}

TEST(Server, ClassSAdviceIsABadRequestNamingTheClass) {
  // Advice and validation characterize on a smaller input class; class S
  // has none, so the daemon refuses both, naming the scenario field.
  Server server(tcp_config());
  server.start();
  Client client = Client::connect_tcp_socket(server.port());
  for (const char* method : {"advise", "validate"}) {
    const Response r =
        client.call(make(method, method, xeon_scenario("S", nullptr)));
    EXPECT_FALSE(r.ok) << method;
    EXPECT_EQ(r.code, ErrorCode::kBadRequest) << method;
    EXPECT_NE(r.message.find("workload.class"), std::string::npos)
        << method << ": " << r.message;
  }
  server.stop();
}

TEST(Server, BadRequestsAreAnsweredAndTheConnectionSurvives) {
  Server server(tcp_config());
  server.start();
  Client client = Client::connect_tcp_socket(server.port());

  // Unparseable JSON.
  ASSERT_EQ(client.send_bytes(encode_frame("{not json"), 1000), IoStatus::kOk);
  FrameResult r = client.read_reply(1 << 20, 5000);
  ASSERT_EQ(r.status, IoStatus::kOk);
  Response res = parse_response(r.payload);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.code, ErrorCode::kBadRequest);
  EXPECT_FALSE(res.retry);

  // Valid JSON, invalid envelope.
  ASSERT_EQ(client.send_bytes(encode_frame(R"({"schema": "nope"})"), 1000),
            IoStatus::kOk);
  r = client.read_reply(1 << 20, 5000);
  ASSERT_EQ(r.status, IoStatus::kOk);
  EXPECT_EQ(parse_response(r.payload).code, ErrorCode::kBadRequest);

  // Valid envelope, scenario that fails cfg validation: the error names
  // the offending path inside the embedded document.
  auto broken = util::json::parse(R"({
    "schema": "hepex-scenario/1",
    "platform": {"preset": "xeon"},
    "workload": {"program": "SP", "class": "S"},
    "config": {"n": -3, "c": 2, "f": "1800000000Hz"}
  })");
  res = client.call(make("b1", "simulate", std::move(broken)));
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.code, ErrorCode::kBadRequest);
  // The message pins the failing path inside the embedded document
  // ("scenario: config: ..." from the cfg loader's cross-validation).
  EXPECT_NE(res.message.find("scenario"), std::string::npos) << res.message;
  EXPECT_NE(res.message.find("config"), std::string::npos) << res.message;

  // The same connection still serves clean requests.
  const Response pong = client.call(make("after", "ping", {}));
  EXPECT_TRUE(pong.ok);

  server.stop();
  EXPECT_EQ(server.stats().bad_requests.load(), 3u);
  EXPECT_EQ(server.stats().requests_ok.load(), 1u);
}

TEST(Server, OversizedFrameGetsProtocolErrorThenHangup) {
  Server server(tcp_config());
  server.start();
  Client client = Client::connect_tcp_socket(server.port());
  // Header declares 8 MiB against the 1 MiB default cap; no payload sent.
  const std::uint32_t declared = 8u << 20;
  const char header[4] = {static_cast<char>(declared >> 24),
                          static_cast<char>((declared >> 16) & 0xff),
                          static_cast<char>((declared >> 8) & 0xff),
                          static_cast<char>(declared & 0xff)};
  ASSERT_EQ(client.send_bytes(std::string_view(header, 4), 1000),
            IoStatus::kOk);
  const FrameResult r = client.read_reply(1 << 20, 5000);
  ASSERT_EQ(r.status, IoStatus::kOk);
  const Response res = parse_response(r.payload);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.code, ErrorCode::kProtocol);
  // Framing violations cost the connection.
  EXPECT_EQ(client.read_reply(1 << 20, 5000).status, IoStatus::kEof);
  server.stop();
  EXPECT_EQ(server.stats().oversized_frames.load(), 1u);
}

TEST(Server, DeadlineCancelsALongRequest) {
  Server server(tcp_config());
  server.start();
  Client client = Client::connect_tcp_socket(server.port());
  const auto t0 = Clock::now();
  const Response res =
      client.call(make("t1", "validate", slow_scenario(), /*timeout_ms=*/1),
                  /*client timeout*/ 60'000);
  const auto elapsed = ms_since(t0);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.code, ErrorCode::kTimeout);
  EXPECT_TRUE(res.retry);
  // Cancelled at the first cooperative checkpoint past the deadline —
  // far below the uncancelled request's several hundred ms.
  EXPECT_LT(elapsed, 30'000) << "cancellation did not interrupt the run";
  server.stop();
  EXPECT_EQ(server.stats().timeouts.load(), 1u);
}

TEST(Server, DeadlineExpiredWhileQueuedIsATimeout) {
  ServerConfig cfg = tcp_config();
  cfg.executors = 1;
  cfg.queue_capacity = 1;
  Server server(std::move(cfg));
  server.start();
  const auto queue_figure = [&server](const char* key) {
    return server.stats_json().find("queue")->find(key)->as_number();
  };

  Response slow;
  std::thread first([&] {
    Client c = Client::connect_tcp_socket(server.port());
    slow = c.call(make("slow", "validate", slow_scenario()), 120'000);
  });
  // The slow request holds the only run slot once it is admitted.
  while (queue_figure("admitted") < 1.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Client client = Client::connect_tcp_socket(server.port());
  const Response late =
      client.call(make("late", "validate", slow_scenario(), /*timeout_ms=*/1),
                  120'000);
  first.join();

  ASSERT_TRUE(slow.ok) << slow.message;
  EXPECT_FALSE(late.ok);
  EXPECT_EQ(late.code, ErrorCode::kTimeout);
  EXPECT_EQ(late.message, "deadline expired while queued");
  EXPECT_TRUE(late.retry);
  EXPECT_EQ(queue_figure("high_water"), 1.0);
  server.stop();
  EXPECT_EQ(server.stats().timeouts.load(), 1u);
  EXPECT_EQ(server.stats().requests_ok.load(), 1u);
}

TEST(Server, OverloadShedsInsteadOfQueueing) {
  ServerConfig cfg = tcp_config();
  cfg.executors = 1;
  cfg.queue_capacity = 1;
  Server server(std::move(cfg));
  server.start();

  constexpr int kClients = 6;
  std::atomic<int> ok{0}, shed{0}, other{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client c = Client::connect_tcp_socket(server.port());
      const Response res = c.call(
          make("v" + std::to_string(i), "validate", slow_scenario()),
          /*client timeout*/ 120'000);
      if (res.ok) {
        ok.fetch_add(1);
      } else if (res.code == ErrorCode::kShed) {
        EXPECT_TRUE(res.retry);
        shed.fetch_add(1);
      } else {
        other.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Exactly one terminal outcome per request; under 6 concurrent
  // long requests with one run slot and room for one waiter, at least
  // one must complete and at least one must shed.
  EXPECT_EQ(ok.load() + shed.load() + other.load(), kClients);
  EXPECT_GE(ok.load(), 1);
  EXPECT_GE(shed.load(), 1);
  EXPECT_EQ(other.load(), 0);
  server.stop();
  EXPECT_EQ(server.stats().shed.load(),
            static_cast<std::uint64_t>(shed.load()));
}

TEST(Server, GracefulStopDrainsInFlightWork) {
  Server server(tcp_config());
  server.start();
  std::atomic<bool> answered{false};
  Response res;
  std::thread inflight([&] {
    Client c = Client::connect_tcp_socket(server.port());
    res = c.call(make("drain", "validate", slow_scenario()), 120'000);
    answered.store(true);
  });
  // Let the request start running, then stop underneath it.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.stop();
  // stop() returns only after the drain: the response must already be
  // on the wire (or arrive immediately after).
  inflight.join();
  ASSERT_TRUE(answered.load());
  EXPECT_TRUE(res.ok) << res.message;
  EXPECT_EQ(server.stats().requests_ok.load(), 1u);
}

TEST(Server, ConfigRejectsAGateWithoutRunOrWaitSlots) {
  ServerConfig no_waiters = tcp_config();
  no_waiters.queue_capacity = 0;
  EXPECT_THROW(no_waiters.validate(), std::invalid_argument);
  ServerConfig no_runners = tcp_config();
  no_runners.executors = 0;
  EXPECT_THROW(no_runners.validate(), std::invalid_argument);
  EXPECT_THROW(Server{no_runners}, std::invalid_argument);
}

TEST(Server, StopIsIdempotentAndStatsStayReadable) {
  Server server(tcp_config());
  server.start();
  server.stop();
  server.stop();
  const util::json::Value stats = server.stats_json();
  EXPECT_EQ(stats.find("schema")->as_string(), "hepex-svc-stats/1");
  EXPECT_NE(stats.find("queue"), nullptr);
  EXPECT_NE(stats.find("advisors"), nullptr);
}

TEST(Server, RefusesConnectionsAfterStop) {
  Server server(tcp_config());
  server.start();
  const int port = server.port();
  server.stop();
  EXPECT_THROW((void)Client::connect_tcp_socket(port), std::runtime_error);
}

}  // namespace
}  // namespace hepex::svc
