#include "svc/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "cfg/scenario.hpp"
#include "core/run.hpp"
#include "par/cancel.hpp"
#include "par/thread_pool.hpp"
#include "util/error.hpp"
#include "util/schemas.hpp"

namespace hepex::svc {

void ServerConfig::validate() const {
  HEPEX_REQUIRE(unix_path.empty() ? tcp_port >= 0 && tcp_port <= 65535 : true,
                "tcp_port must be in [0, 65535]");
  HEPEX_REQUIRE(executors >= 1, "server needs >= 1 executor");
  HEPEX_REQUIRE(executors <= 64, "executors capped at 64");
  HEPEX_REQUIRE(queue_capacity >= 1, "queue capacity must be >= 1");
  HEPEX_REQUIRE(max_request_bytes >= 1024,
                "max_request_bytes must be >= 1024");
  HEPEX_REQUIRE(max_request_bytes <= kAbsoluteMaxFrameBytes,
                "max_request_bytes above the transport's absolute cap");
  HEPEX_REQUIRE(default_timeout_ms >= 1, "default_timeout_ms must be >= 1");
  HEPEX_REQUIRE(max_timeout_ms >= default_timeout_ms,
                "max_timeout_ms must be >= default_timeout_ms");
  HEPEX_REQUIRE(read_timeout_ms == -1 || read_timeout_ms >= 1,
                "read_timeout_ms must be -1 (forever) or >= 1");
  HEPEX_REQUIRE(write_timeout_ms >= 1, "write_timeout_ms must be >= 1");
  HEPEX_REQUIRE(advisor_cache_capacity >= 1,
                "advisor cache capacity must be >= 1");
  HEPEX_REQUIRE(jobs >= 0, "jobs must be >= 0 (0 = all cores)");
}

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      gate_(config_.executors, config_.queue_capacity),
      advisors_(config_.advisor_cache_capacity,
                config_.prediction_cache_capacity) {
  config_.validate();
  if (!config_.unix_path.empty()) {
    listener_ = listen_unix(config_.unix_path);
  } else {
    listener_ = listen_tcp(config_.tcp_port, &port_);
  }
}

Server::~Server() { stop(); }

void Server::start() {
  if (started_.exchange(true)) return;
  if (config_.jobs != 0) par::set_default_jobs(config_.jobs);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  if (!started_.load()) {
    listener_.close();
    return;
  }
  if (stopped_.exchange(true)) return;

  // 1. Refuse new work: the accept wait and every idle/partial frame
  //    read observe the flag within one poll slice, and the gate answers
  //    any request read from now on with `shutting_down`.
  refuse_new_ = true;
  gate_.close();
  if (accept_thread_.joinable()) accept_thread_.join();

  // 2. Drain connections. Requests already running or waiting at the gate
  //    still run to their response (bounded by the request deadline).
  for (;;) {
    std::unique_ptr<ConnSlot> slot;
    {
      util::MutexLock lock(conn_mu_);
      if (connections_.empty()) break;
      slot = std::move(connections_.back());
      connections_.pop_back();
    }
    if (slot->thread.joinable()) slot->thread.join();
  }

  listener_.close();
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
}

void Server::accept_loop() {
  while (!refuse_new_) {
    Socket client =
        accept_connection(listener_, /*timeout_ms=*/200, &refuse_new_);
    // Reap finished connection threads (their loops set `done` last).
    {
      util::MutexLock lock(conn_mu_);
      for (auto it = connections_.begin(); it != connections_.end();) {
        if ((*it)->done.load()) {
          if ((*it)->thread.joinable()) (*it)->thread.join();
          it = connections_.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (!client.valid()) continue;  // timeout slice or drain
    ++stats_.connections_accepted;
    auto slot = std::make_unique<ConnSlot>();
    ConnSlot* raw = slot.get();
    {
      util::MutexLock lock(conn_mu_);
      connections_.push_back(std::move(slot));
    }
    raw->thread = std::thread([this, raw, sock = std::move(client)]() mutable {
      connection_loop(std::move(sock));
      raw->done.store(true);
    });
  }
}

void Server::connection_loop(Socket sock) {
  const util::json::ParseLimits limits{/*max_depth=*/64,
                                       /*max_bytes=*/config_.max_request_bytes};
  while (!refuse_new_) {
    FrameResult frame = read_frame(sock.fd(), config_.max_request_bytes,
                                   config_.read_timeout_ms, &refuse_new_);
    if (frame.status == IoStatus::kEof || frame.status == IoStatus::kAborted ||
        frame.status == IoStatus::kError) {
      return;  // clean close, drain, or peer gone — nothing to answer
    }
    if (frame.status != IoStatus::kOk) {
      // Timeout (slow loris), oversized, or mid-frame close: the framing
      // is no longer trustworthy. Answer best-effort, then hang up.
      if (frame.status == IoStatus::kOversized) {
        ++stats_.oversized_frames;
      } else {
        ++stats_.protocol_errors;
      }
      const std::string why = frame.message.empty()
                                  ? std::string(to_string(frame.status))
                                  : frame.message;
      write_frame(sock.fd(),
                  make_error_response("", ErrorCode::kProtocol, why),
                  config_.write_timeout_ms);
      return;
    }

    Request req;
    try {
      req = parse_request(frame.payload, limits);
    } catch (const std::exception& e) {
      // The frame boundary is intact, so the connection survives a bad
      // request — only framing violations hang up.
      ++stats_.bad_requests;
      if (write_frame(sock.fd(),
                      make_error_response("", ErrorCode::kBadRequest,
                                          e.what()),
                      config_.write_timeout_ms) != IoStatus::kOk) {
        return;
      }
      continue;
    }
    ++stats_.requests_total;

    std::string payload;
    if (!method_runs_scenario(req.method)) {
      // ping/stats answer inline, bypassing admission — health checks
      // must keep working exactly when the queue is full.
      payload = handle(req);
      ++stats_.requests_ok;
    } else {
      // The deadline starts when the request is read, so time spent
      // waiting at the gate counts against it.
      int t = req.timeout_ms;
      if (t <= 0) t = config_.default_timeout_ms;
      t = std::min(t, config_.max_timeout_ms);
      const par::CancelToken token(par::CancelToken::Clock::now() +
                                   std::chrono::milliseconds(t));
      switch (gate_.enter()) {
        case AdmissionGate::Entry::kClosed:
          ++stats_.rejected_shutdown;
          write_frame(sock.fd(),
                      make_error_response(req.id, ErrorCode::kShuttingDown,
                                          "daemon is draining"),
                      config_.write_timeout_ms);
          return;
        case AdmissionGate::Entry::kShed:
          ++stats_.shed;
          payload = make_error_response(
              req.id, ErrorCode::kShed,
              "request queue full (" + std::to_string(gate_.capacity()) +
                  " in flight); retry with backoff");
          break;
        case AdmissionGate::Entry::kRun:
          payload = run_admitted(req, token);
          gate_.leave();
          break;
      }
    }
    if (write_frame(sock.fd(), payload, config_.write_timeout_ms) !=
        IoStatus::kOk) {
      return;
    }
  }
}

std::string Server::run_admitted(const Request& req,
                                 const par::CancelToken& token) {
  if (token.cancelled()) {
    ++stats_.timeouts;
    return make_error_response(req.id, ErrorCode::kTimeout,
                               "deadline expired while queued");
  }
  par::CancelScope scope(&token);
  try {
    std::string payload = dispatch_job(req);
    ++stats_.requests_ok;
    return payload;
  } catch (const par::Cancelled&) {
    ++stats_.timeouts;
    return make_error_response(
        req.id, ErrorCode::kTimeout,
        "deadline expired during execution (work abandoned at a "
        "cooperative checkpoint)");
  } catch (const std::invalid_argument& e) {
    ++stats_.bad_requests;
    return make_error_response(req.id, ErrorCode::kBadRequest, e.what());
  } catch (const std::exception& e) {
    ++stats_.internal_errors;
    return make_error_response(req.id, ErrorCode::kInternal, e.what());
  }
}

std::string Server::handle(const Request& req) {
  if (req.method == "ping") {
    util::json::Value result = util::json::Value::object();
    result.set("pong", true);
    return make_result_response(req.id, std::move(result));
  }
  return make_result_response(req.id, stats_json());
}

std::string Server::dispatch_job(const Request& req) {
  // Resolve through the same loader the CLI uses — full unknown-key and
  // range validation, `request.scenario: <path>` error positions.
  cfg::Scenario s = cfg::load_scenario(req.scenario, "request.scenario");
  // Server-side overrides: no file outputs on behalf of remote peers
  // (a scenario's obs paths would write to the daemon's filesystem), and
  // parallel width is the daemon's, not the request's.
  s.obs = cfg::ObsSettings{};
  s.jobs = 0;

  // core::run, as in the CLI, without a `host` section: identical requests
  // get byte-identical responses (tested). Single-program advice uses the
  // cached Advisor; a grid advises each point on its own.
  if (req.method == "advise" && !s.workload_grid) {
    AdvisorCache::Lease lease = advisors_.lease(s);
    return make_result_response(
        req.id, core::run(s, core::Method::kAdvise, {&lease.advisor(), {}})
                    .report.to_json_value());
  }
  const core::Method method = req.method == "advise" ? core::Method::kAdvise
                              : req.method == "simulate"
                                  ? core::Method::kSimulate
                                  : core::Method::kValidate;
  return make_result_response(req.id,
                              core::run(s, method).report.to_json_value());
}

util::json::Value Server::stats_json() const {
  util::json::Value counters = util::json::Value::object();
  counters.set("connections_accepted",
               static_cast<double>(stats_.connections_accepted.load()));
  counters.set("requests_total",
               static_cast<double>(stats_.requests_total.load()));
  counters.set("requests_ok",
               static_cast<double>(stats_.requests_ok.load()));
  counters.set("bad_requests",
               static_cast<double>(stats_.bad_requests.load()));
  counters.set("protocol_errors",
               static_cast<double>(stats_.protocol_errors.load()));
  counters.set("oversized_frames",
               static_cast<double>(stats_.oversized_frames.load()));
  counters.set("shed", static_cast<double>(stats_.shed.load()));
  counters.set("timeouts", static_cast<double>(stats_.timeouts.load()));
  counters.set("rejected_shutdown",
               static_cast<double>(stats_.rejected_shutdown.load()));
  counters.set("internal_errors",
               static_cast<double>(stats_.internal_errors.load()));

  util::json::Value queue = util::json::Value::object();
  queue.set("capacity", static_cast<double>(gate_.capacity()));
  queue.set("depth", static_cast<double>(gate_.depth()));
  queue.set("admitted", static_cast<double>(gate_.admitted()));
  queue.set("high_water", static_cast<double>(gate_.high_water()));

  util::json::Value out = util::json::Value::object();
  out.set("schema", util::schemas::kSvcStats);
  out.set("counters", std::move(counters));
  out.set("queue", std::move(queue));
  out.set("advisors", advisors_.stats_json());
  return out;
}

}  // namespace hepex::svc
