#include "svc/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <stdexcept>
#include <utility>

#include "cfg/scenario.hpp"
#include "core/validation.hpp"
#include "par/cancel.hpp"
#include "par/thread_pool.hpp"
#include "trace/execution_engine.hpp"
#include "trace/run_report.hpp"
#include "trace/scenario.hpp"
#include "util/error.hpp"
#include "util/schemas.hpp"

namespace hepex::svc {

namespace {

using Clock = std::chrono::steady_clock;

/// Watchdog scan period: bounds how late past its deadline a request can
/// be cancelled.
constexpr int kWatchdogPeriodMs = 50;

}  // namespace

struct Server::Job {
  Request req;
  par::CancelToken token;
  Clock::time_point deadline;
  std::promise<std::string> promise;
};

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
      queue_(config_.queue_capacity),
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
  watchdog_thread_ = std::thread([this] { watchdog_loop(); });
  executor_threads_.reserve(static_cast<std::size_t>(config_.executors));
  for (int i = 0; i < config_.executors; ++i) {
    executor_threads_.emplace_back([this] { executor_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  if (!started_.load()) {
    listener_.close();
    return;
  }
  if (stopped_.exchange(true)) return;

  // 1. Refuse new work: the accept wait and every idle/partial frame
  //    read observe the flag within one poll slice.
  refuse_new_ = true;
  if (accept_thread_.joinable()) accept_thread_.join();

  // 2. Drain connections. Executors are still running, so a connection
  //    blocked on its job's future is guaranteed an answer (the watchdog
  //    bounds the wait via the request deadline).
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

  // 3. With every connection gone the queue holds no live work; close it
  //    so executors fall out of pop(), then join them.
  queue_.close();
  for (auto& t : executor_threads_) {
    if (t.joinable()) t.join();
  }

  // 4. Nothing can be in flight now; retire the watchdog.
  watchdog_stop_.store(true);
  if (watchdog_thread_.joinable()) watchdog_thread_.join();

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
      auto job = std::make_shared<Job>();
      job->req = std::move(req);
      int t = job->req.timeout_ms;
      if (t <= 0) t = config_.default_timeout_ms;
      t = std::min(t, config_.max_timeout_ms);
      job->deadline = Clock::now() + std::chrono::milliseconds(t);
      std::future<std::string> result = job->promise.get_future();
      {
        // Registered before admission so the watchdog can never miss it.
        util::MutexLock lock(active_mu_);
        active_.push_back(job);
      }
      bool closed = false;
      if (!queue_.try_push(job, &closed)) {
        {
          util::MutexLock lock(active_mu_);
          active_.erase(std::find(active_.begin(), active_.end(), job));
        }
        if (closed) {
          ++stats_.rejected_shutdown;
          write_frame(sock.fd(),
                      make_error_response(job->req.id,
                                          ErrorCode::kShuttingDown,
                                          "daemon is draining"),
                      config_.write_timeout_ms);
          return;
        }
        ++stats_.shed;
        payload = make_error_response(
            job->req.id, ErrorCode::kShed,
            "request queue full (" +
                std::to_string(queue_.capacity()) +
                " in flight); retry with backoff");
      } else {
        // Blocking is safe: every admitted job's promise is fulfilled
        // (executors drain even during shutdown) and the watchdog bounds
        // execution by the deadline set above.
        payload = result.get();
      }
    }
    if (write_frame(sock.fd(), payload, config_.write_timeout_ms) !=
        IoStatus::kOk) {
      return;
    }
  }
}

void Server::executor_loop() {
  while (auto item = queue_.pop()) {
    const std::shared_ptr<Job>& job = *item;
    std::string payload;
    if (job->token.cancelled()) {
      ++stats_.timeouts;
      payload = make_error_response(
          job->req.id, ErrorCode::kTimeout,
          "deadline expired while queued");
    } else {
      par::CancelScope scope(&job->token);
      try {
        payload = dispatch_job(job->req);
        ++stats_.requests_ok;
      } catch (const par::Cancelled&) {
        ++stats_.timeouts;
        payload = make_error_response(
            job->req.id, ErrorCode::kTimeout,
            "deadline expired during execution (work abandoned at a "
            "cooperative checkpoint)");
      } catch (const std::invalid_argument& e) {
        ++stats_.bad_requests;
        payload =
            make_error_response(job->req.id, ErrorCode::kBadRequest, e.what());
      } catch (const std::exception& e) {
        ++stats_.internal_errors;
        payload =
            make_error_response(job->req.id, ErrorCode::kInternal, e.what());
      }
    }
    job->promise.set_value(std::move(payload));
    {
      util::MutexLock lock(active_mu_);
      const auto it = std::find(active_.begin(), active_.end(), job);
      if (it != active_.end()) active_.erase(it);
    }
  }
}

void Server::watchdog_loop() {
  while (!watchdog_stop_.load()) {
    const auto now = Clock::now();
    {
      util::MutexLock lock(active_mu_);
      for (const auto& job : active_) {
        if (now >= job->deadline) job->token.cancel();
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(kWatchdogPeriodMs));
  }
}

std::string Server::handle(const Request& req) {
  if (req.method == "ping") {
    util::json::Value result = util::json::Value::object();
    result.set("pong", true);
    return make_result_response(req.id, std::move(result));
  }
  if (req.method == "stats") {
    return make_result_response(req.id, stats_json());
  }
  return dispatch_job(req);
}

std::string Server::dispatch_job(const Request& req) {
  if (!method_runs_scenario(req.method)) return handle(req);

  // Resolve through the same loader the CLI uses — full unknown-key and
  // range validation, `request.scenario: <path>` error positions.
  cfg::Scenario s = cfg::load_scenario(req.scenario, "request.scenario");
  // Server-side overrides: no file outputs on behalf of remote peers
  // (a scenario's obs paths would write to the daemon's filesystem), and
  // parallel width is the daemon's, not the request's.
  s.obs = cfg::ObsSettings{};
  s.jobs = 0;

  trace::RunReportOptions ro;
  ro.command = req.method;
  // host_wall_s stays 0: responses are pure functions of the request, so
  // identical requests produce byte-identical responses (tested).

  if (req.method == "advise") {
    AdvisorCache::Lease lease = advisors_.lease(s);
    const auto& frontier = lease.advisor().frontier();
    auto summary = util::json::Value::object();
    summary.set("frontier_points", static_cast<int>(frontier.size()));
    auto points = util::json::Value::array();
    for (const auto& p : frontier) {
      auto pt = util::json::Value::object();
      pt.set("n", p.config.nodes);
      pt.set("c", p.config.cores);
      pt.set("f_ghz", p.config.f_hz.value() / 1e9);
      pt.set("time_s", p.time_s.value());
      pt.set("energy_j", p.energy_j.value());
      pt.set("ucr", p.ucr);
      points.push_back(std::move(pt));
    }
    summary.set("frontier", std::move(points));
    ro.summary = std::move(summary);
    return make_result_response(
        req.id, trace::build_run_report(s, ro).to_json_value());
  }

  if (req.method == "simulate") {
    const trace::SimOptions opt = trace::sim_options_from_scenario(s);
    const trace::Measurement meas =
        trace::simulate(s.machine, s.program, s.single_config(), opt);
    return make_result_response(
        req.id, trace::build_run_report(s, meas, ro).to_json_value());
  }

  if (req.method == "validate") {
    const core::ValidationReport report = core::validate(s);
    auto summary = util::json::Value::object();
    summary.set("configs", static_cast<int>(s.sweep_configs().size()));
    summary.set("time_error_mean_pct", report.time_error.mean());
    summary.set("time_error_max_pct", report.time_error.max());
    summary.set("energy_error_mean_pct", report.energy_error.mean());
    summary.set("energy_error_max_pct", report.energy_error.max());
    ro.summary = std::move(summary);
    return make_result_response(
        req.id, trace::build_run_report(s, ro).to_json_value());
  }

  fail_assert("dispatch_job: unhandled method " + req.method);
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
  queue.set("capacity", static_cast<double>(queue_.capacity()));
  queue.set("depth", static_cast<double>(queue_.size()));
  queue.set("admitted", static_cast<double>(queue_.admitted()));
  queue.set("high_water", static_cast<double>(queue_.high_water()));

  util::json::Value out = util::json::Value::object();
  out.set("schema", util::schemas::kSvcStats);
  out.set("counters", std::move(counters));
  out.set("queue", std::move(queue));
  out.set("advisors", advisors_.stats_json());
  return out;
}

}  // namespace hepex::svc
