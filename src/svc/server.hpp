#pragma once
/// \file server.hpp
/// \brief The hepexd server core (docs/service.md).
///
/// Thread architecture — every thread has one job and one way to stop:
///
///   accept thread ──> connection threads (one per client; all socket
///        │            I/O happens here: read frame, wait on the job's
///        │            future, write response)
///        │                  │ admission: BoundedQueue::try_push
///        │                  v
///        │            executor threads (pop job, run method under a
///        │            CancelScope, fulfill the promise)
///        └─ watchdog thread (cancels jobs whose deadline passed)
///
/// Robustness invariants, enforced by construction:
///  - every *admitted* job's promise is always fulfilled (executors drain
///    the queue even during shutdown), so a connection thread's wait can
///    never hang;
///  - every request carries a deadline (client value capped by the
///    server, default when absent); the watchdog cancels the token, the
///    work unwinds at the next cooperative checkpoint (par chunk
///    boundary / simulator iteration), the client gets a `timeout` error;
///  - overload never queues unboundedly: a full queue sheds immediately
///    (`shed`, retryable), an oversized frame dies on its header alone;
///  - `stop()` (SIGTERM) stops accepting, lets in-flight requests finish
///    (bounded by the request deadline), then joins everything — never
///    abandons a thread.
///
/// The server is transport-symmetric: a Unix-domain socket (production)
/// or TCP on 127.0.0.1 (tests without a writable filesystem).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/admission.hpp"
#include "svc/advisor_cache.hpp"
#include "svc/framing.hpp"
#include "svc/protocol.hpp"
#include "util/json.hpp"
#include "util/thread_annotations.hpp"

namespace hepex::svc {

struct ServerConfig {
  /// Unix socket path; when empty, TCP on 127.0.0.1:`tcp_port` is used.
  std::string unix_path;
  int tcp_port = 0;  ///< 0 = ephemeral (read back via Server::port())

  int executors = 2;             ///< worker threads running requests
  std::size_t queue_capacity = 16;  ///< admission bound (then: shed)
  std::size_t max_request_bytes = 1u << 20;  ///< frame cap (1 MiB)

  int default_timeout_ms = 30'000;  ///< when the request omits timeout_ms
  int max_timeout_ms = 120'000;     ///< cap on client-supplied timeouts
  /// Budget for reading one frame (header+payload) once a connection is
  /// idle-waiting; also the slow-loris bound. -1 = wait forever (tests).
  int read_timeout_ms = 60'000;
  int write_timeout_ms = 10'000;  ///< response write budget

  std::size_t advisor_cache_capacity = 8;
  std::size_t prediction_cache_capacity = 4096;

  /// Worker threads for the par pool *within* one request (scenario jobs
  /// fields are ignored server-side; see docs/service.md). 0 = all cores.
  int jobs = 0;

  void validate() const;  ///< throws std::invalid_argument
};

/// Monotonic counters, readable while the server runs.
struct ServerStats {
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> requests_total{0};
  std::atomic<std::uint64_t> requests_ok{0};
  std::atomic<std::uint64_t> bad_requests{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> timeouts{0};
  std::atomic<std::uint64_t> rejected_shutdown{0};
  std::atomic<std::uint64_t> internal_errors{0};
  std::atomic<std::uint64_t> oversized_frames{0};
};

class Server {
 public:
  /// Binds the socket (throws std::runtime_error on bind/listen
  /// failure) but does not accept yet.
  explicit Server(ServerConfig config);
  ~Server();  ///< calls stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Start the accept/executor/watchdog threads. Idempotent.
  void start();

  /// Graceful shutdown: refuse new connections and new requests, let
  /// every in-flight request finish (bounded by its deadline), join all
  /// threads, keep stats readable. Idempotent; safe from any thread
  /// except the server's own.
  void stop();

  /// The TCP port actually bound (ephemeral resolution); 0 on Unix.
  int port() const { return port_; }
  const ServerConfig& config() const { return config_; }
  const ServerStats& stats() const { return stats_; }

  /// Stats document served by the `stats` method and printed on
  /// shutdown: counters, queue pressure, advisor-cache effectiveness.
  util::json::Value stats_json() const;

 private:
  struct Job;

  void accept_loop() HEPEX_EXCLUDES(conn_mu_);
  void connection_loop(Socket sock) HEPEX_EXCLUDES(active_mu_);
  void executor_loop() HEPEX_EXCLUDES(active_mu_);
  void watchdog_loop() HEPEX_EXCLUDES(active_mu_);
  /// Answer `ping` or `stats` inline; returns the response payload.
  std::string handle(const Request& req);
  /// Run a scenario method (`method_runs_scenario`) on an executor.
  std::string dispatch_job(const Request& req);

  ServerConfig config_;
  Socket listener_;
  int port_ = 0;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  /// Raised at stop(): aborts idle/partial frame reads and the accept
  /// wait. Response *writes* are not aborted — drain means answering.
  std::atomic<bool> refuse_new_{false};
  std::atomic<bool> watchdog_stop_{false};

  BoundedQueue<std::shared_ptr<Job>> queue_;
  AdvisorCache advisors_;
  ServerStats stats_;

  /// One slot per connection thread; `done` lets the accept loop reap
  /// (join + erase) finished connections without blocking on live ones.
  struct ConnSlot {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  util::Mutex conn_mu_;
  std::vector<std::unique_ptr<ConnSlot>> connections_
      HEPEX_GUARDED_BY(conn_mu_);

  util::Mutex active_mu_;
  /// The watchdog's scan list.
  std::vector<std::shared_ptr<Job>> active_ HEPEX_GUARDED_BY(active_mu_);

  std::thread accept_thread_;
  std::vector<std::thread> executor_threads_;
  std::thread watchdog_thread_;
};

}  // namespace hepex::svc
