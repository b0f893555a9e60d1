#pragma once
/// \file server.hpp
/// \brief The hepexd server core (docs/service.md).
///
/// Thread architecture — every thread has one job and one way to stop:
///
///   accept thread ──> connection threads (one per client; each runs its
///                     own requests from start to end: read frame, pass
///                     the AdmissionGate, run the method under a
///                     CancelScope, write the response)
///                           │
///                           v
///                     par pool (parallel regions inside one request)
///
/// Robustness invariants, enforced by construction:
///  - at most `executors` requests run at once; the others wait in FIFO
///    order at the gate, which sheds a request instead of letting more
///    than `queue_capacity` wait;
///  - every request carries a deadline (client value capped by the
///    server, default when absent) inside its CancelToken; a request
///    still waiting at the gate leaves the line at its deadline, and
///    running work unwinds at the first cooperative checkpoint past it
///    (par chunk boundary / simulator iteration); either way the client
///    gets a `timeout` error — no thread watches the clock;
///  - overload never queues unboundedly: a full wait sheds immediately
///    (`shed`, retryable), an oversized frame dies on its header alone;
///  - `stop()` (SIGTERM) stops accepting, lets in-flight and waiting
///    requests finish (bounded by the request deadline), then joins
///    everything — never abandons a thread.
///
/// The server is transport-symmetric: a Unix-domain socket (production)
/// or TCP on 127.0.0.1 (tests without a writable filesystem).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "par/cancel.hpp"
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

  int executors = 2;             ///< requests allowed to run at once
  std::size_t queue_capacity = 16;  ///< requests allowed to wait (then: shed)
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

  /// Start the accept thread. Idempotent.
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
  void accept_loop() HEPEX_EXCLUDES(conn_mu_);
  void connection_loop(Socket sock);
  /// Answer `ping` or `stats` inline; returns the response payload.
  std::string handle(const Request& req);
  /// Run an admitted scenario method under its deadline; every outcome,
  /// failures included, becomes a response payload.
  std::string run_admitted(const Request& req, const par::CancelToken& token);
  /// Count and answer a request whose deadline passed before it ran.
  std::string expired_while_queued(const Request& req);
  /// Run a scenario method (`method_runs_scenario`).
  std::string dispatch_job(const Request& req);

  ServerConfig config_;
  Socket listener_;
  int port_ = 0;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  /// Raised at stop(): aborts idle/partial frame reads and the accept
  /// wait. Response *writes* are not aborted — drain means answering.
  std::atomic<bool> refuse_new_{false};

  AdmissionGate gate_;
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

  std::thread accept_thread_;
};

}  // namespace hepex::svc
