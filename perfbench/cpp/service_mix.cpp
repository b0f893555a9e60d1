/// \file service_mix.cpp
/// \brief Workload `service_mix`: a real hepexd under a closed loop.
///
/// The benchmark starts `hepexd` on a Unix socket with pinned executors,
/// queue and par width, warms its AdvisorCache with the six advise
/// fingerprints, and then runs four callers that each send their next
/// request as soon as the reply arrives: ~80% `advise` (every one a cache
/// hit) and ~20% class-S `simulate`. The daemon and the callers share one
/// CPU, so the figures follow the request path's cost rather than how
/// fast the host wakes an idle virtual CPU. The traced run adds
/// closed-loop probes per method, the in-process library cost of the same
/// requests, and an open loop of Poisson arrivals timed from their due
/// time.
///
/// Every response must be byte-equal to the payload the library computes
/// in-process for the same request (the daemon's responses are pure
/// functions of the request: `host_wall_s` stays 0).

#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cfg/scenario.hpp"
#include "core/advisor.hpp"
#include "harness.hpp"
#include "obs/registry.hpp"
#include "svc/client.hpp"
#include "svc/framing.hpp"
#include "svc/protocol.hpp"
#include "trace/run_report.hpp"
#include "trace/scenario.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace perfbench {
namespace {

namespace json = hepex::util::json;
namespace svc = hepex::svc;
using Scope = SpanRecorder::Scope;

constexpr int kSetupRepeats = 5;
constexpr int kSimulateDocs = 32;
constexpr double kAdviseShare = 0.8;
constexpr int kTimeoutMs = 30'000;
constexpr std::size_t kMaxReplyBytes = 64u << 20;

/// Confine the calling thread, and so every thread and process it starts
/// afterwards, to the first `n` CPUs it may run on.
void confine_to_first_cpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  cpu_set_t use;
  CPU_ZERO(&use);
  for (int cpu = 0, taken = 0; cpu < CPU_SETSIZE && taken < n; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &use);
      ++taken;
    }
  }
  if (::sched_setaffinity(0, sizeof(use), &use) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

// --- the daemon ------------------------------------------------------------

/// One hepexd child process. The constructor returns once the daemon has
/// printed its `listening` line; `stop` drains it with SIGTERM. A daemon
/// still running at destruction is killed and reaped.
class Daemon {
 public:
  Daemon(const Args& a, const std::string& socket_path) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    std::vector<std::string> argv_s = {
        a.hepexd,  "--unix",      socket_path,
        "--executors", std::to_string(a.executors),
        "--queue", std::to_string(a.queue),
        "--jobs",  std::to_string(a.jobs)};
    std::vector<char*> argv;
    for (auto& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    const int rc = ::posix_spawn(&pid_, a.hepexd.c_str(), &fa, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      ::close(out_fd_);
      throw std::runtime_error("cannot start " + a.hepexd + ": " +
                               std::strerror(rc));
    }
    const std::string banner = read_until("listening", 30'000);
    if (banner.find("listening") == std::string::npos) {
      kill_and_reap();
      throw std::runtime_error("hepexd did not report listening: " + banner);
    }
  }

  ~Daemon() { kill_and_reap(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Peak resident set of the daemon, MiB.
  double peak_rss_mb() const {
    return perfbench::peak_rss_mb(std::to_string(pid_));
  }

  /// SIGTERM, read the drain output to EOF, reap. True when the daemon
  /// exited 0 after reporting a clean drain.
  bool stop() {
    if (pid_ < 0) return false;
    ::kill(pid_, SIGTERM);
    const std::string tail = read_until("", 30'000);
    int status = 0;
    const bool drained = tail.find("drained cleanly") != std::string::npos;
    if (!drained) ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    ::close(out_fd_);
    out_fd_ = -1;
    return drained && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  /// Read the daemon's stdout until `marker` appears (or EOF when the
  /// marker is empty), giving up after `timeout_ms`.
  std::string read_until(const std::string& marker, int timeout_ms) {
    std::string got;
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    char buf[4096];
    while (Clock::now() < deadline) {
      if (!marker.empty() && got.find(marker) != std::string::npos) break;
      struct pollfd pfd {out_fd_, POLLIN, 0};
      const int left = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - Clock::now()).count());
      const int rc = ::poll(&pfd, 1, std::max(left, 1));
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0) break;
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) break;
      got.append(buf, static_cast<std::size_t>(n));
    }
    return got;
  }

  void kill_and_reap() {
    if (pid_ < 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
};

// --- requests --------------------------------------------------------------

/// One distinct request of the mix, with the response it must get.
struct Doc {
  std::string payload;   ///< request payload (hepex-svc-request/1)
  std::string frame;     ///< the payload framed for the wire
  std::string expected;  ///< the response payload computed in-process
  bool advise = false;
  double events = 0.0;   ///< simulated events (simulate requests)
  std::vector<hepex::pareto::ConfigPoint> frontier;  ///< advise requests
};

std::string scenario_text(const char* preset, const char* program,
                          const char* cls, std::uint64_t sim_seed,
                          const std::string& config) {
  return std::string("{\"schema\":\"hepex-scenario/1\",\"platform\":"
                     "{\"preset\":\"") +
         preset + "\"},\"workload\":{\"program\":\"" + program +
         "\",\"class\":\"" + cls + "\"}," + config + "\"sim\":{\"seed\":" +
         std::to_string(sim_seed) + "}}";
}

Doc make_doc(const std::string& id, const std::string& method,
             const std::string& scenario) {
  svc::Request req;
  req.id = id;
  req.method = method;
  req.scenario = json::parse(scenario, "perfbench");
  Doc d;
  d.payload = svc::make_request(req);
  d.frame = svc::encode_frame(d.payload);
  d.advise = method == "advise";
  return d;
}

/// The six advise fingerprints (LU/SP/BT/CP/LB on xeon, SP on arm, class
/// A) and kSimulateDocs class-S simulate configs, all seeded from `seed`.
std::vector<Doc> make_docs(std::uint64_t seed) {
  static const char* const kAdvise[][2] = {{"xeon", "LU"}, {"xeon", "SP"},
                                           {"xeon", "BT"}, {"xeon", "CP"},
                                           {"xeon", "LB"}, {"arm", "SP"}};
  static const char* const kPrograms[] = {"LU", "SP", "BT", "CP", "LB"};
  const std::uint64_t base = 1 + (mix64(seed ^ 0x5e41ce) % 1000000) * 10000000;
  std::vector<Doc> docs;
  int k = 0;
  for (const auto& a : kAdvise) {
    docs.push_back(make_doc(
        "a" + std::to_string(k), "advise",
        scenario_text(a[0], a[1], "A", base + static_cast<std::uint64_t>(k),
                      "")));
    ++k;
  }
  hepex::util::Rng rng(mix64(seed ^ 0x5151));
  for (int j = 0; j < kSimulateDocs; ++j) {
    const int n = j % 2 == 0 ? 2 : 4;
    const int c = (j / 2) % 2 == 0 ? 2 : 4;
    const std::string config = "\"config\":{\"n\":" + std::to_string(n) +
                               ",\"c\":" + std::to_string(c) +
                               ",\"f\":\"1.8GHz\"},";
    docs.push_back(make_doc(
        "s" + std::to_string(j), "simulate",
        scenario_text("xeon", kPrograms[rng() % 5], "S",
                      base + 1000 + static_cast<std::uint64_t>(j), config)));
  }
  return docs;
}

/// The library calls one warm request costs inside hepexd, in the order
/// `Server::dispatch_job` makes them: parse the request, load the
/// scenario from it, simulate (simulate requests only), build the
/// RunReport and frame the response. Advise requests take the frontier
/// from `d.frontier` (the daemon's AdvisorCache hit). `reg` counts the
/// simulation's events; it does not change the result.
std::string serve_in_process(const Doc& d, SpanRecorder* rec,
                             hepex::obs::Registry* reg) {
  Scope op(rec, "svc.library");
  svc::Request req;
  {
    Scope sp(rec, "svc.parse_request");
    req = svc::parse_request(d.payload);
  }
  hepex::cfg::Scenario s;
  {
    Scope sp(rec, "cfg.load_scenario");
    s = hepex::cfg::load_scenario(json::dump_compact(req.scenario),
                                  "request.scenario");
    s.obs = hepex::cfg::ObsSettings{};
    s.jobs = 0;
  }
  hepex::trace::RunReportOptions ro;
  ro.command = req.method;
  json::Value report;
  if (d.advise) {
    Scope sp(rec, "obs.report");
    ro.summary = frontier_summary(d.frontier);
    report = hepex::trace::build_run_report(s, ro).to_json_value();
  } else {
    hepex::trace::Measurement meas;
    {
      Scope sp(rec, "trace.simulate");
      auto opt = hepex::trace::sim_options_from_scenario(s);
      opt.metrics = reg;
      meas = hepex::trace::simulate(s.machine, s.program, s.single_config(),
                                    opt);
    }
    Scope sp(rec, "obs.report");
    report = hepex::trace::build_run_report(s, meas, ro).to_json_value();
  }
  Scope sp(rec, "svc.make_response");
  return svc::make_result_response(req.id, std::move(report));
}

/// Fill every doc's expected response (and frontier / event count).
void compute_expected(std::vector<Doc>& docs) {
  for (Doc& d : docs) {
    hepex::obs::Registry reg;
    if (d.advise) {
      const auto req = svc::parse_request(d.payload);
      auto s = hepex::cfg::load_scenario(json::dump_compact(req.scenario),
                                         "request.scenario");
      auto advisor = hepex::core::Advisor::from_scenario(s);
      d.frontier = advisor.frontier();
    }
    d.expected = serve_in_process(d, nullptr, &reg);
    if (const auto* c = reg.find_counter("sim.events_processed")) {
      d.events = static_cast<double>(c->value());
    }
  }
}

// --- traffic ---------------------------------------------------------------

/// The doc of request `i` of a stream: ~80% advise (uniform over the
/// fingerprints), the rest simulate (uniform over the configs).
int doc_of(std::uint64_t stream, std::uint64_t i, int advise_docs,
           int total_docs) {
  const std::uint64_t h = mix64(stream + i);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  const auto pick = mix64(h);
  if (u < kAdviseShare) {
    return static_cast<int>(pick % static_cast<std::uint64_t>(advise_docs));
  }
  return advise_docs + static_cast<int>(pick % static_cast<std::uint64_t>(
                                                   total_docs - advise_docs));
}

struct Sample {
  double start_s = 0.0;      ///< due (open loop) or send time, from phase start
  double latency_ms = 0.0;   ///< done - due (open loop) or done - sent
  double lateness_ms = 0.0;  ///< sent - due (open loop only)
  int doc = 0;
  bool ok = false;
  bool traced = false;       ///< a span was recorded around it
};

/// One framed request and its reply on `client`; true when the reply is
/// byte-equal to the payload the library computes for the request.
bool exchange(svc::Client& client, const Doc& d) {
  if (client.send_bytes(d.frame, kTimeoutMs) != svc::IoStatus::kOk) {
    return false;
  }
  const svc::FrameResult fr = client.read_reply(kMaxReplyBytes, kTimeoutMs);
  return fr.status == svc::IoStatus::kOk && fr.payload == d.expected;
}

/// Run `worker(w, samples_of_w)` on one thread per client and merge the
/// samples in start order.
template <typename F>
std::vector<Sample> on_every_client(std::size_t clients, F worker) {
  std::vector<std::vector<Sample>> per(clients);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < clients; ++w) {
    threads.emplace_back([&, w] { worker(w, per[w]); });
  }
  for (auto& t : threads) t.join();
  std::vector<Sample> out;
  for (auto& v : per) out.insert(out.end(), v.begin(), v.end());
  std::sort(out.begin(), out.end(), [](const Sample& a, const Sample& b) {
    return a.start_s < b.start_s;
  });
  return out;
}

/// Closed loop: every connection is a caller that sends its next request
/// as soon as the previous reply arrived, for `seconds`. Requests are
/// numbered across callers from one counter, so the mix is the stream's.
/// `recs` (one per connection, or null) get a span around every
/// even-numbered request.
std::vector<Sample> run_closed_loop(std::vector<svc::Client>& clients,
                                    const std::vector<Doc>& docs,
                                    std::uint64_t stream, int advise_docs,
                                    double seconds,
                                    std::vector<SpanRecorder>* recs) {
  std::atomic<std::uint64_t> next{0};
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  const int total = static_cast<int>(docs.size());
  return on_every_client(clients.size(), [&](std::size_t w,
                                             std::vector<Sample>& out) {
    SpanRecorder* rec = recs == nullptr ? nullptr : &(*recs)[w];
    while (Clock::now() < end) {
      const std::uint64_t i = next.fetch_add(1);
      Sample s;
      s.doc = doc_of(stream, i, advise_docs, total);
      if (rec != nullptr) rec->begin_op(static_cast<std::int64_t>(i));
      const auto sent = Clock::now();
      s.traced = rec != nullptr && i % 2 == 0;
      {
        Scope sp(s.traced ? rec : nullptr, "svc.request");
        s.ok = exchange(clients[w], docs[static_cast<std::size_t>(s.doc)]);
      }
      s.start_s = seconds_between(start, sent);
      s.latency_ms = ms_between(sent, Clock::now());
      out.push_back(s);
    }
  });
}

/// Open loop: Poisson arrivals at `rate` for `seconds`. Each connection
/// takes the next arrival, waits for its due time, sends it and reads the
/// reply, so a stall also delays the arrivals queued behind it; latency
/// counts from the due time.
std::vector<Sample> run_open_loop(std::vector<svc::Client>& clients,
                                  const std::vector<Doc>& docs,
                                  std::uint64_t stream, int advise_docs,
                                  double rate, double seconds) {
  hepex::util::Rng rng(stream);
  std::vector<double> due;
  for (double t = rng.exponential(1.0 / rate); t < seconds;
       t += rng.exponential(1.0 / rate)) {
    due.push_back(t);
  }
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const int total = static_cast<int>(docs.size());
  return on_every_client(clients.size(), [&](std::size_t w,
                                             std::vector<Sample>& out) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= due.size()) return;
      const auto at = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(due[i]));
      std::this_thread::sleep_until(at);
      Sample s;
      s.doc = doc_of(stream, i, advise_docs, total);
      const auto sent = Clock::now();
      s.ok = exchange(clients[w], docs[static_cast<std::size_t>(s.doc)]);
      s.start_s = due[i];
      s.latency_ms = ms_between(at, Clock::now());
      s.lateness_ms = ms_between(at, sent);
      out.push_back(s);
    }
  });
}

// --- daemon session --------------------------------------------------------

/// A `ping` or `stats` request (no scenario); its id is the method name.
svc::Request bare_request(const char* method) {
  svc::Request req;
  req.id = method;
  req.method = method;
  return req;
}

struct Stats {
  double hits = 0.0;
  double misses = 0.0;
  double high_water = 0.0;
};

Stats scrape_stats(svc::Client& client) {
  const svc::Response resp = client.call(bare_request("stats"), kTimeoutMs);
  if (!resp.ok) throw std::runtime_error("stats failed: " + resp.message);
  auto num = [&](const char* section, const char* key) {
    const json::Value* s = resp.result.find(section);
    const json::Value* v = s == nullptr ? nullptr : s->find(key);
    return v == nullptr ? -1.0 : v->as_number();
  };
  return Stats{num("advisors", "hits"), num("advisors", "misses"),
               num("queue", "high_water")};
}

/// A started, warmed daemon with the load generator's connections.
struct Session {
  std::unique_ptr<Daemon> daemon;
  std::vector<svc::Client> clients;
  Stats warm;
};

/// Set-up: start hepexd, wait for ping, warm every advise fingerprint and
/// check the warm responses, scrape stats. Counts warm-up mismatches.
Session start_session(const Args& a, const std::string& sock,
                      const std::vector<Doc>& docs, Result& r) {
  Session s;
  s.daemon = std::make_unique<Daemon>(a, sock);
  for (int k = 0; k < a.connections; ++k) {
    s.clients.push_back(svc::Client::connect_unix_socket(sock));
  }
  if (!s.clients[0].call(bare_request("ping"), kTimeoutMs).ok) {
    throw std::runtime_error("hepexd does not answer ping");
  }
  for (const Doc& d : docs) {
    if (!d.advise) continue;
    r.record(exchange(s.clients[0], d),
             "warm-up advise response differs from the library's");
  }
  s.warm = scrape_stats(s.clients[0]);
  return s;
}

/// Round trips (ms) of `count` back-to-back `Client::call`s of `req`.
std::vector<double> probe_rtts(svc::Client& client, const svc::Request& req,
                               int count, Result& r) {
  std::vector<double> out;
  for (int k = 0; k < count; ++k) {
    const auto t0 = Clock::now();
    const svc::Response resp = client.call(req, kTimeoutMs);
    out.push_back(ms_between(t0, Clock::now()));
    r.record(resp.ok, "probe call failed");
  }
  return out;
}

}  // namespace

Result run_service_mix(const Args& args) {
  if (args.hepexd.empty()) throw std::runtime_error("--hepexd is required");
  if (args.connections < 1 || args.service_cpus < 1) {
    throw std::runtime_error("--connections and --service-cpus must be >= 1");
  }
  Result r;
  std::vector<Doc> docs = make_docs(args.seed);
  compute_expected(docs);
  int advise_docs = 0;
  for (const Doc& d : docs) advise_docs += d.advise ? 1 : 0;
  const std::string sock =
      args.work_dir + "/hepexd-" + std::to_string(::getpid()) + ".sock";
  // The daemon and its callers share a fixed set of CPUs: every wake-up
  // between them stays on those CPUs, so the figures follow the request
  // path's cost instead of how fast an idle virtual CPU is woken.
  confine_to_first_cpus(args.service_cpus);

  // Set-up, repeated: every daemon but the last is drained right away.
  std::vector<double> setup_s;
  Session session;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const auto t0 = Clock::now();
    session = start_session(args, sock, docs, r);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    if (k + 1 < kSetupRepeats) {
      session.clients.clear();
      r.record(session.daemon->stop(), "hepexd drain did not exit 0");
    }
  }

  const auto run_start = Clock::now();
  std::vector<double> probe_ping, probe_advise, probe_simulate, library_advise,
      library_simulate;
  SpanRecorder advise_spans, simulate_spans;
  if (args.trace) {
    // Closed-loop probes on one connection: inline ping, then each advise
    // fingerprint and simulate config through Client::call, round robin.
    svc::Client& c = session.clients[0];
    for (int round = 0; round < 8; ++round) {
      const auto p = probe_rtts(c, bare_request("ping"), 40, r);
      probe_ping.insert(probe_ping.end(), p.begin(), p.end());
      for (const Doc& d : docs) {
        auto& into = d.advise ? probe_advise : probe_simulate;
        const auto t = probe_rtts(c, svc::parse_request(d.payload),
                                  d.advise ? 6 : 1, r);
        into.insert(into.end(), t.begin(), t.end());
      }
    }
    // The same requests' library work, in-process.
    std::int64_t op = 0;
    for (int round = 0; round < 8; ++round) {
      for (const Doc& d : docs) {
        for (int k = 0; k < (d.advise ? 6 : 1); ++k) {
          SpanRecorder& rec = d.advise ? advise_spans : simulate_spans;
          rec.begin_op(op++);
          const auto t0 = Clock::now();
          const std::string got = serve_in_process(d, &rec, nullptr);
          (d.advise ? library_advise : library_simulate)
              .push_back(ms_between(t0, Clock::now()));
          r.record(got == d.expected, "in-process payload is not reproducible");
        }
      }
    }
  }

  // The measured closed loop; the traced run splits what time is left
  // between it and an open loop at the nominal rate.
  const double loop_s =
      args.trace
          ? std::max(1.0, (args.seconds -
                           seconds_between(run_start, Clock::now())) / 2.0)
          : args.seconds;
  std::vector<SpanRecorder> recs(args.trace ? session.clients.size() : 0);
  const auto closed =
      run_closed_loop(session.clients, docs, mix64(args.seed ^ 0xc105ed),
                      advise_docs, loop_s, args.trace ? &recs : nullptr);
  std::vector<Sample> open;
  if (args.trace) {
    open = run_open_loop(session.clients, docs, mix64(args.seed ^ 0x0e11),
                         advise_docs, args.rate_rps, loop_s);
  }

  std::vector<double> lat, lat_traced, lat_plain;
  std::vector<std::pair<double, double>> lat_at;
  // Every caller always has one request in flight, so the callers
  // together complete `connections` requests per request-latency second.
  std::vector<RateSample> event_rate, request_rate;
  for (const Sample& s : closed) {
    r.record(s.ok, "response differs from the library's or failed");
    if (!s.ok) continue;
    lat.push_back(s.latency_ms);
    lat_at.emplace_back(s.start_s, s.latency_ms);
    (s.traced ? lat_traced : lat_plain).push_back(s.latency_ms);
    request_rate.push_back({s.start_s, static_cast<double>(args.connections),
                            s.latency_ms / 1e3});
    const Doc& d = docs[static_cast<std::size_t>(s.doc)];
    if (!d.advise) {
      event_rate.push_back({s.start_s, d.events, s.latency_ms / 1e3});
    }
  }
  std::vector<double> open_lat, lateness;
  for (const Sample& s : open) {
    r.record(s.ok, "open-loop response differs from the library's or failed");
    open_lat.push_back(s.ok ? s.latency_ms : 1e9);
    lateness.push_back(s.lateness_ms);
  }
  write_samples_csv(args.work_dir + "/service_mix.ops.csv", lat_at);

  const Stats after = scrape_stats(session.clients[0]);
  const double rss = session.daemon->peak_rss_mb();
  session.clients.clear();
  r.record(session.daemon->stop(), "hepexd drain did not exit 0");
  const double misses = after.misses - session.warm.misses;
  const double hits = after.hits - session.warm.hits;
  if (misses > 0) {
    r.failed += static_cast<std::uint64_t>(misses);
    r.correct = false;
    std::fprintf(stderr, "perfbench: %.0f AdvisorCache misses after warm-up\n",
                 misses);
  }
  std::fprintf(stderr, "perfbench: service_mix %zu closed-loop requests in "
               "%.3f s over %zu connections\n",
               closed.size(), loop_s,
               static_cast<std::size_t>(args.connections));

  if (!args.trace) {
    r.metrics["setup_s"] = median(setup_s);
    r.metrics["p50_ms"] = percentile(lat, 0.50);
    r.metrics["events_per_s"] = median_window_rate(event_rate, kRateWindowS);
    r.metrics["max_rps"] = median_window_rate(request_rate, kRateWindowS);
    r.metrics["rss_mb"] = rss;
    return r;
  }

  const double ping_ms = median(probe_ping);
  const double advise_ms = median(probe_advise);
  const double lib_advise_ms = median(library_advise);
  r.metrics["svc.ping_rtt_ms"] = ping_ms;
  r.metrics["svc.advise_rtt_ms"] = advise_ms;
  r.metrics["svc.advise_rtt_p99_ms"] = percentile(probe_advise, 0.99);
  r.metrics["svc.simulate_rtt_ms"] = median(probe_simulate);
  r.metrics["svc.simulate_rtt_p99_ms"] = percentile(probe_simulate, 0.99);
  r.metrics["svc.library_advise_ms"] = lib_advise_ms;
  r.metrics["svc.library_simulate_ms"] = median(library_simulate);
  r.metrics["svc.handoff_ms"] = advise_ms - ping_ms - lib_advise_ms;
  r.metrics["bench.p90_ms"] = percentile(lat, 0.90);
  r.metrics["svc.closed_loop_p99_ms"] = percentile(lat, 0.99);
  r.metrics["svc.open_loop_p50_ms"] = percentile(open_lat, 0.50);
  r.metrics["svc.open_loop_p99_ms"] = percentile(open_lat, 0.99);
  r.metrics["svc.queue.high_water"] = after.high_water;
  r.metrics["svc.advisor_cache.hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  r.metrics["gen.lateness_p99_ms"] = percentile(lateness, 0.99);
  // Layer times of the warm advise library path; the simulate path adds
  // trace.simulate.
  r.metrics["cfg.load_scenario_ms"] =
      advise_spans.median_ms("cfg.load_scenario");
  r.metrics["obs.report_ms"] = advise_spans.median_ms("obs.report");
  r.metrics["trace.simulate_ms"] = simulate_spans.median_ms("trace.simulate");
  r.metrics["obs.overhead_pct"] = overhead_pct(lat_traced, lat_plain);
  r.metrics["bench.coverage_pct"] = advise_spans.coverage_pct("svc.library");
  bool written =
      advise_spans.write_jsonl(args.work_dir +
                               "/service_mix.library_advise.spans.jsonl") &&
      simulate_spans.write_jsonl(args.work_dir +
                                 "/service_mix.library_simulate.spans.jsonl");
  for (std::size_t w = 0; w < recs.size(); ++w) {
    written = written &&
              recs[w].write_jsonl(args.work_dir + "/service_mix.conn" +
                                  std::to_string(w) + ".spans.jsonl");
  }
  if (!written) std::fprintf(stderr, "perfbench: cannot write the span dump\n");
  return r;
}

}  // namespace perfbench
