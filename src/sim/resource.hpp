#pragma once
/// \file resource.hpp
/// \brief Single-server FCFS queueing stations for the cluster simulator.
///
/// A `Resource` is a single-server first-come-first-served station, the
/// queue the paper models analytically with M/G/1. The memory controller
/// and the messaging stack of each node and the Ethernet switch are
/// Resources; contention — the paper's `T_w,mem` and `T_w,net` — emerges
/// from queueing rather than from a formula, which is what makes model
/// validation against the simulator meaningful. (Multi-server M/M/c
/// stations exist only as reference formulas in tests/sim/test_erlang.cpp.)
///
/// Hot-path design: a 1000-node run holds ~2,000 stations and every
/// simulated memory access or message passes through one, so a station
/// touches few bytes per job. The job in service lives inline in the
/// station, and the station is its own completion event (an owned
/// `sim::Event` scheduled by reference, so no closure is built per job;
/// see event_fn.hpp); waiting jobs are 64-byte records in a `sim::Ring`
/// (grow-only, power-of-two, 2 entries at first); `request` constructs
/// the caller's continuation in place (`SmallFn::emplace`). In steady
/// state a request/complete cycle performs no heap allocation.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "sim/event_fn.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace hepex::sim {

/// A single-server FCFS queueing station with busy-time accounting. A
/// job's wait reaches its continuation and the observer; the station
/// keeps no per-job statistics of its own. A station is its own
/// completion event: with a single server, at most one is pending.
class Resource : private Event {
 public:
  /// Invoked when service completes; receives the time the job spent
  /// waiting in queue before service started. Small-buffer + move-only
  /// (see event_fn.hpp): the engine's completion captures fit the inline
  /// buffer, so submitting a job never heap-allocates.
  using Completion = CompletionFn;

  /// Everything an observer needs to reconstruct one job's life cycle:
  /// queue interval `[arrival_s, start_s]`, service interval
  /// `[start_s, finish_s]`, and the backlog it arrived behind.
  struct JobObservation {
    SimTime arrival_s{};     ///< when request() was called
    SimTime start_s{};       ///< when the server picked the job up
    SimTime finish_s{};      ///< when service completed (== now())
    SimTime service_s{};     ///< requested service time
    SimTime waited_s{};      ///< start_s - arrival_s
    /// Jobs in service or queued ahead at arrival (excluding this one).
    std::size_t depth_at_arrival = 0;
  };

  /// Called once per job, at service completion, before the job's own
  /// completion callback. Observation must be passive: the observer must
  /// not submit new requests from inside the callback. Used by
  /// `hepex::obs` to export per-resource timeline spans and queue-depth
  /// histograms without perturbing the simulation.
  using Observer = std::function<void(const Resource&, const JobObservation&)>;

  /// \param sim  owning simulator (must outlive the resource)
  explicit Resource(Simulator& sim)
      : Event{&Resource::fire_completion, 0}, sim_(sim) {}

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Submit a job needing `service_time` of the server; calls
  /// `on_complete(waited)` when service finishes. `on_complete` is any
  /// `void(SimTime)` callable (or `{}` for none); it is constructed in
  /// place, so the caller's lambda is never moved through a temporary.
  template <typename F = Completion>
  void request(SimTime service_time, F&& on_complete) {
    HEPEX_REQUIRE(service_time >= SimTime{},
                  "service time must be non-negative");
    const auto depth =
        static_cast<std::uint32_t>(ring_.size() + (busy_ ? 1 : 0));
    if (!busy_) {
      cb_.emplace(std::forward<F>(on_complete));
      start(service_time, sim_.now(), depth, SimTime{});
      return;
    }
    Job& job = ring_.push_back();
    job.service = service_time;
    job.arrival = sim_.now();
    job.depth = depth;
    job.cb.emplace(std::forward<F>(on_complete));
  }

  /// Attach (or clear, with an empty function) the per-job observer.
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  /// Jobs currently waiting (not in service).
  std::size_t queue_length() const { return ring_.size(); }
  /// Jobs currently in service (0 or 1).
  int in_service() const { return busy_ ? 1 : 0; }
  /// Total seconds of completed-or-started service.
  SimTime busy_time() const { return busy_time_; }
  /// Mean utilization over [0, now]: busy_time / elapsed.
  double utilization() const;
  /// Jobs fully serviced.
  std::size_t completed() const { return completed_; }

 private:
  /// A waiting job: one 64-byte ring record.
  struct Job {
    SimTime service{};
    SimTime arrival{};
    Completion cb;
    std::uint32_t depth = 0;
  };
  static_assert(sizeof(Job) <= 64, "a queued job fits one cache line");

  void start(SimTime service, SimTime arrival, std::uint32_t depth,
             SimTime waited);
  void complete();
  static void fire_completion(Event& ev) {
    static_cast<Resource&>(ev).complete();
  }

  Simulator& sim_;
  Observer observer_;
  // The job in service (valid while busy_).
  Completion cb_;
  SimTime service_{};
  SimTime arrival_{};
  SimTime started_{};
  SimTime waited_{};
  std::uint32_t depth_ = 0;
  bool busy_ = false;
  Ring<Job> ring_;  ///< waiting jobs
  SimTime busy_time_{};
  std::size_t completed_ = 0;
};

}  // namespace hepex::sim
