#pragma once
/// \file resource.hpp
/// \brief FCFS queueing resources for the cluster simulator.
///
/// A `Resource` is a k-server first-come-first-served station (k = 1 gives
/// the single-server queue the paper models analytically with M/G/1). The
/// memory controller of each node and the Ethernet switch are Resources;
/// contention — the paper's `T_w,mem` and `T_w,net` — emerges from queueing
/// rather than from a formula, which is what makes model validation against
/// the simulator meaningful.
///
/// Hot-path design: completions are `sim::CompletionFn` (small-buffer, see
/// event_fn.hpp), jobs in service live in a recycled slab so the scheduled
/// completion event captures only `{resource, slot}` — two words, always
/// inline — and the waiting queue is a grow-only ring buffer. In steady
/// state a request/complete cycle performs no heap allocation.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/simulator.hpp"
#include "util/statistics.hpp"

namespace hepex::sim {

/// A k-server FCFS queueing station with busy-time and waiting accounting.
class Resource {
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
    SimTime start_s{};       ///< when a server picked the job up
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

  /// \param sim      owning simulator (must outlive the resource)
  /// \param name     diagnostic name
  /// \param servers  number of parallel servers (>= 1)
  Resource(Simulator& sim, std::string name, int servers = 1);

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Submit a job needing `service_time` of one server; calls
  /// `on_complete` when service finishes.
  void request(SimTime service_time, Completion on_complete);

  /// Attach (or clear, with an empty function) the per-job observer.
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  /// Station name.
  const std::string& name() const { return name_; }
  /// Number of servers.
  int servers() const { return servers_; }
  /// Jobs currently waiting (not in service).
  std::size_t queue_length() const { return waiting_.size(); }
  /// Jobs currently in service.
  int in_service() const { return busy_; }
  /// Total server-seconds of completed-or-started service.
  SimTime busy_time() const { return busy_time_; }
  /// Mean utilization over [0, now]: busy_time / (servers * elapsed).
  double utilization() const;
  /// Per-job waiting time statistics (time in queue, excluding service).
  const util::Summary& wait_stats() const { return wait_stats_; }
  /// Per-job service time statistics.
  const util::Summary& service_stats() const { return service_stats_; }
  /// Jobs fully serviced.
  std::size_t completed() const { return completed_; }

 private:
  struct Job {
    SimTime service_time{};
    SimTime arrival{};
    std::size_t depth_at_arrival = 0;
    Completion on_complete;
  };

  /// A job occupying a server, parked in the slab until its completion
  /// event (which captures only the slab index) fires.
  struct InService {
    SimTime waited{};
    SimTime service{};
    SimTime arrival{};
    SimTime started{};
    std::size_t depth = 0;
    Completion cb;
  };

  /// Grow-only FIFO ring of waiting jobs: push/pop recycle a power-of-two
  /// buffer, so steady-state queueing allocates nothing (a std::deque
  /// allocates and frees map chunks as the queue breathes).
  class JobRing {
   public:
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }
    void push_back(Job&& job);
    Job pop_front();

   private:
    void grow();

    std::vector<Job> buf_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };

  void start(SimTime service, SimTime arrival, std::size_t depth,
             SimTime waited, Completion cb);
  void complete(std::uint32_t slot);

  Simulator& sim_;
  std::string name_;
  int servers_;
  int busy_ = 0;
  SimTime busy_time_{};
  std::size_t completed_ = 0;
  JobRing waiting_;
  std::vector<InService> slab_;
  std::vector<std::uint32_t> free_slots_;
  util::Summary wait_stats_;
  util::Summary service_stats_;
  Observer observer_;
};

}  // namespace hepex::sim
