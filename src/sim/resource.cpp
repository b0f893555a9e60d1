#include "sim/resource.hpp"

#include <string>
#include <utility>

#include "util/error.hpp"

namespace hepex::sim {

// ---------------------------------------------------------------------------
// Resource::JobRing

void Resource::JobRing::grow() {
  const std::size_t cap = buf_.empty() ? 8 : buf_.size() * 2;
  std::vector<Job> bigger(cap);
  for (std::size_t i = 0; i < count_; ++i) {
    bigger[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
  }
  buf_ = std::move(bigger);
  head_ = 0;
}

void Resource::JobRing::push_back(Job&& job) {
  if (count_ == buf_.size()) grow();
  buf_[(head_ + count_) & (buf_.size() - 1)] = std::move(job);
  ++count_;
}

Resource::Job Resource::JobRing::pop_front() {
  Job job = std::move(buf_[head_]);
  head_ = (head_ + 1) & (buf_.size() - 1);
  --count_;
  return job;
}

// ---------------------------------------------------------------------------
// Resource

Resource::Resource(Simulator& sim, std::string name, int servers)
    : sim_(sim), name_(std::move(name)), servers_(servers) {
  HEPEX_REQUIRE(servers >= 1, "resource needs at least one server");
}

void Resource::request(SimTime service_time, Completion on_complete) {
  HEPEX_REQUIRE(service_time >= SimTime{}, "service time must be non-negative");
  const std::size_t depth =
      waiting_.size() + static_cast<std::size_t>(busy_);
  if (busy_ < servers_) {
    // Idle-server fast path: the callback moves straight from the
    // caller's argument into the slab, never through a queued Job.
    wait_stats_.add(0.0);
    start(service_time, sim_.now(), depth, SimTime{},
          std::move(on_complete));
  } else {
    waiting_.push_back(
        Job{service_time, sim_.now(), depth, std::move(on_complete)});
  }
}

void Resource::start(SimTime service, SimTime arrival, std::size_t depth,
                     SimTime waited, Completion cb) {
  ++busy_;
  busy_time_ += service;
  service_stats_.add(service.value());
  // Park the job in the slab; the completion event captures only
  // {this, slot} — two words, always inline in an EventFn — so scheduling
  // a completion never heap-allocates, whatever the caller's continuation
  // captured.
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  InService& in = slab_[slot];
  in.waited = waited;
  in.service = service;
  in.arrival = arrival;
  // Capture the absolute start now: reconstructing it later as
  // finish - service loses ~0.1 us to cancellation at minute-scale
  // timestamps, enough to make adjacent trace spans appear to overlap.
  in.started = sim_.now();
  in.depth = depth;
  in.cb = std::move(cb);
  sim_.schedule(service, [this, slot] { complete(slot); });
}

void Resource::complete(std::uint32_t slot) {
  // Move the job out before anything else: dispatching the next waiter
  // below may reuse (or reallocate) the slab.
  InService job = std::move(slab_[slot]);
  free_slots_.push_back(slot);
  --busy_;
  ++completed_;
  if (!waiting_.empty()) {
    Job next = waiting_.pop_front();
    const SimTime w = sim_.now() - next.arrival;
    wait_stats_.add(w.value());
    start(next.service_time, next.arrival, next.depth_at_arrival, w,
          std::move(next.on_complete));
  }
  if (observer_) {
    JobObservation obs;
    obs.arrival_s = job.arrival;
    obs.finish_s = sim_.now();
    obs.start_s = job.started;
    obs.service_s = job.service;
    obs.waited_s = job.waited;
    obs.depth_at_arrival = job.depth;
    observer_(*this, obs);
  }
  if (job.cb) job.cb(job.waited);
}

double Resource::utilization() const {
  const SimTime elapsed = sim_.now();
  if (elapsed <= SimTime{}) return 0.0;
  return busy_time_ / (static_cast<double>(servers_) * elapsed);
}

}  // namespace hepex::sim
