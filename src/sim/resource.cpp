#include "sim/resource.hpp"

#include <utility>

namespace hepex::sim {

void Resource::grow() {
  std::vector<Job> bigger(ring_.empty() ? 2 : ring_.size() * 2);
  for (std::uint32_t i = 0; i < count_; ++i) {
    bigger[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
  }
  ring_ = std::move(bigger);
  head_ = 0;
}

void Resource::start(SimTime service, SimTime arrival, std::uint32_t depth,
                     SimTime waited) {
  busy_ = true;
  busy_time_ += service;
  service_ = service;
  arrival_ = arrival;
  // Capture the absolute start now: reconstructing it later as
  // finish - service loses ~0.1 us to cancellation at minute-scale
  // timestamps, enough to make adjacent trace spans appear to overlap.
  started_ = sim_.now();
  waited_ = waited;
  depth_ = depth;
  sim_.schedule(service, [this] { complete(); });
}

void Resource::complete() {
  // Take the finished job out of the station before anything else: the
  // next waiter starts below, in the same inline slot, and its
  // completion must be scheduled before this job's continuation runs
  // (which may itself request() this station).
  Completion cb = std::move(cb_);
  JobObservation obs;
  obs.arrival_s = arrival_;
  obs.start_s = started_;
  obs.service_s = service_;
  obs.waited_s = waited_;
  obs.depth_at_arrival = depth_;
  busy_ = false;
  ++completed_;
  if (count_ != 0) {
    Job& next = ring_[head_];
    head_ = (head_ + 1) & static_cast<std::uint32_t>(ring_.size() - 1);
    --count_;
    cb_ = std::move(next.cb);
    start(next.service, next.arrival, next.depth, sim_.now() - next.arrival);
  }
  if (observer_) {
    obs.finish_s = sim_.now();
    observer_(*this, obs);
  }
  if (cb) cb(obs.waited_s);
}

double Resource::utilization() const {
  const SimTime elapsed = sim_.now();
  if (elapsed <= SimTime{}) return 0.0;
  return busy_time_ / elapsed;
}

}  // namespace hepex::sim
