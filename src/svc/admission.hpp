#pragma once
/// \file admission.hpp
/// \brief FIFO admission gate — hepexd's admission-control point.
///
/// The gate holds no items: each connection thread takes a ticket and
/// runs its own request once the gate says so. Three counters describe
/// everything — tickets issued, tickets started and tickets finished —
/// and the gate keeps `started == min(issued, finished + executors)`, so
///
///   running = started - finished   (at most `executors`)
///   waiting = issued - started     (at most `queue_capacity`)
///
/// and a ticket runs once it is below `started`, i.e. in issue order.
///
/// Load shedding happens here, and only here: `enter` never waits when a
/// run slot is free, and never lets the wait grow past its bound; when
/// `queue_capacity` requests already wait, the caller gets `kShed` back
/// immediately and turns it into a `shed` error on the wire (the 429
/// analogue). That keeps overload failure fast and explicit instead of
/// queueing until memory or client patience runs out.
///
/// `close` is the graceful-shutdown handshake: further `enter` calls get
/// `kClosed`, while tickets already waiting still run as slots free up.

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "util/thread_annotations.hpp"

namespace hepex::svc {

class AdmissionGate {
 public:
  enum class Entry {
    kRun,     ///< the caller holds a run slot; it must call leave()
    kShed,    ///< `queue_capacity` requests already wait
    kClosed,  ///< close() was called: the daemon is draining
  };

  /// `executors` and `queue_capacity` must be >= 1.
  AdmissionGate(int executors, std::size_t queue_capacity)
      : executors_(static_cast<std::uint64_t>(executors)),
        capacity_(queue_capacity) {}

  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  /// Take a ticket and wait, in FIFO order, for a run slot. Returns
  /// `kShed` or `kClosed` without waiting.
  Entry enter() HEPEX_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    if (closed_) return Entry::kClosed;
    if (started_ - finished_ < executors_) {  // a free slot: nobody waits
      ++issued_;
      ++started_;
      return Entry::kRun;
    }
    if (issued_ - started_ >= capacity_) return Entry::kShed;
    const std::uint64_t ticket = issued_++;
    high_water_ = std::max(high_water_, issued_ - started_);
    while (ticket >= started_) turn_.wait(mu_);
    return Entry::kRun;
  }

  /// Give back the slot `enter` granted; the oldest waiting ticket (if
  /// any) takes it.
  void leave() HEPEX_EXCLUDES(mu_) {
    {
      util::MutexLock lock(mu_);
      ++finished_;
      if (started_ == issued_) return;
      ++started_;
    }
    turn_.notify_all();
  }

  /// Refuse new tickets; tickets already waiting still run. Idempotent.
  void close() HEPEX_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    closed_ = true;
  }

  std::size_t capacity() const { return capacity_; }

  /// Requests waiting for a run slot right now.
  std::uint64_t depth() const HEPEX_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return issued_ - started_;
  }

  /// Total requests ever admitted (run at once or after a wait).
  std::uint64_t admitted() const HEPEX_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return issued_;
  }

  /// Deepest wait observed (queue-pressure signal for stats/bench).
  std::uint64_t high_water() const HEPEX_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return high_water_;
  }

 private:
  const std::uint64_t executors_;
  const std::size_t capacity_;
  mutable util::Mutex mu_;
  util::CondVar turn_;
  std::uint64_t issued_ HEPEX_GUARDED_BY(mu_) = 0;
  std::uint64_t started_ HEPEX_GUARDED_BY(mu_) = 0;
  std::uint64_t finished_ HEPEX_GUARDED_BY(mu_) = 0;
  std::uint64_t high_water_ HEPEX_GUARDED_BY(mu_) = 0;
  bool closed_ HEPEX_GUARDED_BY(mu_) = false;
};

}  // namespace hepex::svc
