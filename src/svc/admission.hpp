#pragma once
/// \file admission.hpp
/// \brief FIFO admission gate — hepexd's admission-control point.
///
/// The gate holds no items: each connection thread takes a ticket and
/// runs its own request once the gate says so. Two counters and one line
/// describe everything: tickets started, tickets finished, and the line
/// of tickets not yet started, in issue order, each flagged when its
/// waiter has given up. The gate keeps the line's front live while every
/// slot is busy and the line empty while a slot is free, so
///
///   running = started - finished   (at most `executors`)
///   waiting = live tickets in the line
///
/// and a ticket runs once it is below `started`, i.e. in issue order.
///
/// Load shedding happens here, and only here: `enter` never waits when a
/// run slot is free, and never lets the line grow past its bound; when
/// the line already holds `queue_capacity` tickets, the caller gets
/// `kShed` back immediately and turns it into a `shed` error on the wire
/// (the 429 analogue). That keeps overload failure fast and explicit
/// instead of queueing until memory or client patience runs out.
///
/// Every waiter brings a deadline. If it passes before the ticket's turn,
/// `enter` returns `kExpired` and the ticket departs without ever holding
/// a run slot: `depth()` drops at once, and the line passes over the
/// ticket (counting it started and finished) as soon as it reaches the
/// front, which is at once when no live ticket is ahead of it. A departed
/// ticket behind a live one still takes a place in the line until then,
/// so the line never holds more than `queue_capacity` tickets, however
/// many waiters give up. The tickets behind it keep their order.
///
/// `close` is the graceful-shutdown handshake: further `enter` calls get
/// `kClosed`, while tickets already waiting still run as slots free up.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>

#include "util/thread_annotations.hpp"

namespace hepex::svc {

class AdmissionGate {
 public:
  enum class Entry {
    kRun,      ///< the caller holds a run slot; it must call leave()
    kShed,     ///< the line already holds `queue_capacity` tickets
    kClosed,   ///< close() was called: the daemon is draining
    kExpired,  ///< the deadline passed while the ticket waited
  };
  using Clock = std::chrono::steady_clock;

  /// `executors` and `queue_capacity` must be >= 1.
  AdmissionGate(int executors, std::size_t queue_capacity)
      : executors_(static_cast<std::uint64_t>(executors)),
        capacity_(queue_capacity) {}

  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  /// Take a ticket and wait, in FIFO order, for a run slot. Returns
  /// `kShed` or `kClosed` without waiting, and `kExpired` (holding no
  /// slot) if `deadline` passes before the ticket's turn.
  Entry enter(Clock::time_point deadline) HEPEX_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    if (closed_) return Entry::kClosed;
    if (started_ - finished_ < executors_) {  // a free slot: nobody waits
      ++started_;
      return Entry::kRun;
    }
    if (line_.size() >= capacity_) return Entry::kShed;
    const std::uint64_t ticket = started_ + line_.size();
    line_.push_back(false);
    high_water_ = std::max(high_water_, waiting());
    while (ticket >= started_) {
      if (!turn_.wait_until(mu_, deadline) && ticket >= started_) {
        line_[ticket - started_] = true;
        ++departed_;
        advance();
        return Entry::kExpired;
      }
    }
    return Entry::kRun;
  }

  /// Give back the slot `enter` granted; the oldest live ticket (if any)
  /// takes it.
  void leave() HEPEX_EXCLUDES(mu_) {
    {
      util::MutexLock lock(mu_);
      ++finished_;
      if (line_.empty()) return;
      advance();
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
    return waiting();
  }

  /// Total tickets ever issued (run at once, after a wait, or expired
  /// in the line).
  std::uint64_t admitted() const HEPEX_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return started_ + line_.size();
  }

  /// Deepest wait observed (queue-pressure signal for stats/bench).
  std::uint64_t high_water() const HEPEX_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return high_water_;
  }

 private:
  std::uint64_t waiting() const HEPEX_REQUIRES(mu_) {
    return line_.size() - departed_;
  }

  /// Move the line forward: pass over departed tickets at its front
  /// (each counts as started and finished at once) and start live ones
  /// while a slot is free.
  void advance() HEPEX_REQUIRES(mu_) {
    while (!line_.empty()) {
      if (line_.front()) {
        --departed_;
        ++finished_;
      } else if (started_ - finished_ >= executors_) {
        return;
      }
      line_.pop_front();
      ++started_;
    }
  }

  const std::uint64_t executors_;
  const std::size_t capacity_;
  mutable util::Mutex mu_;
  util::CondVar turn_;
  std::uint64_t started_ HEPEX_GUARDED_BY(mu_) = 0;
  std::uint64_t finished_ HEPEX_GUARDED_BY(mu_) = 0;
  std::uint64_t high_water_ HEPEX_GUARDED_BY(mu_) = 0;
  /// Tickets not yet started, oldest first; true marks a departed one.
  std::deque<bool> line_ HEPEX_GUARDED_BY(mu_);
  std::uint64_t departed_ HEPEX_GUARDED_BY(mu_) = 0;  ///< trues in line_
  bool closed_ HEPEX_GUARDED_BY(mu_) = false;
};

}  // namespace hepex::svc
