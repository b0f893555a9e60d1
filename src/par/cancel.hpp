#pragma once
/// \file cancel.hpp
/// \brief Cooperative cancellation for parallel sweeps (hepex::par).
///
/// A `CancelToken` is a one-way latch, flipped by `cancel()` from any
/// thread or by its own deadline passing; work observes it
/// *cooperatively* — nothing is interrupted, no thread is killed. The
/// contract mirrors how `hepexd` uses it (docs/service.md):
///
///  - the owner of a piece of work (a service request handler) creates a
///    token, with the request's deadline, and installs it on its thread
///    with a `CancelScope`;
///  - every `parallel_for`/`parallel_map` under that scope re-installs
///    the token on the workers executing its chunks and checks it at
///    chunk entry and between elements;
///  - the simulator's iteration loop calls `check_cancel()` once per
///    simulated iteration, so single long runs abandon too;
///  - once the deadline has passed (or someone calls `token.cancel()`),
///    the next check throws `par::Cancelled`, which drains the parallel
///    region and propagates to the scope owner like any first exception.
///    No thread watches the clock: the checkpoints read it.
///
/// Determinism is untouched: a sweep that is *not* cancelled performs
/// exactly the per-element computation it always did (the checks read one
/// relaxed atomic, plus the clock when a deadline is set, and branch),
/// and a cancelled sweep produces no result at all — there is no
/// partial-result path.

#include <atomic>
#include <chrono>
#include <stdexcept>

namespace hepex::par {

/// One-way cancellation latch with an optional deadline. Thread-safe;
/// `cancel()` may race with any number of `cancelled()` readers.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// No deadline: cancelled only by `cancel()`.
  CancelToken() = default;
  /// Cancelled by `cancel()` or once `Clock::now()` reaches `deadline`.
  explicit CancelToken(Clock::time_point deadline) noexcept
      : deadline_(deadline), has_deadline_(true) {}

  void cancel() noexcept { flag_.store(true, std::memory_order_relaxed); }
  /// One relaxed load without a deadline; with one, also a clock read.
  bool cancelled() const noexcept {
    return flag_.load(std::memory_order_relaxed) ||
           (has_deadline_ && Clock::now() >= deadline_);
  }

 private:
  std::atomic<bool> flag_{false};
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
};

/// Thrown (from the cooperating thread itself) when the active token has
/// been cancelled. Derives from std::runtime_error: cancellation is an
/// environment outcome, not a caller mistake or an internal bug.
class Cancelled : public std::runtime_error {
 public:
  Cancelled() : std::runtime_error("hepex: work cancelled") {}
};

/// The calling thread's active token; nullptr outside any CancelScope.
const CancelToken* current_cancel_token() noexcept;

/// Throw `Cancelled` when the calling thread's active token (if any) has
/// been cancelled or is past its deadline. The cheap cooperative
/// checkpoint: one relaxed load when the token has no deadline.
void check_cancel();

/// RAII installer: makes `token` the calling thread's active token for
/// the scope's lifetime, restoring the previous one on exit (scopes
/// nest; the innermost token wins). Passing nullptr masks an outer scope.
class CancelScope {
 public:
  explicit CancelScope(const CancelToken* token) noexcept;
  ~CancelScope();

  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  const CancelToken* prev_;
};

}  // namespace hepex::par
