#pragma once
/// \file thread_annotations.hpp
/// \brief Clang thread-safety annotations + capability-annotated
///        synchronization primitives (docs/static-analysis.md).
///
/// TSan (the `-DHEPEX_TSAN=ON` tree) can only report a race on the
/// interleavings a test happens to execute. Clang's `-Wthread-safety`
/// analysis is the complementary *static* wall: every piece of shared
/// state is annotated with the lock that guards it, and any access that
/// cannot be proven to hold that lock fails the build — on every
/// interleaving, including the ones no test reaches. The
/// `-DHEPEX_THREAD_SAFETY=ON` CMake option (clang only) turns violations
/// into hard errors; under GCC/MSVC every macro below expands to nothing
/// and the wrappers are zero-cost pass-throughs.
///
/// Conventions (enforced across src/par, src/svc, src/obs):
///  - shared mutable members carry `HEPEX_GUARDED_BY(mu_)`;
///  - private helpers that assume a held lock carry `HEPEX_REQUIRES(mu_)`;
///  - public entry points that take a lock internally carry
///    `HEPEX_EXCLUDES(mu_)` so self-deadlocks are compile errors;
///  - locks are `util::Mutex` acquired through `util::MutexLock` (the
///    scoped capability the analysis understands); condition waits go
///    through `util::CondVar::wait(Mutex&)` (or `wait_until`) with an
///    explicit `while` loop around the wait instead of a predicate
///    lambda, so the predicate's guarded reads stay inside the locked
///    scope the analysis can see.
///
/// Locks whose lifetime crosses a function boundary (for example the
/// per-entry lease lock in `svc::AdvisorCache`, carried by a movable
/// `std::unique_lock`) are outside what the function-local analysis can
/// model; those stay on `std::mutex` with the ownership transfer
/// documented at the declaration instead of annotated.

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__) && !defined(SWIG)
#define HEPEX_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define HEPEX_THREAD_ANNOTATION__(x)  // no-op outside clang
#endif

/// Class attribute: the type is a lockable capability ("mutex").
#define HEPEX_CAPABILITY(x) HEPEX_THREAD_ANNOTATION__(capability(x))

/// Class attribute: RAII object that acquires on construction and
/// releases on destruction (lock guards).
#define HEPEX_SCOPED_CAPABILITY HEPEX_THREAD_ANNOTATION__(scoped_lockable)

/// Member attribute: reads and writes require holding the given lock.
#define HEPEX_GUARDED_BY(x) HEPEX_THREAD_ANNOTATION__(guarded_by(x))

/// Member attribute (pointers): the pointee is guarded by the given lock.
#define HEPEX_PT_GUARDED_BY(x) HEPEX_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Function attribute: caller must hold the lock(s) exclusively.
#define HEPEX_REQUIRES(...) \
  HEPEX_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// Function attribute: caller must hold the lock(s) at least shared.
#define HEPEX_REQUIRES_SHARED(...) \
  HEPEX_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/// Function attribute: acquires the lock(s); caller must not hold them.
#define HEPEX_ACQUIRE(...) \
  HEPEX_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// Function attribute: releases the lock(s); caller must hold them.
#define HEPEX_RELEASE(...) \
  HEPEX_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// Function attribute: acquires on a `true` return (try_lock).
#define HEPEX_TRY_ACQUIRE(...) \
  HEPEX_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

/// Function attribute: caller must NOT hold the lock(s) — the function
/// acquires them itself (self-deadlock becomes a compile error).
#define HEPEX_EXCLUDES(...) \
  HEPEX_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Function attribute: the return value is the given capability.
#define HEPEX_RETURN_CAPABILITY(x) \
  HEPEX_THREAD_ANNOTATION__(lock_returned(x))

/// Lock-order attributes for deadlock-freedom documentation.
#define HEPEX_ACQUIRED_BEFORE(...) \
  HEPEX_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define HEPEX_ACQUIRED_AFTER(...) \
  HEPEX_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

/// Escape hatch — NOT used in src/par or src/svc (the acceptance gate
/// keeps those trees escape-free); reserved for generated or
/// third-party-shaped code where the analysis cannot apply.
#define HEPEX_NO_THREAD_SAFETY_ANALYSIS \
  HEPEX_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace hepex::util {

/// `std::mutex` with the capability annotation the analysis needs. A
/// zero-cost wrapper: every member is a direct delegation.
class HEPEX_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() HEPEX_ACQUIRE() { mu_.lock(); }
  void unlock() HEPEX_RELEASE() { mu_.unlock(); }
  bool try_lock() HEPEX_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// Scoped lock for `Mutex` — the annotated `std::lock_guard` analogue.
/// (The standard guards are not capability-annotated on libstdc++, so
/// locking through them is invisible to the analysis.)
class HEPEX_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) HEPEX_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() HEPEX_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to `Mutex`. `wait` is annotated with the
/// lock requirement, so forgetting the lock around a wait is a compile
/// error. Use an explicit `while (!condition) cv.wait(mu);` loop — the
/// guarded reads in the condition then sit inside the locked scope the
/// analysis verifies (a predicate lambda would be analyzed as a separate
/// unlocked function).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release `mu`, sleep, and re-acquire before returning.
  /// Spurious wakeups happen: always wrap in a condition loop.
  void wait(Mutex& mu) HEPEX_REQUIRES(mu) { cv_.wait(mu); }

  /// `wait` that gives up at `deadline`: returns false once the deadline
  /// has passed (the condition may still have become true; re-check it).
  template <typename Clock, typename Duration>
  bool wait_until(Mutex& mu,
                  const std::chrono::time_point<Clock, Duration>& deadline)
      HEPEX_REQUIRES(mu) {
    return cv_.wait_until(mu, deadline) == std::cv_status::no_timeout;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  // condition_variable_any waits on any BasicLockable — including the
  // annotated Mutex directly, which keeps the unlock/relock inside the
  // standard library where the analysis does not look.
  std::condition_variable_any cv_;
};

}  // namespace hepex::util
