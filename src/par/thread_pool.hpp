#pragma once
/// \file thread_pool.hpp
/// \brief Deterministic chunked parallelism for embarrassingly-parallel
///        sweeps (hepex::par).
///
/// Every hot loop HEPEX parallelizes — model sweeps, validation grids,
/// fault Monte-Carlo ensembles — evaluates independent elements whose
/// results land in fixed output slots. `par` exploits exactly that shape
/// and nothing more:
///
///  - *work-stealing-free*: `[0, n)` is split into `min(n, 4 * jobs)`
///    contiguous chunks whose boundaries depend only on `(n, jobs)`. At
///    most `jobs` participants (the caller plus `jobs - 1` workers) claim
///    whole chunks from a shared counter; no element ever migrates
///    between chunks, so there is no scheduler-dependent reassociation.
///    Four chunks per participant let a fast participant take over work
///    a slow one has not reached; a caller whose elements have uneven
///    cost orders them costliest-first so the expensive ones are claimed
///    early and the cheap ones fill in behind.
///  - *bit-deterministic*: element `i` is computed by the same code on
///    the same inputs regardless of thread count, and written to slot
///    `i`. No reductions happen in parallel — callers fold results
///    serially in index order. `parallel_map(xs, f, j)` therefore returns
///    a vector bit-identical to the serial loop for every `j` (pinned by
///    tests/par/test_parallel_determinism.cpp).
///  - *jobs semantics*: `jobs == 0` means "the configured default"
///    (`set_default_jobs`, itself 0 = hardware concurrency; the CLI's
///    `--jobs` flag lands here); `jobs == 1` runs inline on the calling
///    thread without touching the pool.
///
/// Nested parallel regions (a `parallel_for` body calling `parallel_for`)
/// run inline — the pool never deadlocks on itself.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "par/cancel.hpp"
#include "util/thread_annotations.hpp"

namespace hepex::par {

/// Upper bound for any jobs value (also enforced by util::parse_jobs).
inline constexpr int kMaxJobs = 512;

/// max(1, std::thread::hardware_concurrency()).
int hardware_jobs();

/// Map a user-facing jobs value to a worker count: 0 -> hardware_jobs().
/// Throws std::invalid_argument when negative or > kMaxJobs.
int resolve_jobs(int jobs);

/// Process-wide default used when a parallel call passes jobs == 0.
/// `jobs == 0` (the initial state) means hardware concurrency. Set this
/// once at startup (the `--jobs` flag); it is not meant to be raced with
/// running sweeps.
void set_default_jobs(int jobs);

/// The resolved current default (>= 1).
int default_jobs();

/// Fixed-worker thread pool dispatching contiguous index chunks.
///
/// One parallel region runs at a time (concurrent `for_range` calls from
/// distinct threads serialize on an internal mutex). Worker threads are
/// created on demand, up to the largest participant count ever requested
/// minus one, and joined on destruction.
class ThreadPool {
 public:
  using RangeFn = std::function<void(std::size_t begin, std::size_t end)>;

  /// Spawn `workers` threads now (0 = none; the pool grows on demand).
  explicit ThreadPool(int workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads currently spawned (callers participate on top).
  int workers() const HEPEX_EXCLUDES(mu_);

  /// Grow to at least `count` worker threads (capped at kMaxJobs).
  void ensure_workers(int count) HEPEX_EXCLUDES(mu_);

  /// Run `fn(begin, end)` over [0, n) split into `chunks` contiguous
  /// ranges (clamped to [1, n]), claimed by at most `participants`
  /// threads (clamped to [1, chunks]): the caller plus up to
  /// `participants - 1` workers, so the pool never grows past that. The
  /// call returns when every chunk completed. The first exception thrown
  /// by any chunk is rethrown here after the region drains.
  void for_range(std::size_t n, int chunks, int participants,
                 const RangeFn& fn) HEPEX_EXCLUDES(mu_, dispatch_mu_);

  /// The process-wide pool used by parallel_for / parallel_map.
  static ThreadPool& global();

  /// True on a pool worker thread (nested regions run inline).
  static bool in_worker();

 private:
  struct Task {
    std::size_t n = 0;
    int chunks = 0;
    const RangeFn* fn = nullptr;
    std::atomic<int> seats{0};      // worker places left in the region
    std::atomic<int> next{0};       // next chunk index to claim
    std::atomic<int> remaining{0};  // chunks not yet completed
    util::Mutex error_mu;
    std::exception_ptr error HEPEX_GUARDED_BY(error_mu);
  };

  void worker_loop() HEPEX_EXCLUDES(mu_);
  void run_chunks(Task& task) HEPEX_EXCLUDES(mu_);

  /// Guards task_ publication and the worker vector; acquired before
  /// nothing (leaf lock — dispatch_mu_ is always taken first).
  mutable util::Mutex mu_ HEPEX_ACQUIRED_AFTER(dispatch_mu_);
  util::CondVar work_cv_;
  util::CondVar done_cv_;
  std::shared_ptr<Task> task_ HEPEX_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_ HEPEX_GUARDED_BY(mu_);
  util::Mutex dispatch_mu_;         // one parallel region at a time
};

namespace detail {
/// Chunks per participant in parallel_for (see the file comment).
inline constexpr std::size_t kChunksPerJob = 4;
}  // namespace detail

/// Apply `fn(i)` for every i in [0, n) on `jobs` participants (0 = default,
/// 1 = inline) claiming `min(n, 4 * jobs)` chunks. Deterministic:
/// identical per-element computation at any job count.
///
/// Cooperative cancellation (par/cancel.hpp): when the calling thread has
/// an active CancelToken, the region re-installs it on every worker and
/// checks it at chunk entry and between elements; a cancelled token makes
/// the region throw par::Cancelled after draining. Without a token the
/// loop is byte-for-byte the historical one.
template <typename F>
void parallel_for(std::size_t n, F&& fn, int jobs = 0) {
  if (n == 0) return;
  const auto resolved = static_cast<std::size_t>(resolve_jobs(jobs));
  const CancelToken* tok = current_cancel_token();
  if (resolved == 1 || n == 1 || ThreadPool::in_worker()) {
    if (tok == nullptr) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (tok->cancelled()) throw Cancelled{};
      fn(i);
    }
    return;
  }
  const ThreadPool::RangeFn body = [&fn, tok](std::size_t begin,
                                              std::size_t end) {
    if (tok == nullptr) {
      for (std::size_t i = begin; i < end; ++i) fn(i);
      return;
    }
    // Workers have their own thread-local scope: re-install the caller's
    // token so nested inline regions and check_cancel() observe it.
    CancelScope scope(tok);
    for (std::size_t i = begin; i < end; ++i) {
      if (tok->cancelled()) throw Cancelled{};
      fn(i);
    }
  };
  ThreadPool::global().for_range(
      n, static_cast<int>(std::min(n, detail::kChunksPerJob * resolved)),
      static_cast<int>(resolved), body);
}

/// Map `fn` over `in` with stable result ordering: out[i] = fn(in[i]).
/// The result type must be default-constructible and assignable.
template <typename T, typename F>
auto parallel_map(const std::vector<T>& in, F&& fn, int jobs = 0)
    -> std::vector<std::decay_t<std::invoke_result_t<F&, const T&>>> {
  using R = std::decay_t<std::invoke_result_t<F&, const T&>>;
  static_assert(std::is_default_constructible_v<R>,
                "parallel_map results must be default-constructible");
  std::vector<R> out(in.size());
  parallel_for(
      in.size(), [&](std::size_t i) { out[i] = fn(in[i]); }, jobs);
  return out;
}

}  // namespace hepex::par
