#include "par/thread_pool.hpp"
#include "util/error.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace hepex::par {

namespace {

std::atomic<int> g_default_jobs{0};  // 0 = hardware concurrency

thread_local bool t_in_worker = false;

// Workers poll the epoch this many iterations before blocking on the
// condition variable; back-to-back sweeps (the common bench/advisor
// pattern) then dispatch without a futex round-trip. Kept modest so an
// oversubscribed machine is not starved by spinning.
constexpr int kSpinIters = 1024;

}  // namespace

int hardware_jobs() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

int resolve_jobs(int jobs) {
  if (jobs < 0 || jobs > kMaxJobs) {
    fail_require("jobs must be in [0, " + std::to_string(kMaxJobs) +
                 "], got " + std::to_string(jobs));
  }
  if (jobs == 0) {
    const int d = g_default_jobs.load(std::memory_order_relaxed);
    return d == 0 ? hardware_jobs() : d;
  }
  return jobs;
}

void set_default_jobs(int jobs) {
  if (jobs < 0 || jobs > kMaxJobs) {
    fail_require("default jobs must be in [0, " +
                 std::to_string(kMaxJobs) + "], got " +
                 std::to_string(jobs));
  }
  g_default_jobs.store(jobs, std::memory_order_relaxed);
}

int default_jobs() { return resolve_jobs(0); }

ThreadPool::ThreadPool(int workers) {
  if (workers > 0) ensure_workers(workers);
}

ThreadPool::~ThreadPool() {
  // Move the worker vector out under the lock, then join outside it —
  // workers take mu_ on wakeup, so joining under it would deadlock.
  std::vector<std::thread> joiners;
  {
    util::MutexLock lk(mu_);
    stop_.store(true, std::memory_order_relaxed);
    joiners.swap(threads_);
  }
  work_cv_.notify_all();
  for (auto& t : joiners) t.join();
}

int ThreadPool::workers() const {
  util::MutexLock lk(mu_);
  return static_cast<int>(threads_.size());
}

void ThreadPool::ensure_workers(int count) {
  count = std::min(count, kMaxJobs);
  util::MutexLock lk(mu_);
  while (static_cast<int>(threads_.size()) < count) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

void ThreadPool::for_range(std::size_t n, int chunks, int participants,
                           const RangeFn& fn) {
  if (n == 0) return;
  chunks = static_cast<int>(std::clamp<std::size_t>(
      static_cast<std::size_t>(std::max(chunks, 1)), 1, n));
  participants = std::clamp(participants, 1, chunks);
  if (participants == 1 || t_in_worker) {
    fn(0, n);
    return;
  }
  ensure_workers(participants - 1);

  util::MutexLock region(dispatch_mu_);
  auto task = std::make_shared<Task>();
  task->n = n;
  task->chunks = chunks;
  task->fn = &fn;
  task->seats.store(participants - 1, std::memory_order_relaxed);
  task->remaining.store(chunks, std::memory_order_relaxed);
  {
    util::MutexLock lk(mu_);
    task_ = task;
    epoch_.fetch_add(1, std::memory_order_release);
  }
  work_cv_.notify_all();

  // The caller is a participant. While it runs chunks it counts as
  // "inside a region": a nested parallel_for in the body must inline
  // rather than re-enter the dispatch lock this frame already holds.
  t_in_worker = true;
  run_chunks(*task);
  t_in_worker = false;

  {
    util::MutexLock lk(mu_);
    while (task->remaining.load(std::memory_order_acquire) != 0) {
      done_cv_.wait(mu_);
    }
    task_.reset();
  }
  // The region has drained, but the analysis (rightly) wants the lock
  // that guards `error` — it costs one uncontended acquire per region.
  // Move the exception out: a worker may still hold the last reference
  // to the task, and the exception must not be released on that thread
  // while this one handles it.
  std::exception_ptr error;
  {
    util::MutexLock lk(task->error_mu);
    error = std::move(task->error);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::run_chunks(Task& task) {
  // Chunk boundaries depend only on (n, chunks): chunk c covers
  // [c*per + min(c, extra), ...) with the first `extra` chunks one wider.
  const std::size_t per = task.n / static_cast<std::size_t>(task.chunks);
  const std::size_t extra = task.n % static_cast<std::size_t>(task.chunks);
  for (;;) {
    const int c = task.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= task.chunks) return;
    const auto uc = static_cast<std::size_t>(c);
    const std::size_t begin = uc * per + std::min(uc, extra);
    const std::size_t end = begin + per + (uc < extra ? 1 : 0);
    try {
      (*task.fn)(begin, end);
    } catch (...) {
      util::MutexLock lk(task.error_mu);
      if (!task.error) task.error = std::current_exception();
    }
    if (task.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      util::MutexLock lk(mu_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  t_in_worker = true;
  std::uint64_t seen = 0;
  for (;;) {
    // Short spin keeps repeated sweeps from paying a wakeup per region.
    for (int i = 0; i < kSpinIters; ++i) {
      if (epoch_.load(std::memory_order_acquire) != seen ||
          stop_.load(std::memory_order_relaxed)) {
        break;
      }
      if ((i & 63) == 63) std::this_thread::yield();
    }
    std::shared_ptr<Task> task;
    {
      util::MutexLock lk(mu_);
      while (!stop_.load(std::memory_order_relaxed) &&
             epoch_.load(std::memory_order_relaxed) == seen) {
        work_cv_.wait(mu_);
      }
      if (stop_.load(std::memory_order_relaxed)) return;
      seen = epoch_.load(std::memory_order_relaxed);
      task = task_;
    }
    // A pool grown by an earlier, wider region has more workers than this
    // region has seats; the surplus goes back to waiting.
    if (task && task->seats.fetch_sub(1, std::memory_order_relaxed) > 0) {
      run_chunks(*task);
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

bool ThreadPool::in_worker() { return t_in_worker; }

}  // namespace hepex::par
