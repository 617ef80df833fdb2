// Fixed-size thread pool and the one deterministic dispatch built on it.
//
// Every sweep in the library (figure points, SweepRunner specs,
// PopulationEngine flow chunks) runs through parallel_for_chunks: work items
// are indexed [0, n) and handed out in grain-aligned runs via an atomic
// cursor (self-balancing for uneven item costs). Each item derives its own
// RNG substream from its index (see util/rng.hpp), so the *schedule* is free
// to be dynamic while results stay independent of thread count. The body
// receives (slot, begin, end); `slot` identifies the executing task (stable
// for that task's whole drain loop), so callers keep per-slot scratch —
// engines, spec copies, partial reductions — alive across every chunk the
// task claims; callers fold the per-chunk partials in chunk order, so the
// result never depends on the schedule. A one-worker pool runs every chunk
// inline, in order, on the caller — that IS the serial reference schedule.
//
// Dispatch is nested-dispatch safe: a call issued from inside a task of the
// SAME pool runs inline on that worker (waiting on the pool from one of its
// own tasks would deadlock — the waiting task itself counts as in flight).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace linkpad::util {

/// A simple fixed-size worker pool executing std::function tasks.
class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task for asynchronous execution.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished executing. Must not be
  /// called from a task of THIS pool (the caller is still in flight).
  void wait_idle();

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers — the test
  /// parallel dispatch uses to run nested calls inline instead of
  /// deadlocking in wait_idle.
  [[nodiscard]] bool on_worker_thread() const;

  /// Process-wide shared pool (lazily constructed).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Runs fn(pool) on the pool a `threads` knob names: 0 = the process-wide
/// shared pool, otherwise a dedicated pool of that many workers living for
/// the call. Results never depend on the choice — it sizes the schedule.
template <typename Fn>
void with_pool(std::size_t threads, Fn&& fn) {
  if (threads == 0) {
    fn(ThreadPool::global());
    return;
  }
  ThreadPool pool(threads);
  fn(pool);
}

/// Upper bound on the `slot` values parallel_for_chunks passes for a given
/// dispatch — size per-slot scratch arrays with this.
[[nodiscard]] inline std::size_t chunk_slots(const ThreadPool& pool,
                                             std::size_t n,
                                             std::size_t grain) {
  if (n == 0) return 1;
  grain = grain == 0 ? 1 : grain;
  const std::size_t tasks = (n + grain - 1) / grain;
  const std::size_t workers =
      (pool.thread_count() <= 1 || pool.on_worker_thread())
          ? 1
          : pool.thread_count();
  return std::max<std::size_t>(1, std::min(workers, tasks));
}

/// Chunked dispatch: body(slot, begin, end) over grain-aligned runs of
/// [0, n). Every chunk starts at a multiple of `grain`, so the chunk
/// partition depends only on (n, grain) — never on the pool size — and a
/// caller reducing per-chunk partials in chunk order gets bit-identical
/// results at any thread count. `slot` < chunk_slots(pool, n, grain) names
/// the draining task; per-slot scratch survives across its chunks. Runs
/// inline (single slot 0, chunks in order) when the pool is trivial or the
/// caller is already one of its workers. Exceptions propagate (first wins);
/// remaining chunks may be skipped once a body throws.
template <typename Body>
void parallel_for_chunks(ThreadPool& pool, std::size_t n, std::size_t grain,
                         Body&& body) {
  if (n == 0) return;
  grain = grain == 0 ? 1 : grain;

  const std::size_t workers = pool.thread_count();
  if (workers <= 1 || n <= grain || pool.on_worker_thread()) {
    for (std::size_t start = 0; start < n; start += grain) {
      body(std::size_t{0}, start, std::min(n, start + grain));
    }
    return;
  }

  const std::size_t tasks = std::min(workers, (n + grain - 1) / grain);
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  for (std::size_t slot = 0; slot < tasks; ++slot) {
    // By-reference captures are safe: wait_idle below outlives every task.
    pool.submit([&, slot] {
      try {
        for (;;) {
          if (failed.load(std::memory_order_relaxed)) break;
          const std::size_t start = cursor.fetch_add(grain);
          if (start >= n) break;
          body(slot, start, std::min(n, start + grain));
        }
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  pool.wait_idle();

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace linkpad::util
