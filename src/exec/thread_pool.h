#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/sync.h"

/// A work-stealing thread pool sized by CS_THREADS.
///
/// Each worker owns a deque: the owner pushes and pops at the back (LIFO,
/// cache-warm), idle workers steal from the front of a victim's deque
/// (FIFO, oldest first). External submissions round-robin across workers
/// so the load spreads even before stealing kicks in.
///
/// The pool never promises *where* a task runs, so anything built on it
/// must be deterministic by construction — see exec/parallel.h, which
/// assigns work by index and merges results in index order, and
/// exec/sharded_rng.h, which derives per-shard RNG streams that are
/// independent of the worker that consumes them.
///
/// Observability: every worker names its trace lane ("exec-worker-0" ...)
/// so Chrome-trace exports stay readable, and the pool feeds the metrics
/// registry (exec.pool.tasks, exec.pool.steals, exec.pool.max_queue_depth,
/// exec.pool.task_us).
namespace cs::exec {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `threads` workers when threads > 1; with threads <= 1 the pool
  /// has no workers and submit() runs tasks inline (sequential mode).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured lane count (>= 1). Parallel algorithms use this to pick
  /// their fan-out.
  unsigned size() const noexcept { return size_; }
  /// Number of spawned worker threads (0 in sequential mode).
  unsigned worker_count() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

  /// Enqueues one task. In sequential mode the task runs before submit
  /// returns. Tasks must not block waiting for other pool tasks — use
  /// parallel_for, whose caller participates, for fork-join work.
  void submit(Task task);

  /// True when the calling thread is a pool lane: a worker of any pool
  /// (for life), or a caller while it drains its own region (LaneScope).
  /// Parallel algorithms run a region opened on a lane inline.
  static bool on_lane() noexcept;

  /// Marks the calling thread, which must not be a lane yet, as a lane
  /// until the scope ends.
  class LaneScope {
   public:
    LaneScope() noexcept;
    ~LaneScope();
    LaneScope(const LaneScope&) = delete;
    LaneScope& operator=(const LaneScope&) = delete;
  };

  /// The process-wide pool, built on first use with exec::thread_count()
  /// lanes.
  static ThreadPool& global();

  /// Tears down and lazily rebuilds the global pool (used after
  /// set_thread_count). Must only be called while no pool work is in
  /// flight.
  static void rebuild_global();

 private:
  struct WorkerQueue {
    util::Mutex mutex;
    std::deque<Task> tasks CS_GUARDED_BY(mutex);
  };

  void worker_loop(unsigned index);
  bool try_run_one(unsigned self);

  unsigned size_ = 1;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;
  util::Mutex sleep_mutex_;
  util::CondVar wake_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> pending_{0};
  std::atomic<unsigned> next_queue_{0};
  std::atomic<std::int64_t> max_depth_{0};
};

}  // namespace cs::exec
