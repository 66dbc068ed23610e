#include "exec/thread_pool.h"

#include <utility>

#include "exec/config.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/format.h"
#include "util/sync.h"

namespace cs::exec {
namespace {

// Per-thread lane flag: never shared across threads.
thread_local bool tls_on_lane = false;  // cslint:allow(C1): thread_local lane marker, not shared state

obs::Histogram& task_latency_histogram() {
  static auto& histogram = obs::histogram(
      "exec.pool.task_us", {10.0, 100.0, 1000.0, 10000.0, 100000.0, 1e6});
  return histogram;
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads) : size_(threads == 0 ? 1 : threads) {
  if (size_ <= 1) return;
  // Construct the tracer from the controlling thread before any worker
  // can: its constructor names the constructing thread's lane "main", and
  // a lazily-started worker would otherwise claim (then clobber) it.
  obs::Tracer::instance();
  queues_.reserve(size_);
  for (unsigned i = 0; i < size_; ++i)
    queues_.push_back(std::make_unique<WorkerQueue>());
  threads_.reserve(size_);
  for (unsigned i = 0; i < size_; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    util::LockGuard lock{sleep_mutex_};
    stop_.store(true, std::memory_order_relaxed);
  }
  wake_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::submit(Task task) {
  static auto& tasks_metric = obs::counter("exec.pool.tasks");
  tasks_metric.inc();
  if (threads_.empty()) {
    // Sequential mode: no workers to hand the task to.
    task();
    return;
  }
  const unsigned target =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % size_;
  std::size_t depth;
  {
    util::LockGuard lock{queues_[target]->mutex};
    queues_[target]->tasks.push_back(std::move(task));
    depth = queues_[target]->tasks.size();
  }
  const auto pending = pending_.fetch_add(1, std::memory_order_release) + 1;
  // Track the high-water queue depth (pool-wide pending is the more
  // meaningful "queue" for a stealing pool; per-deque depth understates
  // bursts that round-robin spreads out).
  std::int64_t seen = max_depth_.load(std::memory_order_relaxed);
  const auto candidate =
      static_cast<std::int64_t>(std::max<std::size_t>(pending, depth));
  while (candidate > seen &&
         !max_depth_.compare_exchange_weak(seen, candidate,
                                           std::memory_order_relaxed)) {
  }
  static auto& depth_metric = obs::gauge("exec.pool.max_queue_depth");
  depth_metric.set(max_depth_.load(std::memory_order_relaxed));
  {
    // Lock-step with the sleeper's wait-condition check so a worker that
    // just saw an empty pool cannot miss this wakeup.
    util::LockGuard lock{sleep_mutex_};
  }
  wake_.notify_one();
}

bool ThreadPool::try_run_one(unsigned self) {
  static auto& steals_metric = obs::counter("exec.pool.steals");
  Task task;
  bool stolen = false;
  {
    // Own deque first, newest-first (cache-warm).
    auto& mine = *queues_[self];
    util::LockGuard lock{mine.mutex};
    if (!mine.tasks.empty()) {
      task = std::move(mine.tasks.back());
      mine.tasks.pop_back();
    }
  }
  if (!task) {
    // Steal oldest-first from the other deques.
    for (unsigned k = 1; k < size_ && !task; ++k) {
      auto& victim = *queues_[(self + k) % size_];
      util::LockGuard lock{victim.mutex};
      if (!victim.tasks.empty()) {
        task = std::move(victim.tasks.front());
        victim.tasks.pop_front();
        stolen = true;
      }
    }
  }
  if (!task) return false;
  pending_.fetch_sub(1, std::memory_order_acquire);
  if (stolen) steals_metric.inc();
  const auto started_us = obs::steady_now_us();
  task();
  task_latency_histogram().observe(
      static_cast<double>(obs::steady_now_us() - started_us));
  return true;
}

void ThreadPool::worker_loop(unsigned index) {
  tls_on_lane = true;
  // Stable, human-readable lane in Chrome-trace exports instead of a raw
  // thread ordinal.
  obs::Tracer::instance().set_thread_name(
      util::fmt("exec-worker-{}", index));
  for (;;) {
    if (try_run_one(index)) continue;
    util::LockGuard lock{sleep_mutex_};
    while (!stop_.load(std::memory_order_relaxed) &&
           pending_.load(std::memory_order_acquire) == 0)
      wake_.wait(sleep_mutex_);
    if (stop_.load(std::memory_order_relaxed) &&
        pending_.load(std::memory_order_acquire) == 0)
      return;
  }
}

bool ThreadPool::on_lane() noexcept { return tls_on_lane; }

ThreadPool::LaneScope::LaneScope() noexcept { tls_on_lane = true; }

ThreadPool::LaneScope::~LaneScope() { tls_on_lane = false; }

namespace {

util::Mutex g_global_mutex;
std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool& ThreadPool::global() {
  util::LockGuard lock{g_global_mutex};
  auto& slot = global_slot();
  if (!slot) slot = std::make_unique<ThreadPool>(thread_count());
  return *slot;
}

void ThreadPool::rebuild_global() {
  util::LockGuard lock{g_global_mutex};
  global_slot().reset();
}

}  // namespace cs::exec
