#include "exec/thread_pool.h"

#include <atomic>
#include <chrono>

#include "common/vec_deque.h"

namespace flower::exec {

/// One thread's FIFO deque of spawned tasks, with its own lock. Spawned
/// tasks are coarse (a resumed partition segment), so a mutex per deque
/// costs nothing measurable and keeps the stealing path TSan-obvious.
/// Every sweep leaves the deques empty, and their capacity carries over
/// to the next one.
struct ThreadPool::WorkerDeque {
  std::mutex mu;
  VecDeque<uint64_t> q;
};

/// One RunTasks invocation. Lives on the calling thread's stack;
/// workers may only touch it between joining (under mu_) and checking
/// out (under mu_), which is what lets the caller wait for
/// `workers_running_ == 0` before the Sweep goes out of scope.
struct ThreadPool::Sweep {
  ThreadPool* pool = nullptr;
  WorkerDeque* deques = nullptr;
  size_t num_deques = 0;
  const TaskBody* body = nullptr;
  /// Seeds never touch the deques: every thread claims them in id order
  /// from `next_seed`, so a sweep without Spawn costs one atomic add per
  /// task, like a chunked parallel-for.
  uint64_t num_seeds = 0;
  std::atomic<uint64_t> next_seed{0};
  /// The caller asked for TaskStats: only then are the schedule
  /// counters kept and task bodies timed.
  bool counted = false;
  std::atomic<uint64_t> executed{0};
  std::atomic<uint64_t> spawned{0};
  std::atomic<uint64_t> steals{0};
  std::atomic<uint64_t> busy_ns{0};
  std::atomic<bool> failed{false};
  Status first_error;  // Written only by the thread that wins `failed`.
};

Status CheckThreadCount(size_t num_threads, const std::string& what) {
  if (num_threads <= kMaxThreads) return Status::OK();
  return Status::InvalidArgument(what + " must be <= " +
                                 std::to_string(kMaxThreads) + ", got " +
                                 std::to_string(num_threads));
}

void ThreadPool::TaskContext::Spawn(uint64_t id) {
  if (sweep_->counted) {
    sweep_->spawned.fetch_add(1, std::memory_order_relaxed);
  }
  {
    WorkerDeque& d = sweep_->deques[worker_];
    std::lock_guard<std::mutex> lock(d.mu);
    d.q.push_back(id);
  }
  if (sweep_->num_deques == 1) return;
  // Move the epoch so checked-out workers (and a waiting caller) come
  // back to steal the new task. The spawning thread drains its own
  // deque before it checks out, so the task never depends on them.
  ThreadPool* pool = sweep_->pool;
  {
    std::lock_guard<std::mutex> lock(pool->mu_);
    ++pool->epoch_;
  }
  pool->work_cv_.notify_all();
  pool->done_cv_.notify_one();
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    num_threads = hw == 0 ? 1 : hw;
  }
  deques_ = std::make_unique<WorkerDeque[]>(num_threads);
  workers_.reserve(num_threads - 1);
  for (size_t i = 0; i + 1 < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunTaskLoop(Sweep* sweep, size_t self) {
  TaskContext ctx(sweep, self);
  const size_t n = sweep->num_deques;
  for (;;) {
    // Seeds first, then spawned work: the own deque, then the others'.
    uint64_t id = sweep->num_seeds;
    if (sweep->next_seed.load(std::memory_order_relaxed) < sweep->num_seeds) {
      id = sweep->next_seed.fetch_add(1, std::memory_order_relaxed);
    }
    bool got = id < sweep->num_seeds;
    bool stolen = false;
    for (size_t k = 0; k < n && !got; ++k) {
      WorkerDeque& d = sweep->deques[(self + k) % n];
      std::lock_guard<std::mutex> lock(d.mu);
      if (!d.q.empty()) {
        id = d.q.front();
        d.q.pop_front();
        got = true;
        stolen = k > 0;
      }
    }
    if (!got) return;
    // First error wins: claimed tasks are drained unexecuted once a
    // failure is recorded.
    if (sweep->failed.load(std::memory_order_acquire)) continue;
    std::chrono::steady_clock::time_point t0;
    if (sweep->counted) t0 = std::chrono::steady_clock::now();
    Status st = (*sweep->body)(id, ctx);
    if (sweep->counted) {
      sweep->busy_ns.fetch_add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count(),
          std::memory_order_relaxed);
      sweep->executed.fetch_add(1, std::memory_order_relaxed);
      if (stolen) sweep->steals.fetch_add(1, std::memory_order_relaxed);
    }
    if (!st.ok()) {
      bool expected = false;
      if (sweep->failed.compare_exchange_strong(expected, true,
                                                std::memory_order_acq_rel)) {
        sweep->first_error = std::move(st);
      }
    }
  }
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  uint64_t seen = 0;
  for (;;) {
    Sweep* sweep = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || (sweep_ != nullptr && epoch_ != seen);
      });
      if (shutdown_) return;
      seen = epoch_;
      sweep = sweep_;
      ++workers_running_;
    }
    // Runs until the seeds are claimed and every deque is empty, then
    // checks out and parks until a Spawn or the next sweep moves the
    // epoch: an idle worker never holds up the end of a sweep.
    RunTaskLoop(sweep, worker_index);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--workers_running_ != 0) continue;
    }
    done_cv_.notify_one();
  }
}

Status ThreadPool::RunTasks(uint64_t num_tasks, const TaskBody& body,
                            TaskStats* stats) {
  if (stats != nullptr) *stats = TaskStats{};
  if (num_tasks == 0) return Status::OK();

  Sweep sweep;
  sweep.pool = this;
  sweep.deques = deques_.get();
  sweep.num_deques = num_threads();
  sweep.body = &body;
  sweep.counted = stats != nullptr;
  sweep.num_seeds = num_tasks;

  if (workers_.empty()) {
    RunTaskLoop(&sweep, 0);  // Inline: FIFO on the calling thread.
  } else {
    uint64_t seen;
    {
      std::lock_guard<std::mutex> lock(mu_);
      sweep_ = &sweep;
      seen = ++epoch_;
    }
    work_cv_.notify_all();
    // The calling thread participates as slot 0, re-entering whenever a
    // Spawn moves the epoch. Every thread leaves only with the seeds
    // claimed and the deques drained, so once the caller is out and no
    // worker is in, no task is queued or running: the sweep is over.
    // sweep_ is retracted under the same lock, so no worker can join it
    // after that.
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      lock.unlock();
      RunTaskLoop(&sweep, 0);
      lock.lock();
      done_cv_.wait(lock,
                    [&] { return workers_running_ == 0 || epoch_ != seen; });
      if (workers_running_ == 0) break;
      seen = epoch_;
    }
    sweep_ = nullptr;
  }

  if (stats != nullptr) {
    stats->executed = sweep.executed.load(std::memory_order_relaxed);
    stats->spawned = sweep.spawned.load(std::memory_order_relaxed);
    stats->steals = sweep.steals.load(std::memory_order_relaxed);
    stats->busy_sec =
        static_cast<double>(sweep.busy_ns.load(std::memory_order_relaxed)) *
        1e-9;
  }
  return sweep.first_error;
}

}  // namespace flower::exec
