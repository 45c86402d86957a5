#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

#include "common/vec_deque.h"

namespace flower::exec {

/// One ParallelFor invocation. Lives on the calling thread's stack;
/// workers may only touch it between joining (under mu_) and checking
/// out (under mu_), which is what lets the caller wait for
/// `workers_running_ == 0` before the Sweep goes out of scope.
struct ThreadPool::Sweep {
  size_t end = 0;
  size_t grain = 1;
  const std::function<Status(size_t)>* body = nullptr;
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  Status first_error;  // Written only by the thread that wins `failed`.
};

/// One RunTasks invocation. Same stack-lifetime discipline as Sweep:
/// workers only touch it between joining and checking out under mu_.
struct ThreadPool::TaskSweep {
  /// One FIFO deque per thread (slot 0 = the RunTasks caller), each
  /// with its own lock. Tasks are coarse (a partition segment, not an
  /// index), so a mutex per deque costs nothing measurable and keeps
  /// the stealing path TSan-obvious.
  struct WorkerDeque {
    std::mutex mu;
    VecDeque<uint64_t> q;
  };

  std::unique_ptr<WorkerDeque[]> deques;
  size_t num_deques = 0;
  const TaskBody* body = nullptr;
  /// Queued + running tasks. Spawn increments *before* pushing so the
  /// count never transiently hits zero while work exists; the decrement
  /// that lands on zero is the sweep-over signal.
  std::atomic<uint64_t> live{0};
  std::atomic<uint64_t> executed{0};
  std::atomic<uint64_t> spawned{0};
  std::atomic<uint64_t> steals{0};
  std::atomic<uint64_t> busy_ns{0};
  std::atomic<bool> failed{false};
  Status first_error;  // Written only by the thread that wins `failed`.
  /// Idle coordination: a worker that finds every deque empty sleeps
  /// until the epoch moves (new work pushed, or live reached zero).
  std::mutex idle_mu;
  std::condition_variable idle_cv;
  uint64_t work_epoch = 0;  // Guarded by idle_mu.

  void BumpEpoch() {
    {
      std::lock_guard<std::mutex> lock(idle_mu);
      ++work_epoch;
    }
    idle_cv.notify_all();
  }
};

Status CheckThreadCount(size_t num_threads, const std::string& what) {
  if (num_threads <= kMaxThreads) return Status::OK();
  return Status::InvalidArgument(what + " must be <= " +
                                 std::to_string(kMaxThreads) + ", got " +
                                 std::to_string(num_threads));
}

void ThreadPool::TaskContext::Spawn(uint64_t id) {
  sweep_->live.fetch_add(1, std::memory_order_acq_rel);
  sweep_->spawned.fetch_add(1, std::memory_order_relaxed);
  {
    TaskSweep::WorkerDeque& d = sweep_->deques[worker_];
    std::lock_guard<std::mutex> lock(d.mu);
    d.q.push_back(id);
  }
  if (sweep_->num_deques > 1) sweep_->BumpEpoch();
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    num_threads = hw == 0 ? 1 : hw;
  }
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

void ThreadPool::RunChunks(Sweep* sweep) {
  for (;;) {
    size_t lo = sweep->next.fetch_add(sweep->grain, std::memory_order_relaxed);
    if (lo >= sweep->end) return;
    size_t hi = std::min(lo + sweep->grain, sweep->end);
    // First error wins: once a failure is recorded the remaining chunks
    // are claimed (so the sweep terminates) but never executed.
    if (sweep->failed.load(std::memory_order_acquire)) continue;
    for (size_t i = lo; i < hi; ++i) {
      Status st = (*sweep->body)(i);
      if (!st.ok()) {
        bool expected = false;
        if (sweep->failed.compare_exchange_strong(
                expected, true, std::memory_order_acq_rel)) {
          sweep->first_error = std::move(st);
        }
        break;
      }
    }
  }
}

void ThreadPool::RunTaskLoop(TaskSweep* sweep, size_t self) {
  TaskContext ctx(sweep, self);
  size_t n = sweep->num_deques;
  for (;;) {
    uint64_t id = 0;
    bool got = false;
    bool stolen = false;
    {
      TaskSweep::WorkerDeque& d = sweep->deques[self];
      std::lock_guard<std::mutex> lock(d.mu);
      if (!d.q.empty()) {
        id = d.q.front();
        d.q.pop_front();
        got = true;
      }
    }
    for (size_t k = 1; k < n && !got; ++k) {
      TaskSweep::WorkerDeque& d = sweep->deques[(self + k) % n];
      std::lock_guard<std::mutex> lock(d.mu);
      if (!d.q.empty()) {
        id = d.q.front();
        d.q.pop_front();
        got = true;
        stolen = true;
      }
    }
    if (got) {
      if (stolen) sweep->steals.fetch_add(1, std::memory_order_relaxed);
      // First error wins: claimed tasks are drained unexecuted once a
      // failure is recorded (mirrors ParallelFor's chunk drain).
      if (!sweep->failed.load(std::memory_order_acquire)) {
        auto t0 = std::chrono::steady_clock::now();
        Status st = (*sweep->body)(id, ctx);
        auto t1 = std::chrono::steady_clock::now();
        sweep->busy_ns.fetch_add(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count(),
            std::memory_order_relaxed);
        sweep->executed.fetch_add(1, std::memory_order_relaxed);
        if (!st.ok()) {
          bool expected = false;
          if (sweep->failed.compare_exchange_strong(
                  expected, true, std::memory_order_acq_rel)) {
            sweep->first_error = std::move(st);
          }
        }
      }
      if (sweep->live.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        sweep->BumpEpoch();  // Sweep over: wake sleepers so they exit.
      }
      continue;
    }
    // Nothing anywhere. Snapshot the epoch *before* deciding to sleep:
    // a push that lands after the (failed) scan above bumps the epoch,
    // so the wait below returns immediately instead of missing it.
    uint64_t epoch;
    {
      std::lock_guard<std::mutex> lock(sweep->idle_mu);
      epoch = sweep->work_epoch;
    }
    if (sweep->live.load(std::memory_order_acquire) == 0) return;
    {
      std::unique_lock<std::mutex> lock(sweep->idle_mu);
      sweep->idle_cv.wait(lock, [&] {
        return sweep->work_epoch != epoch ||
               sweep->live.load(std::memory_order_acquire) == 0;
      });
    }
    if (sweep->live.load(std::memory_order_acquire) == 0) return;
  }
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  uint64_t seen = 0;
  for (;;) {
    Sweep* sweep = nullptr;
    TaskSweep* task_sweep = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ ||
               ((sweep_ != nullptr || task_sweep_ != nullptr) &&
                sweep_id_ != seen);
      });
      if (shutdown_) return;
      seen = sweep_id_;
      sweep = sweep_;
      task_sweep = task_sweep_;
      ++workers_running_;
    }
    if (sweep != nullptr) {
      RunChunks(sweep);
    } else {
      RunTaskLoop(task_sweep, worker_index);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--workers_running_ == 0) done_cv_.notify_all();
    }
  }
}

Status ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                               const std::function<Status(size_t)>& body) {
  if (end <= begin) return Status::OK();
  if (grain == 0) grain = 1;
  // Nothing to fan out: run inline, stopping at the first error (the
  // remaining indices are the "drained" work).
  if (workers_.empty() || end - begin <= grain) {
    for (size_t i = begin; i < end; ++i) {
      FLOWER_RETURN_NOT_OK(body(i));
    }
    return Status::OK();
  }

  Sweep sweep;
  sweep.end = end;
  sweep.grain = grain;
  sweep.body = &body;
  sweep.next.store(begin, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    sweep_ = &sweep;
    ++sweep_id_;
  }
  work_cv_.notify_all();
  RunChunks(&sweep);  // The calling thread participates.
  {
    std::unique_lock<std::mutex> lock(mu_);
    // No worker may join once sweep_ is retracted; wait out the ones
    // already inside before the Sweep leaves scope.
    sweep_ = nullptr;
    done_cv_.wait(lock, [this] { return workers_running_ == 0; });
  }
  return sweep.first_error;
}

Status ThreadPool::RunTasks(const std::vector<uint64_t>& seeds,
                            const TaskBody& body, TaskStats* stats) {
  if (stats != nullptr) *stats = TaskStats{};
  if (seeds.empty()) return Status::OK();

  TaskSweep sweep;
  sweep.num_deques = workers_.size() + 1;
  sweep.deques =
      std::make_unique<TaskSweep::WorkerDeque[]>(sweep.num_deques);
  sweep.body = &body;
  // Seed round-robin so the initial work is spread before any stealing
  // has to happen; live covers every seed up front.
  sweep.live.store(seeds.size(), std::memory_order_relaxed);
  for (size_t i = 0; i < seeds.size(); ++i) {
    sweep.deques[i % sweep.num_deques].q.push_back(seeds[i]);
  }

  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      task_sweep_ = &sweep;
      ++sweep_id_;
    }
    work_cv_.notify_all();
  }
  RunTaskLoop(&sweep, 0);  // The calling thread participates as slot 0.
  if (!workers_.empty()) {
    std::unique_lock<std::mutex> lock(mu_);
    task_sweep_ = nullptr;
    done_cv_.wait(lock, [this] { return workers_running_ == 0; });
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
