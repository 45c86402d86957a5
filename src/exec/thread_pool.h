#ifndef FLOWER_EXEC_THREAD_POOL_H_
#define FLOWER_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace flower::exec {

/// Largest thread count a caller may ask for. Counts come from outside
/// the program (flags, configs), and a count the OS cannot start makes
/// std::thread throw std::system_error, which aborts the process. No
/// caller here uses more than 16; 0 still means "hardware concurrency"
/// wherever a count is passed to ThreadPool.
inline constexpr size_t kMaxThreads = 256;

/// InvalidArgument naming `what` when `num_threads` exceeds kMaxThreads.
Status CheckThreadCount(size_t num_threads, const std::string& what);

/// Statistics of one RunTasks sweep. Counters describe the *schedule*
/// (which worker ran what), never the results — callers relying on the
/// determinism contract must keep them out of any digest.
struct TaskStats {
  uint64_t executed = 0;  ///< Task invocations that actually ran.
  uint64_t spawned = 0;   ///< Tasks enqueued by running tasks.
  uint64_t steals = 0;    ///< Tasks claimed from another worker's deque.
  double busy_sec = 0.0;  ///< Wall time inside task bodies, summed
                          ///< across workers (> wall clock when the
                          ///< sweep overlaps work).
};

/// Fixed-size work-stealing pool with one sweep primitive, RunTasks:
/// the fleet sweep, NSGA-II's fan-outs and windowed planning all run
/// on it.
///
/// `num_threads` counts the calling thread: ThreadPool(1) owns no
/// worker threads and runs every sweep inline on the caller.
/// ThreadPool(0) sizes the pool to the hardware concurrency. Workers
/// are started once in the constructor and parked between sweeps; the
/// destructor joins them. Each thread owns one deque of spawned tasks
/// for the pool's lifetime, so once a pool has run a sweep, further
/// sweeps spawning no more tasks allocate nothing. Callers check counts
/// from outside the program with CheckThreadCount first.
///
/// Concurrency contract: one sweep runs at a time per pool (RunTasks is
/// a barrier). Nested RunTasks on the *same* pool is not supported —
/// give inner parallel sections their own pool, or run them
/// single-threaded.
class ThreadPool {
  struct Sweep;  // One RunTasks call.

 public:
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism, including the calling thread.
  size_t num_threads() const { return workers_.size() + 1; }

  /// Handle a running task uses to enqueue follow-up work. Spawned
  /// tasks land on the executing thread's own FIFO deque, so a 1-thread
  /// pool runs them in spawn order; idle workers steal from other
  /// deques.
  class TaskContext {
   public:
    /// Enqueues task `id` for execution within the current sweep.
    void Spawn(uint64_t id);

   private:
    friend class ThreadPool;
    TaskContext(Sweep* sweep, size_t worker) : sweep_(sweep), worker_(worker) {}
    Sweep* sweep_;
    size_t worker_;
  };

  using TaskBody = std::function<Status(uint64_t, TaskContext&)>;

  /// Runs tasks 0..num_tasks-1 (the seeds) and every task they
  /// transitively Spawn to completion. Every thread claims seeds in id
  /// order from a shared counter, then drains its own deque and steals
  /// from the others, so tasks of unequal length overlap instead of
  /// barriering. Callers with many small items give each task a chunk
  /// of them.
  ///
  /// Determinism contract: which worker runs a task (and what gets
  /// stolen) is scheduling noise, so `body` must produce results that
  /// are a pure function of the task graph, never of the execution
  /// interleaving, and must be safe to call concurrently. Error
  /// propagation is first-error-wins with drain: once a task fails,
  /// claimed tasks are discarded unexecuted and RunTasks returns the
  /// winning status after in-flight tasks finish. A 1-thread pool runs
  /// everything inline on the calling thread in FIFO order, so it stops
  /// at the first error. `stats`, when non-null, receives the sweep's
  /// schedule counters; only then are task bodies timed.
  Status RunTasks(uint64_t num_tasks, const TaskBody& body,
                  TaskStats* stats = nullptr);

 private:
  struct WorkerDeque;

  void WorkerLoop(size_t worker_index);
  /// Runs seeds, then tasks from slot `self`'s deque, stealing when it
  /// is empty; returns once the seeds are claimed and every deque is
  /// empty.
  static void RunTaskLoop(Sweep* sweep, size_t self);

  std::unique_ptr<WorkerDeque[]> deques_;  // One per thread (0 = caller).
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // Epoch moved, or shutdown.
  std::condition_variable done_cv_;  // A worker left, or new work.
  Sweep* sweep_ = nullptr;           // Guarded by mu_.
  uint64_t epoch_ = 0;               // Guarded by mu_; moves on each
                                     // new sweep and each Spawn.
  size_t workers_running_ = 0;       // Guarded by mu_.
  bool shutdown_ = false;            // Guarded by mu_.
};

}  // namespace flower::exec

#endif  // FLOWER_EXEC_THREAD_POOL_H_
