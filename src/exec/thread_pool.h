#ifndef FLOWER_EXEC_THREAD_POOL_H_
#define FLOWER_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace flower::exec {

/// Largest thread count a caller may ask for. Counts come from outside
/// the program (flags, replay options, configs), and a count the OS
/// cannot start makes std::thread throw std::system_error, which aborts
/// the process. No caller here uses more than 16; 0 still means
/// "hardware concurrency" wherever a count is passed to ThreadPool.
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

/// Fixed-size fork-join worker pool for the planning hot paths.
///
/// `num_threads` counts the calling thread: ThreadPool(1) owns no
/// worker threads and runs every ParallelFor inline, so single-threaded
/// callers pay no synchronization. ThreadPool(0) sizes the pool to the
/// hardware concurrency. Workers are started once in the constructor
/// and parked between sweeps; the destructor joins them. Callers check
/// counts from outside the program with CheckThreadCount first.
///
/// Concurrency contract: one ParallelFor sweep runs at a time per pool
/// (the call is a barrier). Nested ParallelFor on the *same* pool is
/// not supported — give inner parallel sections their own pool, or run
/// them single-threaded.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism, including the calling thread.
  size_t num_threads() const { return workers_.size() + 1; }

  /// Applies `body` to every index in [begin, end). Indices are split
  /// into chunks of up to `grain` consecutive indices, claimed
  /// dynamically by the workers plus the calling thread. Empty ranges
  /// return OK without invoking `body`; a range that fits in one chunk
  /// (or a 1-thread pool) runs inline on the calling thread.
  ///
  /// Error propagation is StatusOr-style: the first non-OK status wins,
  /// every not-yet-started chunk is drained without running, and the
  /// winning status is returned once all in-flight work has finished.
  /// `body` must be safe to call concurrently from multiple threads.
  Status ParallelFor(size_t begin, size_t end, size_t grain,
                     const std::function<Status(size_t)>& body);

  struct TaskSweep;

  /// Handle a running task uses to enqueue follow-up work. Spawned
  /// tasks land on the executing worker's own deque (LIFO locality is
  /// irrelevant here — deques are FIFO so seed order is preserved on a
  /// 1-thread pool); idle workers steal from the back of other deques.
  class TaskContext {
   public:
    /// Enqueues task `id` for execution within the current sweep.
    void Spawn(uint64_t id);
    /// Worker slot of the executing thread (0 = the RunTasks caller).
    size_t worker() const { return worker_; }

   private:
    friend class ThreadPool;
    TaskContext(TaskSweep* sweep, size_t worker)
        : sweep_(sweep), worker_(worker) {}
    TaskSweep* sweep_;
    size_t worker_;
  };

  using TaskBody = std::function<Status(uint64_t, TaskContext&)>;

  /// Work-stealing task mode: runs `seeds` (and every task they
  /// transitively Spawn) to completion over per-worker deques. Each
  /// worker drains its own deque FIFO and steals from the other deques
  /// when empty, so partitions of unequal length overlap instead of
  /// barriering — the fleet sweep's counterpart of ParallelFor.
  ///
  /// The same determinism contract as ParallelFor applies: which worker
  /// runs a task (and what gets stolen) is scheduling noise, so `body`
  /// must produce results that are a pure function of the task graph,
  /// never of the execution interleaving. Error propagation is
  /// first-error-wins with drain: once a task fails, claimed tasks are
  /// discarded unexecuted and RunTasks returns the winning status after
  /// in-flight tasks finish. A 1-thread pool runs everything inline on
  /// the calling thread in FIFO order. `stats`, when non-null, receives
  /// the sweep's schedule counters.
  Status RunTasks(const std::vector<uint64_t>& seeds, const TaskBody& body,
                  TaskStats* stats = nullptr);

 private:
  struct Sweep;

  void WorkerLoop(size_t worker_index);
  static void RunChunks(Sweep* sweep);
  static void RunTaskLoop(TaskSweep* sweep, size_t self);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // New sweep posted, or shutdown.
  std::condition_variable done_cv_;  // A worker left the current sweep.
  Sweep* sweep_ = nullptr;           // Guarded by mu_.
  TaskSweep* task_sweep_ = nullptr;  // Guarded by mu_.
  uint64_t sweep_id_ = 0;            // Guarded by mu_.
  size_t workers_running_ = 0;       // Guarded by mu_.
  bool shutdown_ = false;            // Guarded by mu_.
};

}  // namespace flower::exec

#endif  // FLOWER_EXEC_THREAD_POOL_H_
