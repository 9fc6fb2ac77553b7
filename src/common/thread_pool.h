// The engine's one worker pool (DESIGN.md §16, Threading): server
// statements, query morsels and background merges all run as tasks on
// the workers of the Database's pool.
//
// Two scheduling primitives share the workers:
//  - Submit(task) appends a task to one FIFO queue.
//  - ParallelFor(n, fn) publishes a batch of n indexed tasks to the list
//    of live batches and runs fn(task_index) on the calling thread and on
//    every idle worker that joins, with dynamic (atomic-counter) claiming
//    so uneven morsels balance out.
// Idle workers serve live batches before FIFO tasks, so a running query
// finishes its morsels before a queued statement starts. The caller always
// takes part in its own batch, so a batch finishes even when every worker
// is busy: concurrent and nested ParallelFor calls need no special case.
//
// The pool grows (EnsureWorkers) and never shrinks. Destruction runs every
// task still queued, then joins the workers.
//
// Exception safety: a ParallelFor task that throws does not terminate the
// process. The first escaping exception is captured, remaining unclaimed
// tasks of the batch are skipped, and ParallelFor returns it as a typed
// Status (std::bad_alloc -> kResourceExhausted, other std::exception ->
// kExecutionError). A Submit task reports its own failures and must not
// throw: like an exception escaping a thread's entry function, one that
// does ends the process.
#ifndef VDMQO_COMMON_THREAD_POOL_H_
#define VDMQO_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace vdm {

class ThreadPool {
 public:
  /// Starts `num_workers` worker threads (0 is clamped to 1).
  explicit ThreadPool(size_t num_workers);
  /// Runs the queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads. A ParallelFor caller runs tasks too, so a
  /// batch may use one more thread than this.
  size_t size() const { return num_workers_.load(std::memory_order_acquire); }

  /// Hardware concurrency, never 0.
  static size_t DefaultThreads();

  /// Grows the pool to at least `num_workers` workers.
  void EnsureWorkers(size_t num_workers);

  /// Queues `task` to run once on a worker, after the tasks queued before
  /// it have started.
  void Submit(std::function<void()> task);

  /// Runs fn(task_index) for every index in [0, num_tasks). Tasks are
  /// claimed dynamically in increasing index order; the call returns once
  /// all tasks have finished. fn must synchronize its own writes (distinct
  /// output slots per task index are the intended pattern). Safe to call
  /// from several threads at once and from inside a task. Returns OK, or
  /// the Status of the first exception a task let escape (in which case
  /// some task indexes may never have run).
  Status ParallelFor(size_t num_tasks, const std::function<void(size_t)>& fn);

 private:
  struct Batch {
    const std::function<void(size_t)>* fn = nullptr;
    std::atomic<size_t> next{0};
    size_t total = 0;
    size_t active = 0;  // workers inside RunTasks; guarded by ThreadPool::mu_
    std::atomic<bool> failed{false};
    std::mutex error_mu;
    Status error;  // first captured task exception; guarded by error_mu
  };

  /// A worker's loop: live batches first, then FIFO tasks, until shutdown
  /// leaves nothing to run.
  void Serve();
  /// A live batch with unclaimed tasks, or nullptr. Requires mu_.
  Batch* ClaimableBatch() const;
  static void RunTasks(Batch* batch);

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for a batch or a task
  std::condition_variable done_cv_;  // ParallelFor callers wait for joiners
  std::vector<Batch*> batches_;              // live batches; guarded by mu_
  std::deque<std::function<void()>> queue_;  // guarded by mu_
  std::vector<std::thread> workers_;         // guarded by mu_
  std::atomic<size_t> num_workers_{0};
  bool shutdown_ = false;                    // guarded by mu_
};

/// Maps an in-flight exception to the governor's Status taxonomy.
Status StatusFromCurrentException();

}  // namespace vdm

#endif  // VDMQO_COMMON_THREAD_POOL_H_
