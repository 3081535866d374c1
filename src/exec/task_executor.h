#ifndef DBLSH_EXEC_TASK_EXECUTOR_H_
#define DBLSH_EXEC_TASK_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace dblsh::exec {

/// The number of worker threads a default-sized pool uses: the hardware
/// concurrency, never less than 1.
size_t HardwareConcurrency();

/// One fixed-size work-stealing thread pool for the whole process: index
/// builds, batched queries, shard fan-outs and background rebuilds all run
/// as tasks on the same executor instead of each call site spawning its own
/// threads. This is the ONLY place in the library that creates threads.
///
///   exec::TaskExecutor& pool = exec::TaskExecutor::Default();
///   auto done = pool.Submit([] { return BuildSomething(); });
///   pool.ParallelFor(queries.rows(), [&](size_t q) { Answer(q); });
///   done.get();
///
/// Scheduling: each worker owns a deque; tasks submitted from a worker go
/// to its own deque (popped LIFO for locality), tasks from outside are
/// distributed round-robin, and idle workers steal FIFO from the others —
/// so one slow task never strands work queued behind it.
///
/// Nesting and blocking: ParallelFor's caller always participates in its
/// own loop, and it only ever joins helpers that are actively running an
/// iteration — helpers still stuck in a queue are harmless no-ops it does
/// not wait for. A ParallelFor issued from inside a task therefore
/// completes even when every worker is busy (the caller just runs the
/// whole range itself), nested parallel sections cannot deadlock the pool,
/// and it is safe to call while holding a lock as long as the loop *body*
/// does not acquire a lock the caller holds. The one way to deadlock is a
/// task that blocks on the future of another queued task; use ParallelFor
/// (or RunOnePendingTask in a wait loop) for fan-out/join instead.
///
/// Shutdown: the destructor stops intake, drains every queued task
/// (submitted futures all become ready), and joins the workers.
///
/// Thread-safety: all public members are safe to call concurrently.
class TaskExecutor {
 public:
  /// Creates a pool of `num_threads` workers; 0 sizes it to the hardware
  /// concurrency. A pool always has at least one worker.
  explicit TaskExecutor(size_t num_threads = 0);

  /// Drains all queued tasks, then joins the workers. Tasks still queued
  /// run to completion (their futures become ready); submitting from
  /// another thread during destruction is undefined.
  ~TaskExecutor();

  TaskExecutor(const TaskExecutor&) = delete;
  TaskExecutor& operator=(const TaskExecutor&) = delete;

  /// Number of worker threads in the pool.
  size_t num_threads() const { return queues_.size(); }

  /// Enqueues a fire-and-forget task. The task runs exactly once, on some
  /// worker (or inside another caller's help loop).
  void Schedule(std::function<void()> task);

  /// Enqueues `fn` and returns the future of its result; exceptions thrown
  /// by `fn` surface from future::get().
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    Schedule([task]() { (*task)(); });
    return result;
  }

  /// Runs `body(i)` for every i in [0, n), fanning out over at most
  /// `max_parallelism` concurrent executors of the loop (0 = pool width +
  /// the caller); 1 runs the loop on the caller. The caller participates,
  /// so the call completes even on a saturated pool; remaining iterations
  /// stop after the first exception, which is rethrown here. Blocks until
  /// every started iteration finished; `body` is only used before this
  /// call returns. Iterations are handed out dynamically, so per-thread
  /// state belongs in the thread's own storage (core/query_marks.h's
  /// QueryMarks), not in the loop.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body,
                   size_t max_parallelism = 0);

  /// Runs one queued task on the calling thread if any is pending; returns
  /// whether a task ran. Lets a thread that must block on pool work lend a
  /// hand instead of deadlocking (see Collection::WaitForRebuilds).
  bool RunOnePendingTask();

  /// The process-wide default pool, created on first use with the hardware
  /// concurrency (or the width last requested via SetDefaultThreads).
  static TaskExecutor& Default();

  /// Replaces the default pool with one of `num_threads` workers (0 =
  /// hardware concurrency). Call at startup, before anything holds a
  /// reference to the previous default: the old pool is drained and
  /// destroyed. Intended for CLI --threads flags and tests.
  static void SetDefaultThreads(size_t num_threads);

 private:
  /// One worker's mutex-guarded deque. Owner pushes/pops at the back;
  /// thieves take from the front.
  struct Queue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  /// Body of worker `self`: run/steal tasks, park when idle, drain on
  /// shutdown.
  void WorkerLoop(size_t self);

  /// Pops a task: the calling worker's own queue first (back, LIFO), then
  /// the other queues (front, FIFO). `home` is npos for non-worker threads.
  std::function<void()> TakeTask(size_t home);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> threads_;
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  size_t pending_ = 0;  ///< queued tasks, guarded by wake_mutex_
  bool stopping_ = false;  ///< guarded by wake_mutex_
  std::atomic<size_t> next_queue_{0};  ///< round-robin cursor for outsiders
};

}  // namespace dblsh::exec

#endif  // DBLSH_EXEC_TASK_EXECUTOR_H_
