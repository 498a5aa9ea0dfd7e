// Minimal fixed-size thread pool with a parallel_for convenience wrapper.
//
// The analysis pipeline processes epochs independently; on multi-core hosts
// parallel_for spreads epochs across workers, on single-core hosts it runs
// inline with zero thread overhead (worker count 0 or 1 short-circuits).
//
// parallel_for is re-entrant: the calling thread participates in the loop
// and only ever waits on iterations that are already running on some thread,
// so an iteration may itself call parallel_for without risking
// queue-starvation deadlock.
// Exceptions thrown by iterations are captured (first wins), remaining
// unclaimed iterations are cancelled, and the exception is rethrown on the
// calling thread once in-flight iterations drain.
//
// Concurrency contract (machine-checked under Clang, see
// thread_annotations.h): queue_, in_flight_ and stopping_ are guarded by
// mutex_; threads_ is written only during construction/destruction on the
// owning thread.  This is the only component in vidqual that owns threads —
// vidqual_lint's `naked-thread` rule enforces that everything else
// parallelises through it.

#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace vq {

class ThreadPool {
 public:
  /// workers == 0 selects hardware_concurrency(); pool of size 1 executes
  /// submitted work on its single worker thread.
  explicit ThreadPool(std::size_t workers = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return threads_.size();
  }

  /// Enqueues a task; tasks must not throw (they run on worker threads with
  /// no channel back to the caller — wrap fallible work yourself, or use
  /// parallel_for which does).
  void submit(std::function<void()> task) VQ_EXCLUDES(mutex_);

  /// Blocks until every submitted task has finished.
  void wait_idle() VQ_EXCLUDES(mutex_);

  /// Runs fn(i) for i in [begin, end), partitioned across workers; blocks
  /// until complete. Runs inline when the range is small or the pool has a
  /// single worker. If an iteration throws, no further iterations start and
  /// the first exception is rethrown here after in-flight ones finish.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn)
      VQ_EXCLUDES(mutex_);

 private:
  void worker_loop() VQ_EXCLUDES(mutex_);

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_ VQ_GUARDED_BY(mutex_);
  Mutex mutex_;
  CondVar work_available_;
  CondVar idle_;
  std::size_t in_flight_ VQ_GUARDED_BY(mutex_) = 0;
  bool stopping_ VQ_GUARDED_BY(mutex_) = false;
};

}  // namespace vq
