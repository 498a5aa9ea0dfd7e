// Fixed-size fork-join team that runs one parallel loop at a time.
//
// The analysis processes epochs independently; parallel_for hands one loop
// to the pool's workers, and every member of the team, the calling thread
// included, claims indices from one shared cursor until it runs out.  A
// pool of W > 1 workers therefore computes on W + 1 threads.  A pool of one
// worker runs every loop inline on the caller and starts no thread, so
// single-core hosts pay no thread overhead.
//
// A parallel_for called while the team is busy runs its range inline on
// the calling thread.  That covers a call from inside an iteration and a
// call from a second thread; neither ever waits on another loop, so nesting
// cannot deadlock.
// The first exception an iteration throws is kept, stops every iteration
// not yet claimed, and is rethrown on the caller once every member has left
// the loop.  No member touches the loop's function after parallel_for
// returns.
//
// Concurrency contract (machine-checked under Clang, see
// thread_annotations.h): the running loop's function, range end and first
// exception, the loop count, the workers still in the loop and the stop
// flag are guarded by mutex_; the claim cursor next_ is atomic; threads_ is
// written only during construction/destruction on the owning thread.  This
// is the only component in vidqual that owns threads — vidqual_lint's
// `naked-thread` rule enforces that everything else parallelises through
// it.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace vq {

class ThreadPool {
 public:
  /// workers == 0 selects hardware_concurrency().
  explicit ThreadPool(std::size_t workers = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  [[nodiscard]] std::size_t worker_count() const noexcept { return workers_; }

  /// Runs fn(i) for i in [begin, end) on the caller and every worker;
  /// blocks until complete.  Runs inline when the range has one index, the
  /// pool has a single worker or the team is already running a loop.  If an
  /// iteration throws, no further iterations start and the first exception
  /// is rethrown here after in-flight ones finish.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn)
      VQ_EXCLUDES(mutex_);

 private:
  void worker_loop() VQ_EXCLUDES(mutex_);
  /// Stops the workers started so far and joins them.
  void stop() VQ_EXCLUDES(mutex_);
  /// Claims and runs indices of the current loop until none is left.
  void drain(const std::function<void(std::size_t)>& fn, std::size_t end)
      VQ_EXCLUDES(mutex_);

  std::size_t workers_;
  Mutex mutex_;
  CondVar loop_started_;
  CondVar loop_left_;
  /// The loop the team runs; null while the team is idle.
  const std::function<void(std::size_t)>* fn_ VQ_GUARDED_BY(mutex_) = nullptr;
  std::size_t end_ VQ_GUARDED_BY(mutex_) = 0;
  std::exception_ptr error_ VQ_GUARDED_BY(mutex_);  // first exception wins
  /// Loops started, so each worker joins each loop exactly once.
  std::uint64_t loops_ VQ_GUARDED_BY(mutex_) = 0;
  /// Workers that have not yet left the current loop.
  std::size_t in_loop_ VQ_GUARDED_BY(mutex_) = 0;
  bool stopping_ VQ_GUARDED_BY(mutex_) = false;
  std::atomic<std::size_t> next_{0};
  std::vector<std::thread> threads_;  // last: workers use every member above
};

}  // namespace vq
