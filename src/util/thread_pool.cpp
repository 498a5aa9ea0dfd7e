#include "src/util/thread_pool.h"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace vq {

namespace {

// Execution-shape metrics: how the pool ran, not what the analysis found.
// All kRuntime — batch latency depends on scheduling (and on whether a pool
// exists at all), so they must stay out of the default deterministic
// snapshot.
struct PoolMetrics {
  obs::Counter& batches;
  obs::Histogram& batch_latency_ns;

  static PoolMetrics& get() {
    static PoolMetrics m{
        obs::Registry::global().counter("threadpool.parallel_for_batches",
                                        obs::Determinism::kRuntime),
        obs::Registry::global().histogram(
            "threadpool.batch_latency_ns",
            // 100us, 1ms, 10ms, 100ms, 1s; overflow catches the rest.
            {100'000, 1'000'000, 10'000'000, 100'000'000, 1'000'000'000},
            obs::Determinism::kRuntime)};
    return m;
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t workers)
    : workers_{workers == 0 ? std::max<std::size_t>(
                                  1, std::thread::hardware_concurrency())
                            : workers} {
  if (workers_ == 1) return;  // every loop runs inline
  threads_.reserve(workers_);
  try {
    for (std::size_t i = 0; i < workers_; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    stop();  // destroying a started, unjoined thread would end the program
    throw;
  }
}

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::stop() {
  {
    const MutexLock lock{mutex_};
    stopping_ = true;
  }
  loop_started_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::drain(const std::function<void(std::size_t)>& fn,
                       std::size_t end) {
  for (std::size_t i = next_.fetch_add(1); i < end; i = next_.fetch_add(1)) {
    try {
      fn(i);
    } catch (...) {
      // Every later claim reads at least `end`, so each index is either
      // run once or never.
      next_.store(end);
      const MutexLock lock{mutex_};
      if (!error_) error_ = std::current_exception();
    }
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  PoolMetrics& metrics = PoolMetrics::get();
  bool team = !threads_.empty() && end - begin > 1;
  if (team) {
    const MutexLock lock{mutex_};
    team = fn_ == nullptr;  // busy: a call from an iteration or a 2nd thread
    if (team) {
      fn_ = &fn;
      end_ = end;
      next_.store(begin);
      ++loops_;
      in_loop_ = threads_.size();
    }
  }
  if (!team) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  metrics.batches.add(1);
  // Wall-clock reads stay behind the kill switch; with obs disabled a batch
  // costs no clock syscalls.
  const std::uint64_t batch_start_ns =
      obs::enabled() ? obs::Stopwatch::now_ns() : 0;
  loop_started_.notify_all();
  drain(fn, end);
  std::exception_ptr error;
  {
    MutexLock lock{mutex_};
    while (in_loop_ != 0) loop_left_.wait(mutex_);
    fn_ = nullptr;
    error = std::exchange(error_, nullptr);
  }
  if (batch_start_ns != 0 && obs::enabled()) {
    metrics.batch_latency_ns.record(obs::Stopwatch::now_ns() -
                                    batch_start_ns);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  std::uint64_t joined = 0;
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t end = 0;
    {
      MutexLock lock{mutex_};
      while (!stopping_ && loops_ == joined) loop_started_.wait(mutex_);
      // The owner destroys the pool only between loops, and a loop ends
      // only after every worker has left it, so no loop is pending here.
      if (stopping_) return;
      joined = loops_;
      fn = fn_;
      end = end_;
    }
    drain(*fn, end);
    const MutexLock lock{mutex_};
    if (--in_loop_ == 0) loop_left_.notify_one();
  }
}

}  // namespace vq
