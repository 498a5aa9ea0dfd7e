// StringInterner and ThreadPool tests.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/util/intern.h"
#include "src/util/mutex.h"
#include "src/util/thread_pool.h"

namespace vq {
namespace {

/// A one-shot signal that a test waits on for at most ~10 s, so a pool that
/// serialises two things that must overlap fails the test instead of
/// hanging it.
class Signal {
 public:
  void set() {
    {
      const MutexLock lock{mutex_};
      set_ = true;
    }
    cv_.notify_all();
  }
  /// True once set; false when the bound passes first.
  bool wait() {
    MutexLock lock{mutex_};
    for (int i = 0; i < 100 && !set_; ++i) {
      (void)cv_.wait_for(mutex_, std::chrono::milliseconds(100));
    }
    return set_;
  }

 private:
  Mutex mutex_;
  CondVar cv_;
  bool set_ VQ_GUARDED_BY(mutex_) = false;
};

TEST(StringInterner, AssignsSequentialIds) {
  StringInterner interner;
  EXPECT_EQ(interner.intern("alpha"), 0u);
  EXPECT_EQ(interner.intern("beta"), 1u);
  EXPECT_EQ(interner.intern("gamma"), 2u);
  EXPECT_EQ(interner.size(), 3u);
}

TEST(StringInterner, InternIsIdempotent) {
  StringInterner interner;
  const auto id = interner.intern("x");
  EXPECT_EQ(interner.intern("x"), id);
  EXPECT_EQ(interner.size(), 1u);
}

TEST(StringInterner, NameRoundTrip) {
  StringInterner interner;
  const auto id = interner.intern("comcast-like");
  EXPECT_EQ(interner.name(id), "comcast-like");
}

TEST(StringInterner, UnknownIdThrows) {
  StringInterner interner;
  EXPECT_THROW((void)interner.name(0), std::out_of_range);
}

TEST(StringInterner, LookupWithoutInterning) {
  StringInterner interner;
  EXPECT_FALSE(interner.lookup("missing").has_value());
  (void)interner.intern("present");
  ASSERT_TRUE(interner.lookup("present").has_value());
  EXPECT_EQ(*interner.lookup("present"), 0u);
  EXPECT_EQ(interner.size(), 1u);  // lookup never interns
}

TEST(StringInterner, ViewsStayValidAcrossGrowth) {
  StringInterner interner;
  const std::string_view first = interner.name(interner.intern("first"));
  for (int i = 0; i < 10'000; ++i) {
    (void)interner.intern("filler-" + std::to_string(i));
  }
  EXPECT_EQ(first, "first");
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool{4};
  std::vector<std::atomic<int>> hits(1'000);
  pool.parallel_for(0, hits.size(),
                    [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool{2};
  pool.parallel_for(5, 5, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool{1};
  EXPECT_EQ(pool.worker_count(), 1u);
  std::vector<int> order;
  pool.parallel_for(0, 5, [&order](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool{0};
  EXPECT_GE(pool.worker_count(), 1u);
}

TEST(ThreadPool, ParallelForRethrowsFirstExceptionOnCaller) {
  ThreadPool pool{4};
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(0, 1'000,
                        [&ran](std::size_t i) {
                          if (i == 13) {
                            throw std::invalid_argument{"boom"};
                          }
                          ran.fetch_add(1);
                        }),
      std::invalid_argument);
  // Unclaimed iterations are cancelled once the exception fires.
  EXPECT_LT(ran.load(), 1'000);
  // The pool survives and keeps working.
  std::atomic<int> after{0};
  pool.parallel_for(0, 100, [&after](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 100);
}

TEST(ThreadPool, ParallelForPropagatesExceptionsFromEveryWorker) {
  // Whichever participant throws — worker or caller — the exception must
  // surface on the calling thread instead of std::terminate.
  ThreadPool pool{4};
  for (int trial = 0; trial < 20; ++trial) {
    EXPECT_THROW(pool.parallel_for(0, 64,
                                   [](std::size_t) {
                                     throw std::runtime_error{"all fail"};
                                   }),
                 std::runtime_error);
  }
}

TEST(ThreadPool, NestedParallelForCompletes) {
  // A worker running an outer iteration may itself call parallel_for (the
  // pipeline's epoch x shard nesting). With as many outer iterations as
  // workers this used to starve: every worker blocked waiting on inner
  // tasks that no thread was left to run.
  ThreadPool pool{2};
  std::atomic<int> total{0};
  pool.parallel_for(0, 4, [&](std::size_t) {
    pool.parallel_for(0, 8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, NestedParallelForPropagatesInnerException) {
  ThreadPool pool{3};
  EXPECT_THROW(
      pool.parallel_for(0, 3,
                        [&](std::size_t) {
                          pool.parallel_for(0, 4, [](std::size_t j) {
                            if (j == 2) {
                              throw std::invalid_argument{"inner"};
                            }
                          });
                        }),
      std::invalid_argument);
}

TEST(ThreadPool, NestedParallelForRunsOnTheCallingThread) {
  // A loop started inside an iteration runs inline: every inner index on
  // the thread of the iteration that started it, none on the idle workers,
  // which the sleeps give every chance to take one.
  ThreadPool pool{3};
  std::vector<std::thread::id> outer(2);
  std::vector<std::vector<std::thread::id>> inner(
      2, std::vector<std::thread::id>(8));
  pool.parallel_for(0, outer.size(), [&](std::size_t i) {
    outer[i] = std::this_thread::get_id();
    pool.parallel_for(0, inner[i].size(), [&](std::size_t j) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      inner[i][j] = std::this_thread::get_id();
    });
  });
  for (std::size_t i = 0; i < outer.size(); ++i) {
    for (const std::thread::id id : inner[i]) EXPECT_EQ(id, outer[i]);
  }
}

TEST(ThreadPool, LoopsFromTwoThreadsEachRunEveryIndexOnce) {
  // A second thread starts its loop while the team runs the first one and
  // finishes it before the first one ends; each loop runs every index
  // exactly once.
  ThreadPool pool{3};
  std::vector<std::atomic<int>> first(1'000);
  std::vector<std::atomic<int>> second(1'000);
  Signal team_busy;
  Signal second_done;
  std::atomic<bool> overlapped{false};
  std::thread other{[&] {  // vq-lint: allow(naked-thread) a second caller
    (void)team_busy.wait();
    pool.parallel_for(0, second.size(),
                      [&](std::size_t i) { second[i].fetch_add(1); });
    second_done.set();
  }};
  pool.parallel_for(0, first.size(), [&](std::size_t i) {
    if (i == 0) {
      team_busy.set();
      overlapped.store(second_done.wait());
    }
    first[i].fetch_add(1);
  });
  other.join();
  EXPECT_TRUE(overlapped.load());
  for (const auto& h : first) EXPECT_EQ(h.load(), 1);
  for (const auto& h : second) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, TeamRunsTheLoopAfterOneThrew) {
  // After a loop throws, the next loop still reaches the workers: index 0
  // waits until index 1 has run, which only a second member can do.
  ThreadPool pool{2};
  EXPECT_THROW(pool.parallel_for(0, 64,
                                 [](std::size_t) {
                                   throw std::runtime_error{"all fail"};
                                 }),
               std::runtime_error);
  Signal one_ran;
  std::atomic<bool> overlapped{false};
  std::atomic<int> ran{0};
  pool.parallel_for(0, 2, [&](std::size_t i) {
    if (i == 0) {
      overlapped.store(one_ran.wait());
    } else {
      one_ran.set();
    }
    ran.fetch_add(1);
  });
  EXPECT_TRUE(overlapped.load());
  EXPECT_EQ(ran.load(), 2);
}

}  // namespace
}  // namespace vq
