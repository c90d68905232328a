// Stress coverage for the thread pool under the access patterns the
// pooled pipeline stages create: many external producers, failure
// propagation at scale, parallel_for_chunked re-entered from pool tasks
// (which requires the help-while-waiting protocol to avoid deadlock), and
// shutdown with work still queued.

#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace cwgl::util {
namespace {

TEST(ThreadPoolStress, ManyProducerSubmitStorm) {
  ThreadPool pool(4);
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 250;
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  std::vector<std::vector<std::future<int>>> futures(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &futures, &counter, p] {
      futures[p].reserve(kPerProducer);
      for (int i = 0; i < kPerProducer; ++i) {
        futures[p].push_back(pool.submit([&counter, p, i] {
          ++counter;
          return p * kPerProducer + i;
        }));
      }
    });
  }
  for (auto& t : producers) t.join();
  for (int p = 0; p < kProducers; ++p) {
    for (int i = 0; i < kPerProducer; ++i) {
      EXPECT_EQ(futures[p][i].get(), p * kPerProducer + i);
    }
  }
  EXPECT_EQ(counter.load(), kProducers * kPerProducer);
}

TEST(ThreadPoolStress, EveryFailingTaskPropagatesItsOwnException) {
  ThreadPool pool(4);
  constexpr int kTasks = 64;
  std::vector<std::future<int>> futures;
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(pool.submit([i]() -> int {
      if (i % 2 == 1) throw std::runtime_error("task " + std::to_string(i));
      return i;
    }));
  }
  for (int i = 0; i < kTasks; ++i) {
    if (i % 2 == 1) {
      try {
        futures[i].get();
        FAIL() << "task " << i << " should have thrown";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "task " + std::to_string(i));
      }
    } else {
      EXPECT_EQ(futures[i].get(), i);
    }
  }
}

TEST(ThreadPoolStress, ReentrantParallelForFromSaturatedPool) {
  // Every worker simultaneously enters parallel_for_chunked on the SAME
  // pool. Without help-while-waiting each would block on futures no free
  // worker could run — a deadlock. With helping, all must finish.
  ThreadPool pool(2);
  constexpr int kOuter = 4;
  constexpr std::size_t kRange = 2000;
  std::vector<std::future<long long>> outer;
  for (int o = 0; o < kOuter; ++o) {
    outer.push_back(pool.submit([&pool] {
      std::atomic<long long> total{0};
      parallel_for_chunked(pool, 0, kRange, 64,
                           [&total](std::size_t lo, std::size_t hi) {
                             long long acc = 0;
                             for (std::size_t i = lo; i < hi; ++i) {
                               acc += static_cast<long long>(i);
                             }
                             total += acc;
                           });
      return total.load();
    }));
  }
  const long long expected =
      static_cast<long long>(kRange) * (kRange - 1) / 2;
  for (auto& f : outer) EXPECT_EQ(f.get(), expected);
}

TEST(ThreadPoolStress, TwoLevelNestedParallelFor) {
  ThreadPool pool(4);
  static constexpr std::size_t kOuter = 8;
  static constexpr std::size_t kInner = 300;
  std::atomic<long long> total{0};
  parallel_for(pool, 0, kOuter, [&](std::size_t o) {
    parallel_for_chunked(pool, 0, kInner, 32,
                         [&total, o](std::size_t lo, std::size_t hi) {
                           long long acc = 0;
                           for (std::size_t i = lo; i < hi; ++i) {
                             acc += static_cast<long long>(o * kInner + i);
                           }
                           total += acc;
                         });
  });
  const long long n = static_cast<long long>(kOuter * kInner);
  EXPECT_EQ(total.load(), n * (n - 1) / 2);
}

TEST(ThreadPoolStress, ExceptionEscapesNestedParallelFor) {
  ThreadPool pool(2);
  auto outer = pool.submit([&pool] {
    parallel_for(pool, 0, 100, [](std::size_t i) {
      if (i == 31) throw std::runtime_error("nested failure");
    });
  });
  EXPECT_THROW(outer.get(), std::runtime_error);
}

TEST(ThreadPoolStress, ShutdownDrainsQueuedTasks) {
  // Gate the single worker so a backlog provably builds up, then release
  // and shut down: shutdown must run every queued task before joining.
  ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<int> completed{0};
  std::vector<std::future<void>> futures;
  futures.push_back(pool.submit([opened, &completed] {
    opened.wait();
    ++completed;
  }));
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([&completed] { ++completed; }));
  }
  gate.set_value();
  pool.shutdown();
  EXPECT_EQ(completed.load(), 51);
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPoolStress, RunPendingTaskExecutesQueuedWorkInline) {
  // Occupy the only worker, queue a task, and drain it from the calling
  // thread — the mechanism parallel_for_chunked's helping rests on.
  ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::promise<void> started;
  auto blocker = pool.submit([opened, &started] {
    started.set_value();
    opened.wait();
  });
  // Wait until the worker holds the blocker, so the queued task below can
  // only ever run via run_pending_task.
  started.get_future().wait();

  std::atomic<bool> ran{false};
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  auto queued = pool.submit([&ran, &ran_on] {
    ran_on = std::this_thread::get_id();
    ran = true;
  });

  EXPECT_TRUE(pool.run_pending_task());
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(ran_on, caller);
  EXPECT_FALSE(pool.run_pending_task());  // queue is empty again

  gate.set_value();
  blocker.get();
  queued.get();
}

}  // namespace
}  // namespace cwgl::util
