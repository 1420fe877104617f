// common::ThreadPool: deterministic block-partitioned parallel_for.
//
// The engine's bit-identity guarantee rests on two properties tested here:
// the partition is a function of (n, grain) only — never the thread count —
// and every index is executed exactly once regardless of how blocks are
// claimed. Nesting (a task issuing parallel_for on the same pool) must not
// deadlock, because EdgeBol runs the three surrogates' parallel rebuilds as
// three tasks on one pool.

#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

namespace edgebol::common {
namespace {

std::vector<double> run_fill(ThreadPool& pool, std::size_t n,
                             std::size_t grain) {
  std::vector<double> out(n, 0.0);
  pool.parallel_for(n, grain, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      out[i] = static_cast<double>(i) * 1.5 + 1.0;
    }
  });
  return out;
}

TEST(ThreadPool, SerialPoolRunsEveryIndexOnce) {
  ThreadPool pool(1);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(hits.size(), 64, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnceAcrossSizes) {
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    ThreadPool pool(threads);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{63},
                          std::size_t{64}, std::size_t{65}, std::size_t{777}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, 64, [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) hits[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
    }
  }
}

TEST(ThreadPool, ResultsIdenticalForAnyThreadCount) {
  ThreadPool p1(1), p2(2), p8(8);
  const std::vector<double> a = run_fill(p1, 5000, 128);
  const std::vector<double> b = run_fill(p2, 5000, 128);
  const std::vector<double> c = run_fill(p8, 5000, 128);
  EXPECT_EQ(a, b);  // element-wise bitwise equality for doubles from ==
  EXPECT_EQ(a, c);
}

TEST(ThreadPool, RunTasksExecutesAll) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> done(16);
  std::vector<std::function<void()>> tasks;
  for (std::size_t t = 0; t < done.size(); ++t) {
    tasks.push_back([&done, t] { done[t].fetch_add(1); });
  }
  pool.run_tasks(tasks);
  for (auto& d : done) EXPECT_EQ(d.load(), 1);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::array<std::vector<double>, 3> results;
  std::vector<std::function<void()>> tasks;
  for (std::size_t t = 0; t < 3; ++t) {
    tasks.push_back([&pool, &results, t] {
      std::vector<double> out(2000, 0.0);
      pool.parallel_for(out.size(), 100, [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          out[i] = static_cast<double>(t + 1) * static_cast<double>(i);
        }
      });
      results[t] = std::move(out);
    });
  }
  pool.run_tasks(tasks);
  for (std::size_t t = 0; t < 3; ++t) {
    ASSERT_EQ(results[t].size(), 2000u);
    for (std::size_t i = 0; i < results[t].size(); ++i) {
      EXPECT_DOUBLE_EQ(results[t][i],
                       static_cast<double>(t + 1) * static_cast<double>(i));
    }
  }
}

TEST(ThreadPool, ExceptionPropagatesFromWorkerBlock) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(100, 10,
                          [&](std::size_t i0, std::size_t) {
                            if (i0 >= 50) throw std::runtime_error("boom");
                          }),
        std::runtime_error);
    // The pool must stay usable after an exception.
    std::atomic<int> count{0};
    pool.parallel_for(100, 10, [&](std::size_t i0, std::size_t i1) {
      count.fetch_add(static_cast<int>(i1 - i0));
    });
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(ThreadPool, ExceptionPropagatesFromRunTasks) {
  ThreadPool pool(4);
  std::vector<std::function<void()>> tasks;
  tasks.push_back([] {});
  tasks.push_back([] { throw std::invalid_argument("task failed"); });
  tasks.push_back([] {});
  EXPECT_THROW(pool.run_tasks(tasks), std::invalid_argument);
}

TEST(ThreadPool, EmptyRangeNeverInvokesBody) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    std::atomic<int> calls{0};
    for (std::size_t grain : {std::size_t{1}, std::size_t{64}}) {
      pool.parallel_for(0, grain,
                        [&](std::size_t, std::size_t) { calls.fetch_add(1); });
    }
    EXPECT_EQ(calls.load(), 0);
    pool.run_tasks({});
  }
}

TEST(ThreadPool, ZeroGrainThrows) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10, 0, [](std::size_t, std::size_t) {}),
               std::invalid_argument);
}

TEST(ThreadPool, GrainLargerThanRangeIsOneExactBlock) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    std::atomic<int> calls{0};
    std::size_t seen_begin = 99, seen_end = 99;
    pool.parallel_for(7, 100, [&](std::size_t i0, std::size_t i1) {
      calls.fetch_add(1);
      seen_begin = i0;
      seen_end = i1;
    });
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(seen_begin, 0u);
    EXPECT_EQ(seen_end, 7u);  // clamped to n, not grain
  }
}

TEST(ThreadPool, ExceptionInNestedTaskDoesNotDeadlockHelpers) {
  // A task body that rethrows from a nested parallel_for while sibling tasks
  // still have queued work: the work-helping waits in run_tasks must retire
  // every block and surface the error instead of deadlocking.
  ThreadPool pool(4);
  for (int rep = 0; rep < 25; ++rep) {
    std::atomic<int> sibling_indices{0};
    std::vector<std::function<void()>> tasks;
    tasks.push_back([&pool] {
      pool.parallel_for(100, 5, [](std::size_t i0, std::size_t) {
        if (i0 == 50) throw std::runtime_error("inner boom");
      });
    });
    tasks.push_back([&pool, &sibling_indices] {
      pool.parallel_for(100, 5, [&](std::size_t i0, std::size_t i1) {
        sibling_indices.fetch_add(static_cast<int>(i1 - i0));
      });
    });
    EXPECT_THROW(pool.run_tasks(tasks), std::runtime_error);
    // The non-throwing sibling still ran to completion.
    EXPECT_EQ(sibling_indices.load(), 100);
  }
}

TEST(ThreadPool, DestructionWithInFlightWorkDrains) {
  // Destroying the pool while another thread's parallel_for still has queued
  // blocks must execute every block (never drop), then stop the workers —
  // without deadlocking either side.
  std::atomic<int> executed{0};
  auto pool = std::make_unique<ThreadPool>(4);
  ThreadPool& ref = *pool;
  std::thread caller([&executed, &ref] {
    ref.parallel_for(64, 1, [&executed](std::size_t, std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      executed.fetch_add(1);
    });
  });
  // Only destroy once the group is demonstrably in flight.
  while (executed.load() == 0) std::this_thread::yield();
  pool.reset();
  caller.join();
  EXPECT_EQ(executed.load(), 64);
}

TEST(ThreadPool, ZeroAndOneSizedWork) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, 16, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> one{0};
  pool.parallel_for(1, 16,
                    [&](std::size_t i0, std::size_t i1) {
                      EXPECT_EQ(i0, 0u);
                      EXPECT_EQ(i1, 1u);
                      one.fetch_add(1);
                    });
  EXPECT_EQ(one.load(), 1);
}

}  // namespace
}  // namespace edgebol::common
