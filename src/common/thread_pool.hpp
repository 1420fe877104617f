// Fixed-size thread pool with a deterministic block-partitioned parallel_for.
//
// The GP posterior engine parallelizes over candidate-column blocks and over
// independent likelihood probes. Determinism is load-bearing: the zero-fault
// bit-identity guarantee (PR 1) requires that results do not depend on the
// number of threads. parallel_for therefore partitions [0, n) into fixed-size
// blocks whose boundaries depend only on (n, grain) — never on the thread
// count — and callers must only write disjoint outputs per index. Under that
// contract every floating-point operation sequence per output element is
// identical for 1 thread and for N, so the results are bit-identical.
//
// Nested use is supported: a task running on the pool may itself call
// parallel_for. A thread waiting for its own blocks to finish helps execute
// whatever other blocks are queued, so nesting cannot deadlock and idle
// threads always have work to steal.

#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.hpp"

namespace edgebol::common {

class ThreadPool {
 public:
  /// `num_threads` is the total concurrency including the calling thread:
  /// the pool spawns num_threads - 1 workers. 0 and 1 both mean "serial"
  /// (no workers; parallel_for degenerates to an in-order loop).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains before stopping: waits for every in-flight parallel_for /
  /// run_tasks (including ones issued from other threads) to finish, then
  /// joins the workers. Queued-but-unclaimed blocks are executed, never
  /// dropped, so destruction with work outstanding cannot deadlock a caller
  /// blocked in parallel_for.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size() + 1; }

  /// Execute fn(begin, end) over the fixed-size blocks partitioning [0, n).
  /// Blocks may run on any thread in any order, so fn must write only
  /// locations derived from its index range. Blocks are [k*grain,
  /// min((k+1)*grain, n)) — a function of (n, grain) only, which is what
  /// makes results thread-count-invariant. The first exception thrown by any
  /// block is rethrown here after all blocks finish.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Run a small set of independent tasks concurrently (each may itself use
  /// parallel_for; nested calls share this pool's workers).
  void run_tasks(const std::vector<std::function<void()>>& tasks);

 private:
  // One parallel_for invocation: a group of blocks claimed via `next` and
  // retired via `done`, both guarded by the pool mutex (blocks are
  // coarse-grained, so the lock is not contended in the hot loop).
  struct Group {
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::size_t grain = 1;
    std::size_t num_blocks = 0;
    std::size_t next = 0;
    std::size_t done = 0;
    std::exception_ptr error;
  };

  void worker_loop();
  // Claims and runs one block of `g`. Pre: lock held; post: lock held.
  // Takes the group by value: callers pass the shared_ptr living inside
  // open_groups_, and claiming the last block erases that element — a
  // by-reference parameter would dangle across the erase (and the body
  // call, which may push/erase further groups while the lock is dropped).
  void run_one_block(std::shared_ptr<Group> g, MutexLock& lock)
      EB_REQUIRES(mu_);

  // mu_ is a leaf in the lock hierarchy (DESIGN.md §5e): it is dropped
  // around every user-function call, so no other lock is ever taken
  // while it is held. Group fields (next/done/error) are mu_-guarded too;
  // they live on the heap so the annotation cannot name mu_ directly.
  Mutex mu_{"ThreadPool::mu_"};
  CondVar cv_;
  std::vector<std::shared_ptr<Group>> open_groups_
      EB_GUARDED_BY(mu_);  // groups with unclaimed blocks
  std::size_t active_ EB_GUARDED_BY(mu_) =
      0;  // callers currently inside the pooled path
  bool stop_ EB_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace edgebol::common
