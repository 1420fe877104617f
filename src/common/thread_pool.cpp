#include "common/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

namespace edgebol::common {

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t spawn = num_threads > 1 ? num_threads - 1 : 0;
  workers_.reserve(spawn);
  for (std::size_t i = 0; i < spawn; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // Drain first: workers abandon unclaimed blocks the moment stop_ is
    // set, so raising it while a group is open would strand a caller
    // blocked in parallel_for (and destroy mu_/cv_ under it). Wait until
    // every group retired and every caller left the pooled path.
    MutexLock lock(mu_);
    cv_.wait(lock, [this] { return open_groups_.empty() && active_ == 0; });
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::run_one_block(std::shared_ptr<Group> g, MutexLock& lock) {
  const std::size_t b = g->next++;
  if (g->next >= g->num_blocks) {
    // Last block claimed: retire the group from the open list so other
    // threads stop scanning it.
    open_groups_.erase(std::find(open_groups_.begin(), open_groups_.end(), g));
  }
  lock.unlock();
  const std::size_t begin = b * g->grain;
  const std::size_t end = std::min(begin + g->grain, g->n);
  std::exception_ptr err;
  try {
    (*g->fn)(begin, end);
  } catch (...) {
    err = std::current_exception();
  }
  lock.lock();
  if (err && !g->error) g->error = err;
  if (++g->done == g->num_blocks) cv_.notify_all();
}

void ThreadPool::worker_loop() {
  MutexLock lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !open_groups_.empty(); });
    if (stop_) return;
    if (open_groups_.empty()) continue;
    run_one_block(open_groups_.front(), lock);
  }
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (grain == 0) throw std::invalid_argument("parallel_for: grain must be > 0");
  const std::size_t num_blocks = (n + grain - 1) / grain;
  if (workers_.empty() || num_blocks == 1) {
    // Serial path: blocks in index order — by the disjoint-writes contract
    // this produces the same result as any parallel schedule.
    for (std::size_t b = 0; b < num_blocks; ++b) {
      const std::size_t begin = b * grain;
      fn(begin, std::min(begin + grain, n));
    }
    return;
  }

  auto g = std::make_shared<Group>();
  g->fn = &fn;
  g->n = n;
  g->grain = grain;
  g->num_blocks = num_blocks;

  MutexLock lock(mu_);
  ++active_;
  open_groups_.push_back(g);
  cv_.notify_all();
  while (g->done < g->num_blocks) {
    if (g->next < g->num_blocks) {
      run_one_block(g, lock);
    } else if (!open_groups_.empty()) {
      // Our blocks are all claimed but not finished: help whoever still has
      // work (this is what makes nested parallel_for deadlock-free).
      run_one_block(open_groups_.front(), lock);
    } else {
      cv_.wait(lock);
    }
  }
  // Wake a destructor waiting on the drain predicate.
  if (--active_ == 0) cv_.notify_all();
  if (g->error) {
    std::exception_ptr err = g->error;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::run_tasks(const std::vector<std::function<void()>>& tasks) {
  parallel_for(tasks.size(), 1,
               [&tasks](std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) tasks[i]();
               });
}

}  // namespace edgebol::common
