#include "net/event_loop.hpp"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace edgebol::net {

namespace {

// Translation between the POLL* bits endpoints speak and the EPOLL* bits
// the kernel stores. Level-triggered epoll with this mapping behaves
// exactly like poll for the event classes we use.
std::uint32_t to_epoll_events(short events) {
  std::uint32_t e = 0;
  if (events & POLLIN) e |= EPOLLIN;
  if (events & POLLOUT) e |= EPOLLOUT;
  return e;
}

short from_epoll_events(std::uint32_t e) {
  short events = 0;
  if (e & EPOLLIN) events |= POLLIN;
  if (e & EPOLLOUT) events |= POLLOUT;
  if (e & EPOLLERR) events |= POLLERR;
  if (e & EPOLLHUP) events |= POLLHUP;
  return events;
}

}  // namespace

EventLoop::EventLoop() : epoch_(std::chrono::steady_clock::now()) {
  // Without a wakeup pipe cross-thread posts cannot interrupt the wait, and
  // without epoll there is no wait at all; refuse to limp along.
  if (!make_wakeup_pipe(&wake_rd_, &wake_wr_)) {
    throw std::runtime_error("EventLoop: wakeup pipe creation failed");
  }
  epoll_fd_ = epoll_create_fd();
  if (!epoll_fd_.valid()) {
    throw std::runtime_error("EventLoop: epoll instance creation failed");
  }
  epoll_set(epoll_fd_.get(), wake_rd_.get(), EPOLLIN);
  thread_ = std::thread([this] { run(); });
}

EventLoop::~EventLoop() {
  stop();
  if (thread_.joinable()) thread_.join();
}

void EventLoop::stop() {
  stopping_.store(true, std::memory_order_release);
  wakeup_write(wake_wr_.get());
}

std::int64_t EventLoop::now_ms() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void EventLoop::die_off_loop() const {
  std::fprintf(stderr,
               "EventLoop: loop-affinity violation — a `// affinity: loop` "
               "method was called off the loop thread while the loop was "
               "running\n");
  std::fflush(stderr);
  std::abort();
}

void EventLoop::post(Task task) {
  {
    common::LockGuard lock(tasks_mu_);
    // stopped_ flips under this mutex, so the check and the push are one
    // atomic step: either the loop's final drain sees our task, or we see
    // the flag and run inline (single-threaded teardown makes that safe).
    if (!stopped_.load(std::memory_order_relaxed)) {
      tasks_.push_back(std::move(task));
      task = nullptr;
    }
  }
  if (task) {
    task();
    return;
  }
  wakeup_write(wake_wr_.get());
}

void EventLoop::watch(int fd, short events, FdCallback cb) {
  assert_on_loop_thread();  // affinity: loop
  watches_[fd] = Watch{events, std::move(cb)};
  epoll_set(epoll_fd_.get(), fd, to_epoll_events(events));
}

void EventLoop::set_events(int fd, short events) {
  assert_on_loop_thread();  // affinity: loop
  auto it = watches_.find(fd);
  if (it == watches_.end()) return;
  it->second.events = events;
  epoll_set(epoll_fd_.get(), fd, to_epoll_events(events));
}

void EventLoop::unwatch(int fd) {
  assert_on_loop_thread();  // affinity: loop
  // Deregister before the caller closes the fd: epoll keys entries by the
  // open file description, and a closed-then-reused fd number must not
  // inherit the old interest mask.
  if (watches_.count(fd) != 0) epoll_del(epoll_fd_.get(), fd);
  watches_.erase(fd);
}

std::uint64_t EventLoop::add_timer(std::int64_t delay_ms, Task task) {
  assert_on_loop_thread();  // affinity: loop
  const std::uint64_t id = next_timer_id_++;
  timers_[id] = Timer{now_ms() + delay_ms, std::move(task)};
  return id;
}

void EventLoop::cancel_timer(std::uint64_t id) {
  assert_on_loop_thread();  // affinity: loop
  timers_.erase(id);
}

int EventLoop::next_timeout_ms() const {
  if (timers_.empty()) return -1;  // sleep until a wakeup byte arrives
  std::int64_t next_due = timers_.begin()->second.due_ms;
  for (const auto& [id, timer] : timers_) {
    (void)id;
    if (timer.due_ms < next_due) next_due = timer.due_ms;
  }
  const std::int64_t wait = next_due - now_ms();
  if (wait <= 0) return 0;
  return static_cast<int>(wait > 60000 ? 60000 : wait);
}

void EventLoop::run_posted_tasks() {
  std::vector<Task> batch;
  {
    common::LockGuard lock(tasks_mu_);
    batch.swap(tasks_);
  }
  for (Task& task : batch) task();
}

void EventLoop::run_due_timers() {
  const std::int64_t now = now_ms();
  // Collect ids first: a firing timer may add or cancel other timers.
  std::vector<std::uint64_t> due;
  for (const auto& [id, timer] : timers_) {
    if (timer.due_ms <= now) due.push_back(id);
  }
  for (std::uint64_t id : due) {
    auto it = timers_.find(id);
    if (it == timers_.end()) continue;  // cancelled by an earlier firing
    Task task = std::move(it->second.task);
    timers_.erase(it);
    task();
  }
}

void EventLoop::run() {
  // Fixed-size event batch: level-triggered epoll re-reports anything not
  // consumed this iteration, so a small batch bounds latency, not delivery.
  std::array<struct epoll_event, 64> events;
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n =
        epoll_wait_fds(epoll_fd_.get(), events.data(),
                       static_cast<int>(events.size()), next_timeout_ms());

    // Drain the wake pipe before running tasks, so a post() that lands
    // while the tasks run re-arms the next wait instead of being lost.
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == wake_rd_.get()) wakeup_drain(wake_rd_.get());
    }
    run_posted_tasks();
    run_due_timers();

    // Dispatch through a fresh lookup: a task or an earlier callback this
    // iteration may have unwatched (and closed) the fd.
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_rd_.get()) continue;
      auto it = watches_.find(fd);
      if (it == watches_.end()) continue;
      it->second.cb(from_epoll_events(events[i].events));
    }
  }
  // Flip stopped_ under the task mutex: every post() either already pushed
  // (the drain below runs it) or will see the flag and run inline. No task
  // can be stranded.
  {
    common::LockGuard lock(tasks_mu_);
    stopped_.store(true, std::memory_order_relaxed);
  }
  run_posted_tasks();
}

}  // namespace edgebol::net
