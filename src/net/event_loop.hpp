// Single-threaded epoll event loop driving the TCP message plane.
//
// One loop owns one background thread; every fd watch, timer, and socket
// operation of the endpoints registered with it happens on that thread.
// Other threads talk to the loop exclusively through post(), which enqueues
// a task and wakes the wait via a self-pipe. This confinement is the whole
// concurrency story of src/net: endpoints need a mutex only for the queues
// they share with application threads, never for socket state.
//
// The interest set lives in the kernel (level-triggered epoll), so a mux
// fabric carrying a 1000-cell fleet pays O(ready), not O(watched), per
// wakeup. Callbacks see POLL* bits: epoll events are translated at the
// dispatch boundary.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "common/sync.hpp"
#include "net/socket.hpp"

namespace edgebol::net {

class EventLoop {
 public:
  using Task = std::function<void()>;
  /// Called with the revents bits that fired for the watched fd.
  using FdCallback = std::function<void(short)>;

  /// Spawns the loop thread; ready on return. Throws std::runtime_error
  /// when the wakeup pipe or the epoll instance cannot be created.
  EventLoop();

  /// Stops and joins the loop thread. Endpoints using this loop must be
  /// destroyed first.
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Enqueue a task for the loop thread (thread-safe). After the loop has
  /// stopped, the task runs inline on the caller — at that point the loop
  /// thread is joined and single-threaded teardown makes that safe.
  void post(Task task);

  /// Ask the loop thread to exit. Idempotent; the destructor joins.
  void stop();

  /// Milliseconds on the steady clock since loop construction.
  std::int64_t now_ms() const;

  bool on_loop_thread() const {
    return std::this_thread::get_id() == thread_.get_id();
  }

  /// Affinity assertion for `// affinity: loop` methods: the caller must be
  /// on the loop thread — or the loop must already have stopped, because
  /// post() then runs tasks inline on the (single-threaded, joined-loop)
  /// teardown path. Compiles out entirely under NDEBUG.
  void assert_on_loop_thread() const {
#ifndef NDEBUG
    if (!stopped_.load(std::memory_order_acquire) && !on_loop_thread())
      die_off_loop();
#endif
  }

  // --- Loop-thread-only interface (endpoints call these from callbacks
  // --- and posted tasks; asserted in debug builds) -----------------------

  /// Watch `fd` for `events` (POLLIN/POLLOUT). One watch per fd.
  void watch(int fd, short events, FdCallback cb);

  /// Change the event mask of an existing watch.
  void set_events(int fd, short events);

  /// Remove a watch. Safe to call from inside its own callback.
  void unwatch(int fd);

  /// One-shot timer after `delay_ms`; returns a cancellation id.
  std::uint64_t add_timer(std::int64_t delay_ms, Task task);

  /// Cancel a pending timer; no-op if it already fired or never existed.
  void cancel_timer(std::uint64_t id);

 private:
  struct Watch {
    short events = 0;
    FdCallback cb;
  };
  struct Timer {
    std::int64_t due_ms = 0;
    Task task;
  };

  void run();
  void run_posted_tasks();
  void run_due_timers();
  int next_timeout_ms() const;
  [[noreturn]] void die_off_loop() const;

  std::chrono::steady_clock::time_point epoch_;
  Fd epoll_fd_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};

  // Loop-thread-only state.
  std::map<int, Watch> watches_;
  std::map<std::uint64_t, Timer> timers_;
  std::uint64_t next_timer_id_ = 1;

  // Cross-thread task queue. tasks_mu_ sits one level below the endpoint
  // mutexes in the lock hierarchy (DESIGN.md §5e): endpoints post() while
  // holding their own mu_, and nothing is ever acquired under tasks_mu_.
  common::Mutex tasks_mu_{"EventLoop::tasks_mu_"};
  std::vector<Task> tasks_ EB_GUARDED_BY(tasks_mu_);

  Fd wake_rd_;
  Fd wake_wr_;
  std::thread thread_;
};

}  // namespace edgebol::net
