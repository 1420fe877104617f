// EINTR-safe POSIX socket wrappers and RAII file descriptors.
//
// Every socket syscall the message plane issues goes through this one file
// (scripts/invariant_lint.py rule R6 enforces it): the wrappers retry
// interruptible calls on EINTR, normalize would-block to a uniform status,
// and keep errno handling out of the event-loop logic. All sockets handed
// out are non-blocking; blocking behaviour is the event loop's job.

#pragma once

#include <poll.h>  // POLL* bits: the event vocabulary of loop callbacks
#include <sys/epoll.h>
#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace edgebol::net {

/// Owning file descriptor. Move-only; closes on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  /// Close (EINTR-aware) and forget the descriptor.
  void reset();

 private:
  int fd_ = -1;
};

/// Outcome of one non-blocking I/O attempt.
enum class IoStatus {
  kOk,          // >= 1 byte moved (count in *n)
  kWouldBlock,  // EAGAIN/EWOULDBLOCK/EINPROGRESS: retry when epoll says so
  kEof,         // orderly shutdown from the peer (reads only)
  kError,       // connection-fatal errno
};

/// Scattered read — readv() with EINTR retry; never blocks on a non-blocking
/// fd. Lets the mux decoder land one syscall's bytes across a ring-buffer
/// wrap without an intermediate copy.
IoStatus readv_some(int fd, const struct iovec* iov, int iovcnt,
                    std::size_t* n);

/// Gathered write — sendmsg() with MSG_NOSIGNAL (plain writev() cannot
/// suppress SIGPIPE) and EINTR retry; never blocks on a non-blocking fd.
/// One syscall flushes every frame the mux coalescer staged this iteration.
IoStatus writev_some(int fd, const struct iovec* iov, int iovcnt,
                     std::size_t* n);

/// epoll instance (close-on-exec). Invalid Fd when the kernel refuses one
/// (fd exhaustion); the event loop constructor then throws.
Fd epoll_create_fd();

/// Register or re-arm interest in `events` (EPOLL* bits) for fd. Resolves
/// the ADD-vs-MOD ambiguity internally (EEXIST -> MOD, ENOENT -> ADD) so the
/// caller can treat registration as idempotent. Returns false on real error.
bool epoll_set(int epfd, int fd, std::uint32_t events);

/// Remove fd from the epoll set (ENOENT tolerated).
void epoll_del(int epfd, int fd);

/// epoll_wait() with EINTR retry (the retry re-enters with the same
/// timeout; the loop recomputes deadlines itself, so a rare stretched sleep
/// is benign).
int epoll_wait_fds(int epfd, struct epoll_event* events, int max_events,
                   int timeout_ms);

/// Listening TCP socket on 127.0.0.1:port (port 0 = ephemeral), non-blocking,
/// SO_REUSEADDR. Returns an invalid Fd on failure.
Fd tcp_listen(std::uint16_t port);

/// Local port a bound socket ended up on (0 on failure).
std::uint16_t local_port(int fd);

/// accept() with EINTR retry; returned connection is non-blocking with
/// TCP_NODELAY. Invalid Fd when no connection is pending or on error.
Fd accept_client(int listen_fd);

/// Begin a non-blocking connect to host:port. On return, *in_progress tells
/// whether completion must be awaited via POLLOUT (then checked with
/// connect_finished). Invalid Fd on immediate failure.
Fd tcp_connect(const std::string& host, std::uint16_t port, bool* in_progress);

/// Resolve a completed non-blocking connect: true iff SO_ERROR is clean.
bool connect_finished(int fd);

/// Non-blocking pipe for event-loop wakeups. Returns false on failure.
bool make_wakeup_pipe(Fd* read_end, Fd* write_end);

/// Write one byte to the wakeup pipe (EINTR-safe; a full pipe is fine — the
/// loop is already scheduled to wake).
void wakeup_write(int fd);

/// Drain all pending bytes from the wakeup pipe.
void wakeup_drain(int fd);

}  // namespace edgebol::net
