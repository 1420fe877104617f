#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace edgebol::net {

namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_nodelay(int fd) {
  int one = 1;
  // Best-effort: latency tuning, not correctness.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) {
    // On Linux, close() releases the descriptor even when it returns EINTR;
    // retrying could close an fd another thread just received. Check and
    // deliberately do not retry.
    if (::close(fd_) < 0 && errno == EINTR) {
      // Descriptor is gone regardless; nothing further to do.
    }
    fd_ = -1;
  }
}

IoStatus readv_some(int fd, const struct iovec* iov, int iovcnt,
                    std::size_t* n) {
  *n = 0;
  for (;;) {
    const ssize_t r = ::readv(fd, iov, iovcnt);
    if (r > 0) {
      *n = static_cast<std::size_t>(r);
      return IoStatus::kOk;
    }
    if (r == 0) return IoStatus::kEof;
    if (errno == EINTR) continue;  // interrupted before any byte: retry
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kWouldBlock;
    return IoStatus::kError;
  }
}

IoStatus writev_some(int fd, const struct iovec* iov, int iovcnt,
                     std::size_t* n) {
  *n = 0;
  msghdr msg{};
  msg.msg_iov = const_cast<struct iovec*>(iov);
  msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
  for (;;) {
    // sendmsg rather than writev: gathered write plus MSG_NOSIGNAL.
    const ssize_t r = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (r >= 0) {
      *n = static_cast<std::size_t>(r);
      return IoStatus::kOk;
    }
    if (errno == EINTR) continue;  // interrupted before any byte: retry
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kWouldBlock;
    return IoStatus::kError;
  }
}

Fd epoll_create_fd() {
  // Not interruptible; a failure here (fd exhaustion) makes the event loop
  // constructor throw.
  return Fd(::epoll_create1(EPOLL_CLOEXEC));
}

bool epoll_set(int epfd, int fd, std::uint32_t events) {
  struct epoll_event ev {};
  ev.events = events;
  ev.data.fd = fd;
  // epoll_ctl never blocks and does not fail with EINTR; the only expected
  // "errors" are the ADD/MOD registration races resolved below.
  if (::epoll_ctl(epfd, EPOLL_CTL_MOD, fd, &ev) == 0) return true;
  if (errno != ENOENT) return false;
  return ::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) == 0;
}

void epoll_del(int epfd, int fd) {
  // Non-blocking, no EINTR; ENOENT (already gone) is fine.
  (void)::epoll_ctl(epfd, EPOLL_CTL_DEL, fd, nullptr);
}

int epoll_wait_fds(int epfd, struct epoll_event* events, int max_events,
                   int timeout_ms) {
  for (;;) {
    const int r = ::epoll_wait(epfd, events, max_events, timeout_ms);
    if (r >= 0) return r;
    if (errno == EINTR) continue;  // retry with the same timeout
    return r;
  }
}

Fd tcp_listen(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Fd();
  int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) < 0)
    return Fd();
  sockaddr_in addr = loopback_addr(port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0)
    return Fd();
  if (::listen(fd.get(), 16) < 0) return Fd();
  if (!set_nonblocking(fd.get())) return Fd();
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0)
    return 0;
  return ntohs(addr.sin_port);
}

Fd accept_client(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      Fd conn(fd);
      if (!set_nonblocking(conn.get())) return Fd();
      set_nodelay(conn.get());
      return conn;
    }
    if (errno == EINTR) continue;  // interrupted accept: retry
    return Fd();                   // EAGAIN or a real error: nothing pending
  }
}

Fd tcp_connect(const std::string& host, std::uint16_t port,
               bool* in_progress) {
  *in_progress = false;
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Fd();
  if (!set_nonblocking(fd.get())) return Fd();
  set_nodelay(fd.get());
  sockaddr_in addr = loopback_addr(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return Fd();
  for (;;) {
    const int r = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr));
    if (r == 0) return fd;
    if (errno == EINTR) {
      // Interrupted connect proceeds asynchronously; await POLLOUT like
      // EINPROGRESS rather than re-issuing connect().
      *in_progress = true;
      return fd;
    }
    if (errno == EINPROGRESS) {
      *in_progress = true;
      return fd;
    }
    return Fd();
  }
}

bool connect_finished(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) return false;
  return err == 0;
}

bool make_wakeup_pipe(Fd* read_end, Fd* write_end) {
  int fds[2] = {-1, -1};
  if (::pipe(fds) < 0) return false;
  *read_end = Fd(fds[0]);
  *write_end = Fd(fds[1]);
  return set_nonblocking(read_end->get()) && set_nonblocking(write_end->get());
}

void wakeup_write(int fd) {
  const char byte = 1;
  for (;;) {
    const ssize_t r = ::write(fd, &byte, 1);
    if (r >= 0) return;
    if (errno == EINTR) continue;  // interrupted wakeup: retry
    return;  // EAGAIN: pipe full, the loop is awake already
  }
}

void wakeup_drain(int fd) {
  char buf[64];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r > 0) continue;
    if (r < 0 && errno == EINTR) continue;  // interrupted drain: retry
    return;  // empty (EAGAIN) or closed
  }
}

}  // namespace edgebol::net
