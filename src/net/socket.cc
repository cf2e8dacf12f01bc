#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace dppr {
namespace net {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

/// Turns Nagle off. Both ends write each frame with one send, and with
/// Nagle on a small frame sent while an earlier one is un-ACKed is held
/// until the peer's next segment or its delayed-ACK timer (~40 ms).
Status SetNoDelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return Errno("setsockopt TCP_NODELAY");
  }
  return Status::OK();
}

}  // namespace

void ScopedFd::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status TcpListen(int port, ScopedFd* out, int* bound_port) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  const int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("bind to port " + std::to_string(port));
  }
  if (::listen(fd.get(), 128) != 0) return Errno("listen");

  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0) {
      return Errno("getsockname");
    }
    *bound_port = ntohs(bound.sin_port);
  }
  *out = std::move(fd);
  return Status::OK();
}

Status TcpConnect(const std::string& host, int port, ScopedFd* out) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &results);
  if (rc != 0) {
    return Status::IOError("resolve '" + host + "': " + gai_strerror(rc));
  }

  Status last = Status::IOError("no addresses for '" + host + "'");
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    ScopedFd fd(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!fd.valid()) {
      last = Errno("socket");
      continue;
    }
    if (::connect(fd.get(), ai->ai_addr, ai->ai_addrlen) != 0) {
      last = Errno("connect to " + host + ":" + std::to_string(port));
      continue;
    }
    last = SetNoDelay(fd.get());
    if (!last.ok()) continue;
    ::freeaddrinfo(results);
    *out = std::move(fd);
    return Status::OK();
  }
  ::freeaddrinfo(results);
  return last;
}

Status TcpAccept(int listen_fd, ScopedFd* out) {
  for (;;) {
    ScopedFd fd(::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK));
    if (!fd.valid()) return Errno("accept");
    if (SetNoDelay(fd.get()).ok()) {
      *out = std::move(fd);
      return Status::OK();
    }
  }
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl O_NONBLOCK");
  }
  return Status::OK();
}

Status ReadFully(int fd, void* data, size_t bytes) {
  auto* p = static_cast<char*>(data);
  size_t done = 0;
  while (done < bytes) {
    const ssize_t got = ::recv(fd, p + done, bytes - done, 0);
    if (got > 0) {
      done += static_cast<size_t>(got);
      continue;
    }
    if (got == 0) return Status::IOError("connection closed by peer");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      pollfd pfd{fd, POLLIN, 0};
      (void)::poll(&pfd, 1, -1);
      continue;
    }
    return Errno("recv");
  }
  return Status::OK();
}

Status WriteFully(int fd, const void* data, size_t bytes) {
  return WriteFullyDeadline(fd, data, bytes, /*timeout_ms=*/-1);
}

Status WriteFullyDeadline(int fd, const void* data, size_t bytes,
                          int timeout_ms) {
  const auto* p = static_cast<const char*>(data);
  size_t done = 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (done < bytes) {
    const ssize_t sent =
        ::send(fd, p + done, bytes - done, MSG_NOSIGNAL);
    if (sent > 0) {
      done += static_cast<size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      int wait_ms = -1;
      if (timeout_ms >= 0) {
        const auto left = std::chrono::duration_cast<
            std::chrono::milliseconds>(deadline -
                                       std::chrono::steady_clock::now());
        wait_ms = static_cast<int>(left.count());
        if (wait_ms <= 0) {
          return Status::IOError("write deadline exceeded (peer stalled)");
        }
      }
      pollfd pfd{fd, POLLOUT, 0};
      (void)::poll(&pfd, 1, wait_ms);
      continue;
    }
    return Errno("send");
  }
  return Status::OK();
}

}  // namespace net
}  // namespace dppr
