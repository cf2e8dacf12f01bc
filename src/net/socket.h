// Thin POSIX TCP helpers for the shard transport: an RAII fd, listen /
// connect / accept, and frame-sized full reads/writes. Deliberately
// minimal — the interesting machinery (epoll loop, multiplexing) lives in
// ppr_server / remote_client; this file is the only one that talks errno,
// and the only one that sets socket options: every stream socket of the
// fleet is made by TcpConnect or TcpAccept, both with Nagle off.

#ifndef DPPR_NET_SOCKET_H_
#define DPPR_NET_SOCKET_H_

#include <cstddef>
#include <string>

#include "util/status.h"

namespace dppr {
namespace net {

/// \brief Owning file descriptor; closes on destruction. Move-only.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() { Close(); }

  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  ScopedFd(ScopedFd&& other) noexcept : fd_(other.Release()) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.Release();
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int Release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Close();

 private:
  int fd_ = -1;
};

/// Opens a listening TCP socket on `port` (0 = kernel-assigned ephemeral
/// port, reported through *bound_port), SO_REUSEADDR set, all interfaces.
Status TcpListen(int port, ScopedFd* out, int* bound_port);

/// Connects to host:port (numeric address or name) with TCP_NODELAY set.
Status TcpConnect(const std::string& host, int port, ScopedFd* out);

/// Accepts one connection on `listen_fd` and returns it non-blocking with
/// TCP_NODELAY set. IOError when accept fails — on a non-blocking
/// listener, EAGAIN means nothing is pending. A connection whose setup
/// fails is closed and the next pending one is taken instead.
Status TcpAccept(int listen_fd, ScopedFd* out);

Status SetNonBlocking(int fd);

/// Reads exactly `bytes` from a blocking fd. IOError on EOF or error —
/// a clean peer close mid-message and a reset look the same to a framed
/// protocol: the message never completed.
Status ReadFully(int fd, void* data, size_t bytes);

/// Writes exactly `bytes`. Works on blocking AND non-blocking fds (polls
/// for writability on EAGAIN), so response writers can share code with
/// the epoll side. SIGPIPE is avoided via MSG_NOSIGNAL.
Status WriteFully(int fd, const void* data, size_t bytes);

/// WriteFully with a total deadline: IOError once `timeout_ms` elapses
/// without the write completing (timeout_ms < 0 = no deadline). The
/// server bounds every response write with this so a peer that stops
/// reading stalls only its own connection, never a server thread forever.
Status WriteFullyDeadline(int fd, const void* data, size_t bytes,
                          int timeout_ms);

}  // namespace net
}  // namespace dppr

#endif  // DPPR_NET_SOCKET_H_
