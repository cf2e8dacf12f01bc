// PprServer — the network skin over one local PprService shard.
//
// One epoll I/O thread owns the listening socket and every connection's
// read side: it accepts, accumulates bytes, slices complete frames, and
// hands them to a small handler pool through a bounded queue (the same
// BoundedQueue the service itself uses, so transport admission control
// composes with service admission control: a handler queue overflow is
// answered kShedQueueFull exactly like a service queue overflow). Handler
// threads execute the verb against the PprService — they block on the
// service future, which is fine: the service's own worker pool is the
// concurrency engine, the handlers are just couriers — and write the
// response frame directly (per-connection write mutex; request_id
// multiplexing means response order does not matter).
//
// Failure policy, chosen for a memory-safety-first transport:
//   * a frame that fails HEADER validation (bad magic, unknown verb,
//     oversized length prefix) poisons the connection — it is closed
//     immediately, because after a framing error the byte stream has no
//     trustworthy structure left;
//   * a frame whose PAYLOAD fails to decode (valid framing, garbage
//     content) is answered kRejected and the connection survives;
//   * both are counted in protocol_errors() for tests and monitoring;
//   * a frame that finds the handler queue full is answered
//     kShedQueueFull by the I/O thread, queued behind a handler that is
//     mid-write rather than waited for, and the connection survives.
//
// Lifecycle: construct over a STARTED PprService, Start(), serve,
// Stop() (also run by the destructor). Stop the server BEFORE stopping
// the service, so in-flight handlers resolve instead of waiting on a
// service that no longer answers.

#ifndef DPPR_NET_PPR_SERVER_H_
#define DPPR_NET_PPR_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"
#include "server/ppr_service.h"
#include "server/request_queue.h"

namespace dppr {
namespace net {

struct PprServerOptions {
  int port = 0;  ///< 0 = kernel-assigned ephemeral port (see port())
  int num_handlers = 4;
  size_t handler_queue_capacity = 256;
  size_t max_frame_payload = kDefaultMaxFramePayload;
  /// Ceiling on one response write from a handler thread. A peer that
  /// stops reading gets its connection shut down when this expires, so a
  /// stalled client pins a handler for a bounded time, never forever.
  int write_timeout_ms = 10'000;
  /// Ceiling on the (rare) responses the epoll I/O thread writes itself —
  /// the shed answers for a full handler queue. Deliberately tight: the
  /// I/O thread serves every connection, so it must never wait long on
  /// one of them. A healthy peer's send buffer takes these ~50-byte
  /// frames instantly; one that cannot is stalled and gets disconnected.
  int io_write_timeout_ms = 50;
};

/// \brief Serves one PprService shard over TCP. See file comment.
class PprServer {
 public:
  PprServer(PprService* service, const PprServerOptions& options);
  ~PprServer();

  PprServer(const PprServer&) = delete;
  PprServer& operator=(const PprServer&) = delete;

  /// Binds, listens, spawns the I/O thread and the handler pool.
  /// Single-use, like the service it skins.
  Status Start();
  /// Closes the listener and every connection, joins all threads.
  /// Idempotent. In-flight requests finish (their writes fail silently
  /// once the peer is gone).
  void Stop();

  /// The bound port (valid after a successful Start).
  int port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Frames rejected for framing or payload errors since Start.
  int64_t protocol_errors() const {
    return protocol_errors_.load(std::memory_order_relaxed);
  }

  /// Read requests whose deadline expired in the handler queue and were
  /// answered kShedDeadline without touching the service.
  int64_t deadline_sheds() const {
    return deadline_sheds_.load(std::memory_order_relaxed);
  }

 private:
  /// One accepted connection. The epoll thread owns the read side; any
  /// handler may write under `write_mu`. The fd closes when the last
  /// shared_ptr drops, so a handler mid-write never races an fd reuse.
  struct Conn {
    explicit Conn(ScopedFd in_fd) : fd(std::move(in_fd)) {}
    ScopedFd fd;
    std::string inbuf;
    std::mutex write_mu;
    /// Shed answers the I/O thread queued for this connection, whole
    /// frames back to back (see SendLocked).
    std::mutex shed_mu;
    std::string shed_frames;  ///< guarded by shed_mu
  };

  struct Work {
    std::shared_ptr<Conn> conn;
    FrameHeader header;
    std::string payload;
    /// When the I/O thread sliced this frame off the socket. A read
    /// verb's RELATIVE deadline is re-anchored by the service at
    /// submission, so without this stamp the time a request spent parked
    /// in the handler queue would not count against its deadline — the
    /// handler subtracts the queue wait (and sheds outright once the
    /// budget is gone) before touching the service.
    std::chrono::steady_clock::time_point received;
  };

  void EpollLoop();
  void HandlerLoop();
  void AcceptNewConns();
  /// Drains readable bytes and dispatches complete frames; false means
  /// the connection should be dropped (EOF, error, or framing violation).
  bool ServiceReadable(const std::shared_ptr<Conn>& conn);
  /// Executes one verb against the service and writes the response.
  void Execute(const Work& work);
  /// Writes one response frame within `timeout_ms`; on failure (peer
  /// gone or stalled past the deadline) shuts the connection down so the
  /// epoll thread reaps it. With `try_only` (the I/O thread's mode) a
  /// busy write mutex is not waited for: the frame joins the
  /// connection's shed queue, which the thread holding the mutex sends,
  /// so the I/O thread never parks behind one peer. A queue that would
  /// pass max_frame_payload bytes belongs to a peer flooding without
  /// reading; that connection is shut down instead.
  void WriteResponse(const std::shared_ptr<Conn>& conn, Verb verb,
                     uint64_t request_id, const std::string& payload,
                     int timeout_ms, bool try_only = false);
  /// With `lock` holding conn->write_mu: writes `frame` (may be empty),
  /// then the shed queue until it is empty, and releases the mutex under
  /// shed_mu, so a frame queued while this thread held the mutex is
  /// never stranded.
  void SendLocked(Conn* conn, std::unique_lock<std::mutex> lock,
                  std::string frame, int timeout_ms);
  /// Responds with a bare status in the verb's response shape (queries
  /// get a QueryResponse, maintenance verbs a MaintResponse, ...).
  void WriteStatusResponse(const std::shared_ptr<Conn>& conn, Verb verb,
                           uint64_t request_id, RequestStatus status,
                           int timeout_ms, bool try_only = false);

  PprService* service_;
  PprServerOptions options_;
  int port_ = -1;
  ScopedFd listen_fd_;
  ScopedFd epoll_fd_;
  ScopedFd wake_fd_;  ///< eventfd: kicks the epoll thread awake on Stop
  BoundedQueue<Work> handler_queue_;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;  ///< epoll thread
  std::thread io_thread_;
  std::vector<std::thread> handlers_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::atomic<int64_t> protocol_errors_{0};
  std::atomic<int64_t> deadline_sheds_{0};
};

}  // namespace net
}  // namespace dppr

#endif  // DPPR_NET_PPR_SERVER_H_
