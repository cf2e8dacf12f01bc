#include "net/ppr_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <thread>
#include <utility>

#include "router/migration.h"
#include "util/histogram.h"
#include "util/macros.h"

namespace dppr {
namespace net {

PprServer::PprServer(PprService* service, const PprServerOptions& options)
    : service_(service),
      options_(options),
      handler_queue_(options.handler_queue_capacity) {
  DPPR_CHECK(service != nullptr);
  DPPR_CHECK(options.num_handlers >= 1);
}

PprServer::~PprServer() { Stop(); }

Status PprServer::Start() {
  DPPR_CHECK_MSG(!started_, "PprServer is single-use: Start may run once");
  started_ = true;
  DPPR_RETURN_NOT_OK(TcpListen(options_.port, &listen_fd_, &port_));
  DPPR_RETURN_NOT_OK(SetNonBlocking(listen_fd_.get()));

  epoll_fd_ = ScopedFd(::epoll_create1(0));
  if (!epoll_fd_.valid()) return Status::IOError("epoll_create1 failed");
  wake_fd_ = ScopedFd(::eventfd(0, EFD_NONBLOCK));
  if (!wake_fd_.valid()) return Status::IOError("eventfd failed");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_.get();
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, listen_fd_.get(), &ev) !=
      0) {
    return Status::IOError("epoll_ctl(listen) failed");
  }
  ev.data.fd = wake_fd_.get();
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev) !=
      0) {
    return Status::IOError("epoll_ctl(wake) failed");
  }

  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { EpollLoop(); });
  for (int i = 0; i < options_.num_handlers; ++i) {
    handlers_.emplace_back([this] { HandlerLoop(); });
  }
  return Status::OK();
}

void PprServer::Stop() {
  // Idempotent; the first caller owns the teardown.
  if (!started_ || stopping_.exchange(true)) return;
  // Kick the epoll thread awake; it tears down every connection.
  const uint64_t one = 1;
  (void)!::write(wake_fd_.get(), &one, sizeof(one));
  if (io_thread_.joinable()) io_thread_.join();
  handler_queue_.Close();
  for (auto& handler : handlers_) {
    if (handler.joinable()) handler.join();
  }
  running_.store(false, std::memory_order_release);
}

void PprServer::EpollLoop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_.get(), events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_.get()) continue;  // stop flag checked by the loop
      if (fd == listen_fd_.get()) {
        AcceptNewConns();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // already dropped this round
      const bool keep = (events[i].events & (EPOLLHUP | EPOLLERR)) == 0 &&
                        ServiceReadable(it->second);
      if (!keep) {
        (void)::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
        // The fd itself closes when the last shared_ptr (possibly held
        // by an in-flight handler) lets go of the Conn.
        conns_.erase(it);
      }
    }
  }
  // Teardown: drop every connection; peers see EOF once in-flight
  // handlers release their references.
  for (auto& [fd, conn] : conns_) {
    (void)::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
  }
  conns_.clear();
  listen_fd_.Close();
}

void PprServer::AcceptNewConns() {
  for (;;) {
    ScopedFd scoped;
    // EAGAIN (or a transient error): nothing to do.
    if (!TcpAccept(listen_fd_.get(), &scoped).ok()) return;
    const int fd = scoped.get();
    auto conn = std::make_shared<Conn>(std::move(scoped));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) continue;
    conns_.emplace(fd, std::move(conn));
  }
}

bool PprServer::ServiceReadable(const std::shared_ptr<Conn>& conn) {
  // Drain the socket (level-triggered, but one pass per wakeup is the
  // same work either way).
  // The buffer stays bounded without a size check here: every complete
  // frame is sliced off below before the next epoll wakeup, an
  // INCOMPLETE frame is at most header + max_frame_payload bytes (any
  // larger claim is rejected at header decode), and one drain pass adds
  // at most a socket buffer's worth on top.
  char buf[1 << 16];
  for (;;) {
    const ssize_t got = ::recv(conn->fd.get(), buf, sizeof(buf), 0);
    if (got > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(got));
      continue;
    }
    if (got == 0) return false;  // EOF
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }

  // Slice complete frames off the front.
  size_t pos = 0;
  bool ok = true;
  while (conn->inbuf.size() - pos >= kFrameHeaderBytes) {
    FrameHeader header;
    if (!DecodeFrameHeader(conn->inbuf.data() + pos,
                           options_.max_frame_payload, &header)
             .ok()) {
      // Framing violation: the stream has no trustworthy structure left.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      ok = false;
      break;
    }
    if (conn->inbuf.size() - pos - kFrameHeaderBytes < header.payload_bytes) {
      break;  // frame incomplete; wait for more bytes
    }
    std::string payload = conn->inbuf.substr(pos + kFrameHeaderBytes,
                                             header.payload_bytes);
    pos += kFrameHeaderBytes + header.payload_bytes;
    if (header.IsResponse()) {
      // Servers take requests; a response frame here is peer confusion.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      ok = false;
      break;
    }
    Work work{conn, header, std::move(payload),
              std::chrono::steady_clock::now()};
    if (!handler_queue_.TryPush(std::move(work))) {
      // Transport-level admission control, same contract as the service
      // queues: too busy is an answer, not a hang. Queued or written
      // under the TIGHT deadline — this runs on the I/O thread, which
      // owes every other connection its attention.
      WriteStatusResponse(conn, header.verb, header.request_id,
                          RequestStatus::kShedQueueFull,
                          options_.io_write_timeout_ms,
                          /*try_only=*/true);
    }
  }
  conn->inbuf.erase(0, pos);
  return ok;
}

void PprServer::HandlerLoop() {
  for (;;) {
    std::optional<Work> work = handler_queue_.Pop();
    if (!work.has_value()) return;  // queue closed: shutting down
    Execute(*work);
  }
}

void PprServer::Execute(const Work& work) {
  const Verb verb = work.header.verb;
  const uint64_t id = work.header.request_id;
  auto reject = [&] {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    WriteStatusResponse(work.conn, verb, id, RequestStatus::kRejected,
                        options_.write_timeout_ms);
  };
  // Charges handler-queue wait against a read's RELATIVE deadline (the
  // service re-anchors it at submission, so the queue time would
  // otherwise be free). Returns false — after answering kShedDeadline —
  // when the budget is already gone: the client has given up, and
  // LocalShardBackend reads shed exactly this way through the service's
  // own expiry check.
  auto residual_deadline = [&](int64_t* deadline_ms) {
    if (*deadline_ms <= 0) return true;  // no deadline / service default
    const int64_t waited_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - work.received)
            .count();
    if (waited_ms < *deadline_ms) {
      *deadline_ms -= waited_ms;
      return true;
    }
    deadline_sheds_.fetch_add(1, std::memory_order_relaxed);
    WriteStatusResponse(work.conn, verb, id, RequestStatus::kShedDeadline,
                        options_.write_timeout_ms);
    return false;
  };

  std::string out;
  if (FindVerbRule(verb) != nullptr) {
    Request request;
    if (!DecodeRequest(verb, work.payload, &request).ok()) return reject();
    if (IsRead(verb)) {
      if (!residual_deadline(&request.deadline_ms)) return;
      EncodeQueryResponse(service_->Read(request).get(), &out);
    } else {
      EncodeMaintResponse(service_->Feed(std::move(request)).get(), &out);
    }
    return WriteResponse(work.conn, verb, id, out, options_.write_timeout_ms);
  }
  switch (verb) {
    case Verb::kMultiSource: {
      MultiSourceRequest req;
      if (!DecodeMultiSourceRequest(work.payload, &req).ok()) {
        return reject();
      }
      if (!residual_deadline(&req.deadline_ms)) return;
      EncodeMultiSourceResponse(
          RequestStatus::kOk,
          service_
              ->MultiSourceAsync(std::move(req.sources), req.vertex,
                                 req.deadline_ms)
              .get(),
          &out);
      break;
    }
    case Verb::kExtractSource: {
      VertexId s = kInvalidVertex;
      if (!DecodeSourceRequest(work.payload, &s).ok()) return reject();
      ExportedSource exported;
      const MaintResponse response =
          service_->ExtractSourceAsync(s, &exported).get();
      std::string blob;
      if (response.status == RequestStatus::kOk) {
        const Status st = EncodeMigrationBlob(exported, &blob);
        DPPR_CHECK_MSG(st.ok(), st.message().c_str());
        if (blob.size() + 16 > options_.max_frame_payload) {
          // The blob cannot legally cross this transport. Undo the
          // extraction (same epoch, no recompute) and refuse, instead of
          // losing the source or poisoning the framing. The undo retries
          // through shed: the maintenance queue can legitimately be full
          // (workers file fire-and-forget materialization requests), and
          // giving up would lose the source — the one forbidden outcome.
          for (;;) {
            const MaintResponse undone =
                service_->InjectSourceAsync(exported).get();
            if (undone.status != RequestStatus::kShedQueueFull) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          return reject();
        }
      }
      EncodeExtractResponse(response, blob, &out);
      break;
    }
    case Verb::kInjectSource: {
      ExportedSource incoming;
      if (!DecodeMigrationBlob(work.payload, &incoming).ok()) {
        return reject();  // checksum/structure failure: refuse the source
      }
      EncodeMaintResponse(
          service_->InjectSourceAsync(std::move(incoming)).get(), &out);
      break;
    }
    case Verb::kStats: {
      bool include_samples = false;
      if (!DecodeStatsRequest(work.payload, &include_samples).ok()) {
        return reject();
      }
      ShardStats stats;
      stats.num_vertices = static_cast<uint32_t>(
          service_->index()->graph()->NumVertices());
      stats.num_sources = service_->index()->NumSources();
      stats.max_epoch = service_->index()->Epoch();
      stats.graph_checksum = service_->index()->graph()->Checksum();
      stats.running = service_->running() ? 1 : 0;
      Histogram query_ms;
      Histogram batch_ms;
      service_->SnapshotMetrics(&stats.report,
                                include_samples ? &query_ms : nullptr,
                                include_samples ? &batch_ms : nullptr);
      if (include_samples) {
        stats.query_latency_samples = query_ms.Samples();
        stats.batch_latency_samples = batch_ms.Samples();
        // Samples are monitoring data: if a long run outgrows the frame
        // limit, degrade to the digest instead of breaking the frame.
        if (16 * (stats.query_latency_samples.size() +
                  stats.batch_latency_samples.size()) >
            options_.max_frame_payload) {
          stats.query_latency_samples.clear();
          stats.batch_latency_samples.clear();
        }
      }
      EncodeShardStats(stats, &out);
      break;
    }
    case Verb::kListSources: {
      if (!work.payload.empty()) return reject();
      EncodeSourceList(service_->index()->Sources(), &out);
      break;
    }
    case Verb::kListTargets: {
      if (!work.payload.empty()) return reject();
      EncodeSourceList(service_->Targets(), &out);
      break;
    }
    default:
      break;  // the enveloped verbs are answered above
  }
  WriteResponse(work.conn, verb, id, out, options_.write_timeout_ms);
}

void PprServer::WriteResponse(const std::shared_ptr<Conn>& conn, Verb verb,
                              uint64_t request_id,
                              const std::string& payload, int timeout_ms,
                              bool try_only) {
  FrameHeader header;
  header.verb = verb;
  header.flags = kFlagResponse;
  header.request_id = request_id;
  header.payload_bytes = static_cast<uint32_t>(payload.size());
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  EncodeFrameHeader(header, &frame);
  frame.append(payload);
  std::unique_lock<std::mutex> lock(conn->write_mu, std::defer_lock);
  if (try_only) {
    // I/O-thread mode: queue the frame, then send the queue only if no
    // handler is mid-write to this connection. The I/O thread owes every
    // OTHER connection its attention, so it never waits for the mutex;
    // the handler holding it sends the queue before letting go.
    {
      std::lock_guard<std::mutex> shed(conn->shed_mu);
      if (conn->shed_frames.size() + frame.size() >
          options_.max_frame_payload) {
        // The peer floods without reading its answers: disconnect it
        // (its client maps the EOF to kUnavailable — answered, not hung).
        (void)::shutdown(conn->fd.get(), SHUT_RDWR);
        return;
      }
      conn->shed_frames.append(frame);
    }
    if (!lock.try_lock()) return;
    frame.clear();
  } else {
    lock.lock();
  }
  SendLocked(conn.get(), std::move(lock), std::move(frame), timeout_ms);
}

void PprServer::SendLocked(Conn* conn, std::unique_lock<std::mutex> lock,
                           std::string frame, int timeout_ms) {
  for (;;) {
    if (!frame.empty() &&
        !WriteFullyDeadline(conn->fd.get(), frame.data(), frame.size(),
                            timeout_ms)
             .ok()) {
      // Peer gone or stalled past its deadline. Shut the socket down (the
      // fd itself stays owned by the Conn) so the epoll thread sees the
      // hangup and reaps the connection; any thread still blocked in a
      // write on it fails immediately too.
      (void)::shutdown(conn->fd.get(), SHUT_RDWR);
      return;
    }
    std::lock_guard<std::mutex> shed(conn->shed_mu);
    frame.clear();
    frame.swap(conn->shed_frames);
    if (frame.empty()) {
      // Released under shed_mu: a frame queued after this check finds
      // the write mutex free, or held by a writer yet to drain the queue.
      lock.unlock();
      return;
    }
  }
}

void PprServer::WriteStatusResponse(const std::shared_ptr<Conn>& conn,
                                    Verb verb, uint64_t request_id,
                                    RequestStatus status, int timeout_ms,
                                    bool try_only) {
  std::string out;
  if (IsRead(verb)) {
    QueryResponse response;
    response.status = status;
    EncodeQueryResponse(response, &out);
  } else if (verb == Verb::kMultiSource) {
    EncodeMultiSourceResponse(status, {}, &out);
  } else {
    // Maint shape carries the refusal for every other verb. A
    // kStats/kListSources client sees its decoder fail on the short body
    // and maps that to "shard unavailable", which is the honest reading
    // of a shard too overloaded to introspect itself.
    MaintResponse response;
    response.status = status;
    EncodeMaintResponse(response, &out);
  }
  WriteResponse(conn, verb, request_id, out, timeout_ms, try_only);
}

}  // namespace net
}  // namespace dppr
