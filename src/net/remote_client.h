// RemoteShardClient — one multiplexed TCP connection to a PprServer.
//
// Calls are asynchronous and pipelined: each request gets a fresh
// request_id, its frame goes out under a send mutex, and a completion
// callback parks in a pending table. ONE receiver thread reads response
// frames and resolves completions by id — responses may arrive in any
// order, so a slow TopK never head-of-line-blocks a point query, and the
// router's scatter-gather pattern (submit N, then gather) costs one round
// trip instead of N.
//
// Failure semantics ("shed, never hang"): when the connection breaks —
// dial failure, peer reset, server gone, or a response frame that fails
// validation — every pending call and every later call resolves
// immediately with RequestStatus::kUnavailable. The client never blocks
// a caller on a dead socket, which is what lets the sharded router treat
// a killed remote shard exactly like an overloaded local one: an error
// status to route around, not a stuck future.

#ifndef DPPR_NET_REMOTE_CLIENT_H_
#define DPPR_NET_REMOTE_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"
#include "server/ppr_service.h"
#include "server/request.h"

namespace dppr {
namespace net {

struct RemoteClientOptions {
  size_t max_frame_payload = kDefaultMaxFramePayload;
  /// Ceiling on one request write. A live-but-stalled peer (socket open,
  /// nobody draining) would otherwise block the sender INSIDE the send
  /// mutex and convoy every other caller on this backend; on expiry the
  /// connection is torn down instead, which resolves every pending and
  /// future call kUnavailable. (A peer that reads but never answers is
  /// still undetected — liveness probing is the replication work's job.)
  int send_timeout_ms = 10'000;
};

/// \brief Client half of the shard transport. See file comment.
class RemoteShardClient {
 public:
  explicit RemoteShardClient(const RemoteClientOptions& options = {});
  ~RemoteShardClient();

  RemoteShardClient(const RemoteShardClient&) = delete;
  RemoteShardClient& operator=(const RemoteShardClient&) = delete;

  /// Dials host:port and starts the receiver thread. Single-use.
  Status Connect(const std::string& host, int port);
  /// Closes the connection; pending and future calls answer kUnavailable.
  /// Idempotent. The remote PROCESS keeps running — disconnecting a
  /// router from a shard is not an administrative action on the shard.
  void Disconnect();
  bool connected() const {
    return connected_.load(std::memory_order_acquire);
  }
  /// "host:port" of the peer (valid after Connect).
  const std::string& endpoint() const { return endpoint_; }

  // --- The PprService surface, one RPC each -----------------------------

  /// One enveloped verb (server/request.h): a read or a feed/admin op.
  std::future<QueryResponse> Read(const Request& request);
  std::future<MaintResponse> Feed(const Request& request);
  /// One round trip for the whole source list; the response vector is in
  /// request order and always sized like `sources`.
  std::future<std::vector<QueryResponse>> MultiSourceAsync(
      std::vector<VertexId> sources, VertexId v, int64_t deadline_ms);

  // Typed builders over Read/Feed.
  std::future<QueryResponse> QueryVertexAsync(VertexId s, VertexId v,
                                              int64_t deadline_ms) {
    return Read({.verb = Verb::kQueryVertex, .source = s, .vertex = v,
                 .deadline_ms = deadline_ms});
  }
  std::future<QueryResponse> TopKAsync(VertexId s, int k,
                                       int64_t deadline_ms) {
    return Read({.verb = Verb::kTopK, .source = s, .k = k,
                 .deadline_ms = deadline_ms});
  }
  std::future<QueryResponse> ReverseTopKAsync(VertexId t, int k,
                                              int64_t deadline_ms) {
    return Read({.verb = Verb::kReverseTopK, .target = t, .k = k,
                 .deadline_ms = deadline_ms});
  }
  std::future<MaintResponse> ApplyUpdatesAsync(UpdateBatch batch) {
    return Feed({.verb = Verb::kApplyUpdates, .batch = std::move(batch)});
  }
  std::future<MaintResponse> AddSourceAsync(VertexId s) {
    return Feed({.verb = Verb::kAddSource, .source = s});
  }
  std::future<MaintResponse> RemoveSourceAsync(VertexId s) {
    return Feed({.verb = Verb::kRemoveSource, .source = s});
  }
  std::future<MaintResponse> QuiesceAsync() {
    return Feed({.verb = Verb::kQuiesce});
  }

  // --- Migration (blocking; the router already serializes these) --------

  /// Lifts source `s` out of the remote shard; *blob receives the
  /// checksummed migration bytes exactly as InjectBlob accepts them.
  MaintResponse ExtractBlob(VertexId s, std::string* blob);
  /// Ships a migration blob into the remote shard.
  MaintResponse InjectBlob(const std::string& blob);

  // --- Introspection (blocking RPCs) ------------------------------------

  Status Stats(bool include_samples, ShardStats* out);
  /// The remote source set; empty (and !ok) on a dead connection.
  Status ListSources(std::vector<VertexId>* out);
  /// The remote estimator target set; empty (and !ok) on a dead connection.
  Status ListTargets(std::vector<VertexId>* out);

 private:
  /// Invoked by the receiver thread (or inline on a dead connection).
  /// `transport` is kOk when `payload` is a well-formed response body to
  /// decode, kUnavailable when the connection failed first.
  using Completion =
      std::function<void(RequestStatus transport, std::string payload)>;

  /// Registers `done` and sends the frame; on any failure the completion
  /// runs inline with kUnavailable.
  void Call(Verb verb, std::string payload, Completion done);
  /// Call() for every MaintResponse-shaped verb.
  std::future<MaintResponse> MaintCall(Verb verb, std::string payload);
  /// Call() for every QueryResponse-shaped verb.
  std::future<QueryResponse> QueryCall(Verb verb, std::string payload);
  /// Blocking Call() for the two source-list-shaped verbs.
  Status ListCall(Verb verb, std::vector<VertexId>* out);
  void ReceiverLoop();
  /// Fails every pending completion with kUnavailable. Runs once per
  /// connection breakdown.
  void FailAllPending();

  RemoteClientOptions options_;
  std::string endpoint_;
  ScopedFd fd_;
  std::thread receiver_;
  std::atomic<bool> connected_{false};
  bool started_ = false;

  std::mutex send_mu_;  ///< one frame on the wire at a time

  std::mutex pending_mu_;
  uint64_t next_request_id_ = 1;
  std::unordered_map<uint64_t, Completion> pending_;
};

}  // namespace net
}  // namespace dppr

#endif  // DPPR_NET_REMOTE_CLIENT_H_
