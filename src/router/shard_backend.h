// ShardBackend — the one interface the router routes through, with a
// local and a remote implementation.
//
// PR 3's router owned its shards outright (graph + index + service in
// one struct). Pulling that surface into an interface is what turns
// `--shards` into a fleet: LocalShardBackend is the old in-process stack,
// RemoteShardBackend is a RemoteShardClient speaking the src/net wire
// protocol to a PprServer in another process — and the router cannot
// tell them apart. Requests cross it as one typed Request
// (server/request.h) through Read and Feed. Migration crosses it as
// ENCODED blobs (ExtractBlob/InjectBlob), not ExportedSource objects, so
// a source moving local->remote, remote->local, or remote->remote ships
// exactly the bytes the in-process router always round-tripped; the
// checksum is verified on whichever side decodes.

#ifndef DPPR_ROUTER_SHARD_BACKEND_H_
#define DPPR_ROUTER_SHARD_BACKEND_H_

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/dynamic_graph.h"
#include "graph/types.h"
#include "index/ppr_index.h"
#include "net/remote_client.h"
#include "server/ppr_service.h"
#include "server/request.h"
#include "storage/durable_store.h"
#include "util/histogram.h"

namespace dppr {

/// Ready-made responses for refusals decided without touching a backend
/// (dead replica, closed router, severed shard). Shared by the router
/// layer so response construction lives in one place.
namespace responses {

inline MaintResponse Maint(RequestStatus status) {
  MaintResponse response;
  response.status = status;
  return response;
}

inline std::future<QueryResponse> ReadyQuery(RequestStatus status) {
  std::promise<QueryResponse> promise;
  QueryResponse response;
  response.status = status;
  promise.set_value(std::move(response));
  return promise.get_future();
}

inline std::future<MaintResponse> ReadyMaint(RequestStatus status) {
  std::promise<MaintResponse> promise;
  promise.set_value(Maint(status));
  return promise.get_future();
}

/// Re-runs a blocking admin submission while the shard sheds it
/// (kShedQueueFull). Only legal when the caller has the feed blocked —
/// the maintenance queue then only drains, so the retry terminates. The
/// one shed-retry loop for router-layer admin/migration paths (the feed
/// fan-out has its own, counted variant in ReplicaSet).
template <typename Submit>
MaintResponse RetryShedBlocking(const Submit& submit) {
  for (;;) {
    MaintResponse response = submit();
    if (response.status != RequestStatus::kShedQueueFull) return response;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace responses

/// \brief Where a shard stands in the shared update feed, from one
/// observation: two shards at equal positions serve the same answers.
struct FeedPosition {
  uint64_t graph_checksum = 0;  ///< DynamicGraph::Checksum; 0 = unknown
  uint64_t epoch = 0;  ///< PprIndex::Epoch (1 + requests); 0 = unknown
};

/// \brief One shard as the router sees it. See file comment.
///
/// Thread-safety matches PprService: everything is safe from any thread
/// once Start() ran, except Start/Stop themselves (the router serializes
/// those under its exclusive lock).
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  virtual void Start() = 0;
  virtual void Stop() = 0;

  /// One request of an enveloped verb (server/request.h): a read is
  /// answered by this shard, a feed or admin op applied to it.
  virtual std::future<QueryResponse> Read(const Request& request) = 0;
  virtual std::future<MaintResponse> Feed(const Request& request) = 0;
  /// p[v] for several sources this shard owns; the returned vector is in
  /// request order and sized like `sources`. Remote: one round trip.
  virtual std::future<std::vector<QueryResponse>> MultiSourceAsync(
      std::vector<VertexId> sources, VertexId v, int64_t deadline_ms) = 0;
  /// Registered reverse-push targets on this shard.
  virtual std::vector<VertexId> Targets() const = 0;

  /// Lifts source `s` out of this shard as a checksummed migration blob.
  /// Blocking; kShedQueueFull is retryable (the router's migration loop
  /// does), anything else is final.
  virtual MaintResponse ExtractBlob(VertexId s, std::string* blob) = 0;
  /// Installs a migration blob produced by any backend's ExtractBlob.
  virtual MaintResponse InjectBlob(const std::string& blob) = 0;
  /// ExtractBlob WITHOUT the removal: the standby-sync read. The default
  /// reuses the two verbs above — extract, then inject the same bytes
  /// straight back — so a remote shard needs no new wire verb; the source
  /// is briefly absent, which is why replica sync runs with the feed
  /// blocked and readers held off (the router's exclusive lock).
  /// LocalShardBackend overrides this with a genuinely non-destructive
  /// copy.
  virtual MaintResponse CopyBlob(VertexId s, std::string* blob);

  virtual std::vector<VertexId> Sources() const = 0;
  virtual size_t NumSources() const = 0;
  virtual bool HasSource(VertexId s) const = 0;

  /// This shard's graph fingerprint and epoch (one kStats round trip for
  /// a remote shard). The router's join handshake compares a candidate's
  /// position against the quiesced fleet's before admitting it. Zeros =
  /// unknown/unreachable — never a valid position to compare against.
  virtual FeedPosition Position() const = 0;

  /// Counters AND exact latency samples from one observation (for a
  /// remote shard a single kStats round trip), pooled into the caller's
  /// histograms. Leaves everything untouched when the shard is down.
  virtual void SnapshotMetrics(MetricsReport* report, Histogram* query_ms,
                               Histogram* batch_ms) const = 0;

  /// The in-process index (and through it the graph replica), or nullptr
  /// for a remote shard. The router clones a local donor's graph and
  /// epoch when it grows a local replica.
  virtual const PprIndex* LocalIndex() const { return nullptr; }

  /// Fault injection: makes this backend behave like a dead shard from
  /// now on — every request answers kUnavailable, introspection answers
  /// empty — without tearing down the process underneath. For a remote
  /// backend this severs the real connection. Drives the replica-failover
  /// chaos tests and the hub_server kill-the-primary demo.
  virtual bool Sever() = 0;
};

/// \brief The in-process serving stack of PR 3: an owned graph replica,
/// PprIndex, and PprService.
class LocalShardBackend : public ShardBackend {
 public:
  /// `data_dir` non-empty attaches a durable storage tier rooted there:
  /// the maintenance thread write-ahead-logs every mutation, checkpoints
  /// on the store's cadence, and spills evicted source state
  /// (src/storage/README.md). If the directory already holds a prior
  /// incarnation's state, the backend RECOVERS from it — the checkpointed
  /// graph and replayed log replace the seed `edges`/`sources` entirely
  /// (without a checkpoint the seed graph is the replay base, so it must
  /// match what the original process started from). `epoch` is the seed
  /// graph's feed position (PprIndex::SetEpoch): a replica cloned from a
  /// donor starts at the donor's.
  LocalShardBackend(const std::vector<Edge>& edges, VertexId num_vertices,
                    std::vector<VertexId> sources,
                    const IndexOptions& index_options,
                    const ServiceOptions& service_options,
                    std::string data_dir = {},
                    const storage::DurableStoreOptions& durability = {},
                    uint64_t epoch = 1);

  void Start() override;
  void Stop() override;

  std::future<QueryResponse> Read(const Request& request) override;
  std::future<MaintResponse> Feed(const Request& request) override;
  std::future<std::vector<QueryResponse>> MultiSourceAsync(
      std::vector<VertexId> sources, VertexId v,
      int64_t deadline_ms) override;
  std::vector<VertexId> Targets() const override;

  MaintResponse ExtractBlob(VertexId s, std::string* blob) override;
  MaintResponse InjectBlob(const std::string& blob) override;
  MaintResponse CopyBlob(VertexId s, std::string* blob) override;

  std::vector<VertexId> Sources() const override;
  size_t NumSources() const override;
  bool HasSource(VertexId s) const override;
  FeedPosition Position() const override {
    return {GraphChecksum(), MaxEpoch()};
  }
  void SnapshotMetrics(MetricsReport* report, Histogram* query_ms,
                       Histogram* batch_ms) const override;
  const PprIndex* LocalIndex() const override {
    return severed() ? nullptr : index_.get();
  }
  bool Sever() override;

  /// The graph fingerprint (0 when severed).
  uint64_t GraphChecksum() const;
  /// The shard's epoch, PprIndex::Epoch (0 when severed): what recovery
  /// checks report and kStats ships as max_epoch.
  uint64_t MaxEpoch() const;
  PprService* service() { return service_.get(); }
  /// The attached durable store (null without data_dir).
  storage::DurableStore* store() { return store_.get(); }
  /// True when construction found prior on-disk state and Start() will
  /// replay it instead of initializing from the seed.
  bool recovered() const { return recovered_; }

 private:
  bool severed() const { return severed_.load(std::memory_order_acquire); }

  std::unique_ptr<storage::DurableStore> store_;
  bool recovered_ = false;
  std::unique_ptr<DynamicGraph> graph_;
  std::unique_ptr<PprIndex> index_;
  std::unique_ptr<PprService> service_;
  /// Once set, the backend answers like a dead process (kUnavailable /
  /// empty) while the stack underneath stays intact for Stop().
  std::atomic<bool> severed_{false};
};

/// \brief A shard living in another process, reached through the
/// src/net transport. Start() is a no-op (the remote operator started
/// it); Stop() merely disconnects — leaving a fleet does not stop its
/// shards.
class RemoteShardBackend : public ShardBackend {
 public:
  explicit RemoteShardBackend(const net::RemoteClientOptions& options = {});

  /// Dials the shard. Must succeed before the backend joins the ring.
  Status Connect(const std::string& host, int port);
  /// Health probe used at join time (graph size, emptiness, liveness).
  Status FetchStats(net::ShardStats* out) const;
  bool connected() const { return client_->connected(); }

  void Start() override {}
  void Stop() override;

  std::future<QueryResponse> Read(const Request& request) override;
  std::future<MaintResponse> Feed(const Request& request) override;
  std::future<std::vector<QueryResponse>> MultiSourceAsync(
      std::vector<VertexId> sources, VertexId v,
      int64_t deadline_ms) override;
  std::vector<VertexId> Targets() const override;

  MaintResponse ExtractBlob(VertexId s, std::string* blob) override;
  MaintResponse InjectBlob(const std::string& blob) override;

  std::vector<VertexId> Sources() const override;
  size_t NumSources() const override;
  bool HasSource(VertexId s) const override;
  FeedPosition Position() const override;
  void SnapshotMetrics(MetricsReport* report, Histogram* query_ms,
                       Histogram* batch_ms) const override;
  /// Severs the TCP connection: every later call answers kUnavailable,
  /// exactly as if the peer died. The remote process keeps running.
  bool Sever() override;

 private:
  // unique_ptr so const introspection methods can issue (non-const) RPCs.
  std::unique_ptr<net::RemoteShardClient> client_;
};

}  // namespace dppr

#endif  // DPPR_ROUTER_SHARD_BACKEND_H_
