// ShardedPprService — a consistent-hash router over N PprService shards.
//
// The paper's batch-update/push design keeps each source's (p, r) state
// independent of every other source's, which makes horizontal sharding
// by source safe: a shard owns a subset of the sources, and correctness
// needs nothing from the other shards. Each shard here is a full serving
// stack — its own DynamicGraph replica, PprIndex, maintenance thread,
// and query worker pool — and the router in front is deliberately thin:
//
//   * placement — sources map to shards through a consistent-hash ring
//     with virtual nodes (router/hash_ring.h), so AddShard/RemoveShard
//     migrates ~1/N of the sources instead of reshuffling all of them;
//   * update fan-out — every shard consumes the same update feed (the
//     graph is replicated, the per-source state is partitioned). A shard
//     that sheds a fan-out is retried with backpressure: replicas may lag,
//     never diverge;
//   * by-source routing — point/top-k queries and source admin go to the
//     owning shard only;
//   * scatter-gather — multi-source reads and global top-k fan out to the
//     owning shards and merge; metrics aggregate across shards with
//     exact merged-percentile latency (util/Histogram::Merge);
//   * migration — AddShard/RemoveShard quiesce the update feed, lift the
//     affected sources out through PprService::ExtractSourceAsync, ship
//     them as checksummed blobs (router/migration.h), and inject them
//     into their new owner at the SAME epoch — a reader can tell a source
//     moved only by its latency, never by its answers;
//   * replication — each ring slot is a ReplicaSet (router/replica_set.h),
//     a primary + N standbys in promotion order. Reads go to the
//     primary and FAIL OVER on kUnavailable (promote the next live
//     standby, re-issue the in-flight request, bump
//     RouterReport::failovers); the update feed reaches every replica
//     (standbys first, so promotion never regresses an epoch a client
//     saw); per-source state reaches a standby as the same checksummed
//     blobs migration uses, at unchanged epochs (SyncReplica /
//     anti-entropy). The old one-backend-per-slot world is the
//     replicas=1 special case, bit-identical in behavior.
//   * transparency — every replica sits behind the ShardBackend
//     interface (router/shard_backend.h): LocalShardBackend is the
//     in-process stack, RemoteShardBackend speaks the src/net wire
//     protocol to a PprServer in another process. AddRemoteShard() joins
//     a running remote shard to the ring, migrating its share of the
//     sources to it over the wire with the exact quiesce + blob protocol
//     local migration uses; AddRemoteReplica() attaches one as a synced
//     standby of an existing slot instead.
//
// Locking: routing and update fan-out hold a shared lock; topology
// changes (AddShard/AddRemoteShard/AddReplica/AddRemoteReplica/
// RemoveReplica/Promote/RemoveShard/SyncStandbys/Stop) hold it
// exclusively. Failover is NOT a topology change — it happens inside a
// ReplicaSet under the shared lock, which is the point: a dying primary
// needs no operator and no exclusive section. Shard-internal concurrency
// (workers, maintenance, snapshots) is PprService's problem, already
// solved. See README.md in this directory.

#ifndef DPPR_ROUTER_SHARDED_SERVICE_H_
#define DPPR_ROUTER_SHARDED_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/dynamic_graph.h"
#include "graph/types.h"
#include "index/ppr_index.h"
#include "router/hash_ring.h"
#include "router/replica_set.h"
#include "router/shard_backend.h"
#include "server/ppr_service.h"
#include "server/request.h"
#include "util/histogram.h"

namespace dppr {

/// \brief Tuning knobs of a ShardedPprService.
struct ShardedServiceOptions {
  /// In-process shards built at construction. May be 0 for a pure
  /// routing front-end that only serves remote shards (AddRemoteShard);
  /// the initial `sources` must then be empty — add them through
  /// AddSource once shards have joined.
  int num_shards = 2;
  int vnodes_per_shard = 64;
  IndexOptions index;      ///< applied to every shard's PprIndex
  ServiceOptions service;  ///< applied to every shard's PprService
  /// Update fan-out backpressure: a shard that sheds a replicated update
  /// is retried (with this backoff between attempts) until it accepts.
  /// Deliberately unbounded — a bounded retry that gave up after some
  /// shards applied the batch would leave the graph replicas silently
  /// diverged, which is strictly worse than blocking the feed. The shard
  /// maintenance thread always drains its queue, so the wait terminates;
  /// replicas may lag, never diverge.
  std::chrono::milliseconds update_retry_backoff{1};
  /// A blocking by-source read that answers kUnknownSource is re-routed
  /// this many times before the answer is believed: a source mid-flight
  /// between shards is briefly absent from its old owner, and the re-route
  /// lands on the new one. Truly unknown sources pay a few extra lookups.
  int reroute_retry_limit = 3;
  /// Replicas per in-process slot built at construction: 1 primary plus
  /// replicas-1 standbys, each a full serving stack over its own graph
  /// replica. 1 reproduces the pre-replication router exactly.
  int replicas = 1;
  /// Period of the anti-entropy pass that re-syncs any standby whose
  /// source set drifted from its primary's (e.g. one that joined between
  /// AddSource calls). Zero disables the thread; SyncStandbys() runs the
  /// same pass on demand. The pass is a cheap drift probe unless
  /// something actually drifted.
  std::chrono::milliseconds anti_entropy_interval{0};
  /// How each slot distributes reads over its replicas (see ReadPolicy in
  /// router/replica_set.h). kPrimaryOnly reproduces the pre-read-
  /// distribution router exactly; kRoundRobinLive turns the standbys'
  /// warm state into read throughput under the bounded-staleness
  /// contract.
  ReadPolicy read_policy = ReadPolicy::kPrimaryOnly;
  /// Per-slot staleness bound in epochs (kRoundRobinLive only); negative
  /// disables enforcement. See ReplicaSetOptions::max_epoch_lag.
  int64_t max_epoch_lag = -1;
  /// Root of the durable storage tier ("" = no durability). Every LOCAL
  /// backend gets its own subdirectory `<data_dir>/backend-<n>` holding a
  /// batch log, checkpoints, and spilled source state (see
  /// src/storage/README.md). A backend whose subdirectory already holds a
  /// prior incarnation's state recovers from it at Start.
  std::string data_dir;
  /// Knobs of each backend's DurableStore (fsync cadence, checkpoint
  /// interval, spill catch-up depth). Ignored without data_dir.
  storage::DurableStoreOptions durability;
};

/// \brief One entry of a scatter-gathered global top-k.
struct GlobalTopKEntry {
  VertexId source = kInvalidVertex;  ///< which source's vector it came from
  ScoredVertex entry;
};

/// \brief Merged result of a global top-k scatter-gather.
struct GlobalTopKResult {
  /// The k highest (source, vertex, score) triples across every source on
  /// every shard, descending (ties by source id then vertex id).
  std::vector<GlobalTopKEntry> entries;
  int64_t sources_answered = 0;
  int64_t sources_failed = 0;  ///< shed / not-materialized at gather time
};

/// \brief Router-level accounting on top of the per-shard metrics.
struct RouterReport {
  MetricsReport combined;  ///< counters summed, percentiles exact (merged)
  std::vector<std::pair<int, MetricsReport>> per_shard;  ///< live shards
  int64_t sources_migrated = 0;  ///< moved by AddShard/RemoveShard
  int64_t migration_bytes = 0;   ///< encoded blob bytes shipped
  int64_t targets_migrated = 0;  ///< estimator targets re-homed (recompute)
  int64_t update_retries = 0;    ///< fan-out resubmits after a shard shed
  int64_t reroutes = 0;          ///< reads re-routed around a migration
  int64_t failovers = 0;      ///< standby promotions after a primary died
  int64_t standby_syncs = 0;  ///< source copies shipped onto standbys
  int64_t sync_bytes = 0;     ///< encoded bytes of those standby copies
  /// Read distribution (counted on replicated slots only; see
  /// ReplicaSet::primary_reads()).
  int64_t primary_reads = 0;  ///< OK reads answered by a slot's primary
  int64_t standby_reads = 0;  ///< OK reads answered by a standby
  int64_t stale_retries = 0;  ///< bound violations re-read on the primary
  /// Per-slot OK reads per replica, index-aligned with each slot's
  /// replica list. Live slots only.
  std::vector<std::pair<int, std::vector<int64_t>>> reads_per_replica;
  /// Staleness samples across slots: how many epochs each OK read
  /// trailed the highest epoch served for its source. Exact samples, so
  /// percentiles merge honestly (live + retired slots).
  Histogram staleness;
};

/// \brief N-shard PPR serving front-end. See file comment.
///
/// Lifecycle mirrors PprService: construct, Start(), submit, Stop()
/// (destructor stops too). All public methods are safe from any thread
/// once Start() returned.
class ShardedPprService {
 public:
  ShardedPprService(const std::vector<Edge>& initial_edges,
                    VertexId num_vertices, std::vector<VertexId> sources,
                    const ShardedServiceOptions& options);
  ~ShardedPprService();

  ShardedPprService(const ShardedPprService&) = delete;
  ShardedPprService& operator=(const ShardedPprService&) = delete;

  /// Initializes every shard's index (from-scratch pushes for the sources
  /// it owns) and starts every shard's service threads. Single-use, like
  /// PprService.
  void Start();
  void Stop();

  // --- Routed requests --------------------------------------------------
  //
  // Each builder below is one Request (server/request.h), routed to the
  // slot owning its key: the source for point, top-k and source admin;
  // the TARGET for the estimator verbs — reverse-push state for t lives
  // only on t's ring owner, and the source of a pair query plays no part
  // in placement (every shard's walk index covers every vertex; see
  // src/estimator/README.md). `affinity` (nonzero) pins the caller's
  // session to one replica of the owning slot for per-source monotonic
  // reads — see ReplicaSet::Read; 0 distributes by the slot's policy.
  // The blocking reads re-route a kUnknownSource answer (see
  // ShardedServiceOptions::reroute_retry_limit): a source or target
  // mid-migration is briefly absent from its old owner.

  std::future<QueryResponse> QueryVertexAsync(VertexId s, VertexId v,
                                              int64_t deadline_ms = 0,
                                              uint64_t affinity = 0) {
    return Read({.verb = Verb::kQueryVertex, .source = s, .vertex = v,
                 .deadline_ms = deadline_ms},
                affinity);
  }
  std::future<QueryResponse> TopKAsync(VertexId s, int k,
                                       int64_t deadline_ms = 0,
                                       uint64_t affinity = 0) {
    return Read({.verb = Verb::kTopK, .source = s, .k = k,
                 .deadline_ms = deadline_ms},
                affinity);
  }
  QueryResponse Query(VertexId s, VertexId v, int64_t deadline_ms = 0,
                      uint64_t affinity = 0) {
    return ReadRerouted({.verb = Verb::kQueryVertex, .source = s,
                         .vertex = v, .deadline_ms = deadline_ms},
                        affinity);
  }
  QueryResponse TopK(VertexId s, int k, int64_t deadline_ms = 0,
                     uint64_t affinity = 0) {
    return ReadRerouted({.verb = Verb::kTopK, .source = s, .k = k,
                         .deadline_ms = deadline_ms},
                        affinity);
  }
  MaintResponse AddSource(VertexId s) {
    return Feed({.verb = Verb::kAddSource, .source = s});
  }
  MaintResponse RemoveSource(VertexId s) {
    return Feed({.verb = Verb::kRemoveSource, .source = s});
  }

  std::future<QueryResponse> QueryPairAsync(VertexId s, VertexId t,
                                            int64_t deadline_ms = 0) {
    return Read({.verb = Verb::kQueryPair, .source = s, .target = t,
                 .deadline_ms = deadline_ms});
  }
  std::future<QueryResponse> HybridPairAsync(VertexId s, VertexId t,
                                             int64_t deadline_ms = 0) {
    return Read({.verb = Verb::kHybridQuery, .source = s, .target = t,
                 .deadline_ms = deadline_ms});
  }
  std::future<QueryResponse> ReverseTopKAsync(VertexId t, int k,
                                              int64_t deadline_ms = 0) {
    return Read({.verb = Verb::kReverseTopK, .target = t, .k = k,
                 .deadline_ms = deadline_ms});
  }
  QueryResponse QueryPair(VertexId s, VertexId t, int64_t deadline_ms = 0) {
    return ReadRerouted({.verb = Verb::kQueryPair, .source = s, .target = t,
                         .deadline_ms = deadline_ms});
  }
  QueryResponse HybridPair(VertexId s, VertexId t, int64_t deadline_ms = 0) {
    return ReadRerouted({.verb = Verb::kHybridQuery, .source = s,
                         .target = t, .deadline_ms = deadline_ms});
  }
  QueryResponse ReverseTopK(VertexId t, int k, int64_t deadline_ms = 0) {
    return ReadRerouted({.verb = Verb::kReverseTopK, .target = t, .k = k,
                         .deadline_ms = deadline_ms});
  }
  /// kRejected when the fleet runs without the estimator.
  MaintResponse AddTarget(VertexId t) {
    return Feed({.verb = Verb::kAddTarget, .target = t});
  }
  MaintResponse RemoveTarget(VertexId t) {
    return Feed({.verb = Verb::kRemoveTarget, .target = t});
  }
  /// Union of every slot's registered targets.
  std::vector<VertexId> Targets() const;
  bool HasTarget(VertexId t) const;

  // --- Replicated update feed -------------------------------------------

  /// Fans `batch` out to every shard's maintenance queue and waits for
  /// all of them (retrying shards that shed). kOk only when every shard
  /// applied the batch.
  MaintResponse ApplyUpdates(UpdateBatch batch);

  // --- Scatter-gather reads ---------------------------------------------

  /// p[v] for several sources at once: grouped by owning shard, issued
  /// concurrently, gathered in input order.
  std::vector<QueryResponse> MultiSourceQuery(
      const std::vector<VertexId>& sources, VertexId v,
      int64_t deadline_ms = 0);

  /// The globally highest (source, vertex) scores across every shard.
  GlobalTopKResult GlobalTopK(int k, int64_t deadline_ms = 0);

  // --- Topology: slots and replicas -------------------------------------
  //
  // A ring slot is a ReplicaSet. The replica-set-aware calls below are
  // the primary topology API; AddShard/AddRemoteShard/RemoveShard remain
  // as their single-replica forms, so pre-replication callers compile
  // and behave unchanged.

  /// Attaches a new LOCAL standby to existing slot `slot_id`: the graph
  /// and epoch are cloned from a quiesced local peer, the slot's sources
  /// are copied onto the standby as checksummed blobs at that epoch. Returns
  /// the replica index within the slot, or -1 (unknown slot, not
  /// running, or no local graph to clone).
  int AddReplica(int slot_id);

  /// Attaches a RUNNING remote shard process as a synced standby of
  /// `slot_id`. Same admission checks as AddRemoteShard (reachable, same
  /// |V|, no sources, the cohort's feed position, blobs fit a frame); the
  /// slot's sources are then copied onto it over the wire. Returns the
  /// replica index, or -1.
  int AddRemoteReplica(int slot_id, const std::string& host, int port);

  /// Detaches one replica of `slot_id` (stopping/disconnecting it).
  /// Removing the primary hands off to the next live standby first.
  /// Refused for the slot's last replica — drain the slot with
  /// RemoveShard instead.
  bool RemoveReplica(int slot_id, int replica_index);

  /// Manually promotes `slot_id`'s replica to primary (quiesced first,
  /// so no epoch can regress). False for a dead or unknown replica.
  bool Promote(int slot_id, int replica_index);

  /// Fault injection for chaos tests and demos: makes one replica behave
  /// like a dead process (reads/feed answer kUnavailable) without
  /// touching the process underneath. Severing a primary exercises the
  /// failover path under live load.
  bool SeverReplica(int slot_id, int replica_index);

  /// Runs the anti-entropy pass now: every standby whose source set
  /// drifted from its primary's is re-synced. Returns sources copied.
  int64_t SyncStandbys();

  /// Brings up a new slot with one empty LOCAL replica (graph and epoch
  /// cloned from a quiesced local peer), rebalancing ~1/(N+1) of the sources
  /// onto it. Returns the new slot id, or -1 if the service is not
  /// running or no local shard exists to clone the graph from.
  int AddShard();

  /// Joins a RUNNING remote shard process (a PprServer, e.g.
  /// `hub_server --listen`) to the ring as a new single-replica slot. The
  /// remote must be reachable, serving the same graph (vertex count is
  /// checked), and empty of sources; ~1/(N+1) of the sources then migrate
  /// onto it over the wire at unchanged epochs. Returns the new slot id,
  /// or -1 on refusal.
  /// The feed contract — the remote's graph replica must match this
  /// router's — is ENFORCED at admission: the fleet is quiesced first and
  /// the joiner's graph fingerprint and epoch (one kStats observation)
  /// must equal the cohort's, so a stale or diverged replica is refused
  /// instead of silently serving wrong answers.
  int AddRemoteShard(const std::string& host, int port);

  /// Joins a RUNNING remote shard that already OWNS sources — the
  /// recovery path: a shard process restarted from its data dir
  /// (`hub_server --listen --data_dir`) re-enters the fleet with its
  /// persisted sources at their persisted epoch. Admission requires the
  /// same feed position as the (quiesced) cohort and that none of the
  /// joiner's sources is still served elsewhere; its sources then
  /// redistribute under the grown ring as ordinary migrations — epochs
  /// carried, never regressed. Returns the new slot id, or -1 on refusal.
  int AdoptRemoteShard(const std::string& host, int port);

  /// Drains slot `shard_id`: quiesces the feed, migrates its sources to
  /// their new owners under the shrunken ring, stops (local) or
  /// disconnects (remote) every replica of the slot. False if the id is
  /// unknown or it is the last slot.
  bool RemoveShard(int shard_id);

  // --- Introspection ----------------------------------------------------

  size_t NumShards() const;
  std::vector<int> ShardIds() const;
  /// Replicas of slot `shard_id` (0 if unknown).
  size_t NumReplicas(int shard_id) const;
  /// Index of slot `shard_id`'s current primary (-1 if unknown).
  int PrimaryOf(int shard_id) const;
  /// The shard currently owning `s` (-1 before Start/after Stop).
  int OwnerOf(VertexId s) const;
  /// Union of every shard's source set.
  std::vector<VertexId> Sources() const;
  std::vector<VertexId> SourcesOnShard(int shard_id) const;
  size_t NumSources() const;
  bool HasSource(VertexId s) const;

  /// Counters summed across shards (including shards removed since),
  /// latency percentiles computed from the merged exact samples.
  MetricsReport Metrics() const;
  RouterReport Report() const;

  /// Direct access to one replica's backend — the replication tests use
  /// this to inject faults (drift, severed connections) behind the
  /// router's back. Null for an unknown slot/replica.
  ShardBackend* ReplicaBackendForTesting(int slot_id, int replica_index);

  const ShardedServiceOptions& options() const { return options_; }

 private:
  struct Shard {
    int id = -1;
    /// shared_ptr: in-flight reads gathered outside the routing lock
    /// keep the replica set alive through their failover retries even if
    /// the slot is dropped mid-request.
    std::shared_ptr<ReplicaSet> set;
  };

  /// An empty slot: id + a ReplicaSet configured from options_. The one
  /// place ReplicaSetOptions are derived, so every slot — constructed,
  /// grown, or joined — gets the same knobs.
  std::unique_ptr<Shard> NewSlot(int id) const;
  /// Builds (but does not start) a local slot: options_.replicas full
  /// serving stacks over their own graph replicas, the first one the
  /// primary.
  std::unique_ptr<Shard> BuildShard(int id, const std::vector<Edge>& edges,
                                    VertexId num_vertices,
                                    std::vector<VertexId> sources) const;
  /// Builds one LOCAL backend over its own graph replica, at `epoch`.
  std::unique_ptr<ShardBackend> BuildLocalBackend(
      const std::vector<Edge>& edges, VertexId num_vertices,
      std::vector<VertexId> sources, uint64_t epoch = 1) const;
  /// A source-less LOCAL backend over a copy of `donor`'s graph, at
  /// `donor`'s epoch. The caller quiesced the fleet.
  std::unique_ptr<ShardBackend> CloneLocalBackend(const PprIndex& donor) const;
  /// mu_ held (any mode): the first live in-process index, or null.
  const PprIndex* LocalDonorLocked() const;
  /// Connects and admission-checks a remote backend: reachable, running,
  /// same |V|, blobs fit a frame, and — with the fleet quiesced by the
  /// caller — the cohort's graph fingerprint and epoch, read from one
  /// kStats observation. `expect_empty` additionally requires zero sources
  /// (fresh joiner); AdoptRemoteShard passes false to admit a recovered
  /// shard with state. Null on refusal.
  std::unique_ptr<RemoteShardBackend> DialRemoteBackend(
      const std::string& host, int port, bool expect_empty) const;
  /// mu_ held (any mode): the first live replica's feed position, the
  /// cohort reference the join handshake compares against (zeros = no
  /// live replica to compare against; the handshake then degrades to the
  /// size check).
  FeedPosition ReferencePositionLocked() const;
  /// mu_ held (any mode). Null if absent.
  Shard* FindShard(int shard_id) const;
  /// mu_ held (any mode). Null when the ring is empty.
  Shard* OwnerShard(VertexId s) const;
  /// mu_ held (any mode): the slot owning `request`'s routing key, or
  /// null when the router is not running (or has no slot).
  Shard* RouteLocked(const Request& request) const;
  /// A read on its owning slot; the answer is gathered outside the
  /// routing lock.
  std::future<QueryResponse> Read(const Request& request,
                                  uint64_t affinity = 0);
  /// Read, re-routed while it answers kUnknownSource (up to
  /// reroute_retry_limit times).
  QueryResponse ReadRerouted(const Request& request, uint64_t affinity = 0);
  /// An admin op on its owning slot, consumed under the shared lock.
  MaintResponse Feed(const Request& request);
  /// mu_ held exclusively: waits until every shard's maintenance queue is
  /// drained (update admission is blocked by the exclusive lock itself).
  void QuiesceAllLocked();
  /// mu_ held exclusively: moves every source of `from` that `ring`
  /// assigns elsewhere, as checksummed blobs through the replica sets'
  /// ExtractBlob/InjectBlob (in-process or over the wire — same bytes).
  /// Returns the number migrated.
  size_t MigrateSourcesLocked(Shard* from, const ConsistentHashRing& ring);
  /// mu_ held exclusively: moves every estimator target of `from` that
  /// `ring` assigns elsewhere — by RECOMPUTE, not blob: the fleet is
  /// quiesced, every replica serves the identical graph, so registering
  /// the target on its new owner replays the same deterministic reverse
  /// push the old owner held. Returns the number migrated.
  size_t MigrateTargetsLocked(Shard* from, const ConsistentHashRing& ring);
  /// mu_ held exclusively: folds a departing slot's metrics and replica
  /// counters into the retired accumulators so Metrics()/Report()
  /// survive topology changes.
  void RetireMetricsLocked(const Shard& shard);
  /// mu_ held exclusively: ring insertion + rebalance shared by
  /// AddShard/AddRemoteShard. `fresh` must be started and empty.
  void AdmitShardLocked(std::unique_ptr<Shard> fresh);
  /// mu_ held (any mode): one metrics observation per shard (a single
  /// RPC per remote replica), combined counters + exact merged
  /// percentiles; optionally also records the per-shard reports.
  MetricsReport CollectMetricsLocked(
      std::vector<std::pair<int, MetricsReport>>* per_shard) const;
  /// The periodic anti-entropy loop (only spawned when
  /// options_.anti_entropy_interval > 0).
  void AntiEntropyLoop();

  ShardedServiceOptions options_;
  /// Remembered from construction; a joining remote shard must serve a
  /// graph of the same size.
  VertexId num_vertices_ = 0;
  mutable std::shared_mutex mu_;
  ConsistentHashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;
  int next_shard_id_ = 0;
  /// Distinct data-dir suffix per local backend (replicas of one slot
  /// must not share a log). Mutable: BuildLocalBackend is const.
  mutable std::atomic<int> next_backend_dir_{0};
  bool started_ = false;
  bool stopped_ = false;

  // Anti-entropy thread plumbing (outside mu_: Stop signals the thread
  // before taking the exclusive lock).
  std::thread anti_entropy_;
  std::mutex anti_entropy_mu_;
  std::condition_variable anti_entropy_cv_;
  bool anti_entropy_stop_ = false;

  // Router accounting (atomics: bumped under the shared lock).
  std::atomic<int64_t> sources_migrated_{0};
  std::atomic<int64_t> migration_bytes_{0};
  std::atomic<int64_t> targets_migrated_{0};
  std::atomic<int64_t> update_retries_{0};
  std::atomic<int64_t> reroutes_{0};

  /// Metrics of shards that no longer exist (guarded by mu_ exclusive on
  /// write, shared on read via Metrics()).
  MetricsReport retired_counters_;
  Histogram retired_query_ms_;
  Histogram retired_batch_ms_;
  /// Replica counters of retired slots (same guard).
  int64_t retired_failovers_ = 0;
  int64_t retired_update_retries_ = 0;
  int64_t retired_standby_syncs_ = 0;
  int64_t retired_sync_bytes_ = 0;
  int64_t retired_primary_reads_ = 0;
  int64_t retired_standby_reads_ = 0;
  int64_t retired_stale_retries_ = 0;
  Histogram retired_staleness_;
};

}  // namespace dppr

#endif  // DPPR_ROUTER_SHARDED_SERVICE_H_
