// ReplicaSet — one ring slot's primary + standby replica group.
//
// PR 4 left the fleet with a sharp edge (the top ROADMAP item): a dead
// remote shard turns every source it owned into kUnavailable until an
// operator re-joins a twin. The paper's sharding argument cuts the other
// way too — each source's (p, r) state is independent AND deterministic
// under the update feed (a standby that replays the same batches
// converges to the same state within eps, the dynamic-maintenance
// guarantee), so a warm standby is cheap: replicate the feed, copy the
// per-source blobs once, and a primary's death becomes a promotion
// instead of an outage.
//
// A ReplicaSet owns an ORDERED list of ShardBackends (the promotion
// order) and is what the router's hash ring now places at each slot:
//
//   * reads (Read) — those whose row in server/request.h lets a standby
//     answer are routed by ReadPolicy: to the primary (default), or
//     round-robin across the live replicas under a bounded-staleness
//     contract (see ReadPolicy / ReplicaSetOptions::max_epoch_lag); the
//     rest go to the primary. Whoever was asked, a kUnavailable answer
//     marks that replica dead — promoting the next live replica in order
//     if it was the primary (bumping the failover counter) — and
//     re-issues the in-flight request on the current primary. The caller
//     sees one answer, not the failover.
//   * feed and admin ops (Feed) — fanned to every live replica,
//     STANDBYS FIRST, then the primary, one fan-out at a time
//     (feed_mu_). Two invariants fall out: every replica receives the
//     same op sequence (so replica epochs, which count update REQUESTS —
//     see PprIndex::ApplyBatch — agree, and every source on a replica
//     shares its replica's epoch), and a standby is never behind an epoch
//     the primary has served (so promotion can never regress an epoch a
//     client already saw). A
//     replica that sheds is retried with backoff — lag, never
//     divergence; a standby that dies mid-feed is dead for good (its
//     replica is behind) and is never promoted.
//   * migration — ExtractBlob drains the source from the primary and
//     removes the standbys' copies; InjectBlob installs the same
//     checksummed bytes on every live replica at the same epoch.
//   * standby sync — SyncReplica copies the primary's sources onto a
//     standby through ShardBackend::CopyBlob (non-destructive locally;
//     extract + re-inject over the wire — no new verbs) at unchanged
//     epochs. The router's anti-entropy pass calls this for any standby
//     whose source set drifted (e.g. one that joined after sources were
//     added).
//
// Thread-safety: topology mutations (AddReplica / RemoveReplica /
// Promote / Start / Stop / SyncReplica) are caller-serialized — the
// router runs them under its exclusive lock. Reads, the feed, and
// introspection are safe from any thread; failover (the only concurrent
// mutation: the primary pointer and live flags) is guarded by an
// internal mutex. A ReplicaSet must be owned by shared_ptr: in-flight
// reads keep it alive through their failover retries even if the router
// drops the slot mid-request.

#ifndef DPPR_ROUTER_REPLICA_SET_H_
#define DPPR_ROUTER_REPLICA_SET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "router/shard_backend.h"
#include "server/ppr_service.h"
#include "server/request.h"
#include "util/histogram.h"

namespace dppr {

/// \brief How a ReplicaSet distributes reads over its replicas.
///
/// The feed applies STANDBYS FIRST, so every live standby is always at or
/// ahead of any epoch the primary has served — a standby read can lag the
/// slot's served frontier (by replicas caught mid-fan-out), never diverge
/// from it. That is the whole staleness contract: "stale" means epoch-lag
/// in the shared feed order, measured and boundable, not a fork.
enum class ReadPolicy {
  kPrimaryOnly,     ///< every read lands on the primary (the default)
  kRoundRobinLive,  ///< reads rotate across the live replicas
};

const char* ReadPolicyName(ReadPolicy policy);
/// "primary" / "round_robin" (flag spelling). False on anything else.
bool ParseReadPolicy(const std::string& name, ReadPolicy* out);

/// \brief Tuning knobs of a ReplicaSet.
struct ReplicaSetOptions {
  /// Backoff between resubmissions to a replica that shed a feed op.
  /// Unbounded retry for the same reason the router's fan-out retries:
  /// giving up after some replicas applied would fork the replicas.
  std::chrono::milliseconds update_retry_backoff{1};

  ReadPolicy read_policy = ReadPolicy::kPrimaryOnly;

  /// Bounded staleness, enforced (kRoundRobinLive only): an OK answer
  /// whose epoch trails the highest epoch this slot has SERVED, for any
  /// source, by more than this many epochs is re-read once on the primary
  /// before it is returned. Epochs count update requests, so the bound is
  /// "at most N update requests behind what some client already saw".
  /// Negative disables enforcement — the staleness histogram still
  /// records what was served.
  int64_t max_epoch_lag = -1;
};

/// \brief Primary + standbys behind one ring slot. See file comment.
class ReplicaSet : public std::enable_shared_from_this<ReplicaSet> {
 public:
  explicit ReplicaSet(const ReplicaSetOptions& options = {});
  ~ReplicaSet() = default;

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  // --- Topology (caller-serialized) -------------------------------------

  /// Appends `backend` as the last replica in promotion order (the first
  /// one added is the initial primary). A backend added after Start()
  /// must already be started and synced (the router quiesces, starts,
  /// appends, then SyncReplica's). Returns the replica's index.
  int AddReplica(std::unique_ptr<ShardBackend> backend);

  /// Stops and drops replica `index`. Removing the primary first
  /// promotes the next live replica; the last replica (or an index with
  /// no live peer when it is the live primary) is refused — drain the
  /// slot through the router instead. Later replicas shift down one
  /// index.
  bool RemoveReplica(int index);

  /// Makes replica `index` the primary. Refused for a dead or unknown
  /// replica. The caller must have quiesced (all replicas at the same
  /// feed prefix), so promotion cannot regress any epoch.
  bool Promote(int index);

  void Start();
  void Stop();

  // --- Requests (server/request.h) --------------------------------------

  /// Reads fail over on kUnavailable. A verb whose row lets a standby
  /// answer (point and top-k) is routed by ReadPolicy and checked against
  /// the slot's served-epoch floor; the others (the estimator reads) go
  /// to the primary and only fail over. `affinity` pins a session to one
  /// replica (affinity % NumReplicas) for per-source monotonic reads while
  /// that replica lives; 0 means no pin (round-robin under
  /// kRoundRobinLive, the primary otherwise). A pinned session whose
  /// replica died follows the slot to the primary.
  std::future<QueryResponse> Read(const Request& request,
                                  uint64_t affinity = 0);
  /// Feed and admin ops reach every live replica, standbys first, one op
  /// at a time; the primary's answer is the slot's. kQuiesce is a barrier
  /// through every live replica's maintenance queue instead.
  std::future<MaintResponse> Feed(const Request& request);
  /// Grouped reads distribute by policy too, but bypass the served-epoch
  /// floor.
  std::future<std::vector<QueryResponse>> MultiSourceAsync(
      std::vector<VertexId> sources, VertexId v, int64_t deadline_ms);

  // --- Migration between slots (blocking; router-serialized) ------------

  /// Drains source `s` out of the whole group: extracted from the
  /// primary (failing over if it died), removed from every live standby.
  MaintResponse ExtractBlob(VertexId s, std::string* blob);
  /// Installs a migration blob on every live replica — the same bytes,
  /// the same epoch everywhere. The primary's answer is authoritative.
  MaintResponse InjectBlob(const std::string& blob);

  // --- Standby sync (blocking; caller-serialized, feed blocked) ---------

  /// Re-syncs standby `index` to the primary's source set: missing
  /// sources are copied over as blobs at their current epoch, extras are
  /// removed. Estimator targets are reconciled too — by RECOMPUTE, not
  /// blob copy: registering the target on the standby replays the same
  /// deterministic reverse push against the standby's identical graph
  /// (best-effort; a standby with the estimator disabled is left alone).
  /// True if the standby agrees with the primary on return.
  bool SyncReplica(int index);
  /// SyncReplica for every live standby. Returns sources copied.
  int64_t SyncAllStandbys();
  /// False if any live standby's source set differs from the primary's —
  /// the anti-entropy trigger. (One RPC per remote standby; cheap when
  /// nothing drifted.)
  bool SourceSetsAgree() const;

  // --- Introspection (any thread) ---------------------------------------

  /// The primary's view — the authoritative source set of the slot.
  std::vector<VertexId> Sources() const;
  size_t NumSources() const;
  bool HasSource(VertexId s) const;
  /// The primary's registered estimator targets (empty if down or the
  /// estimator is disabled).
  std::vector<VertexId> Targets() const;

  /// Counters summed and exact samples merged across every replica (each
  /// observed once, via ShardBackend::SnapshotMetrics). The update-side
  /// counters count per-replica applications, mirroring how the router
  /// counts the cross-shard fan-out.
  void SnapshotMetrics(MetricsReport* report, Histogram* query_ms,
                       Histogram* batch_ms) const;

  /// First live in-process replica's index, or nullptr (all-remote slot).
  const PprIndex* LocalIndex() const;

  size_t NumReplicas() const;
  /// Index of the current primary (-1 when the set is empty).
  int PrimaryIndex() const;
  bool IsLive(int index) const;
  /// Direct backend access for fault injection (Sever) and the
  /// replication tests. nullptr if out of range.
  ShardBackend* ReplicaBackend(int index);

  int64_t failovers() const { return failovers_.load(); }
  int64_t update_retries() const { return update_retries_.load(); }
  int64_t standby_syncs() const { return standby_syncs_.load(); }
  int64_t sync_bytes() const { return sync_bytes_.load(); }
  /// OK reads answered by the replica that was primary at answer time /
  /// by a standby. Counted on replicated slots only — a single-replica
  /// slot keeps the PR 5 zero-overhead read path and counts nothing.
  int64_t primary_reads() const { return primary_reads_.load(); }
  int64_t standby_reads() const { return standby_reads_.load(); }
  /// Answers that violated max_epoch_lag and were re-read on the primary.
  int64_t stale_retries() const { return stale_retries_.load(); }
  /// OK reads served per replica, index-aligned with the replica list.
  std::vector<int64_t> ReadsPerReplica() const;
  /// Merges this slot's staleness samples — how many epochs each OK read
  /// trailed the highest epoch the slot had served — into *out.
  void MergeStaleness(Histogram* out) const;
  /// The current primary's feed position (zeros if down) — what the
  /// router's join handshake compares a candidate against.
  FeedPosition Position() const;

 private:
  struct Replica {
    std::unique_ptr<ShardBackend> backend;
    bool live = true;
    /// OK reads this replica answered (see primary_reads()).
    std::atomic<int64_t> reads{0};
  };
  using ReplicaPtr = std::shared_ptr<Replica>;

  /// mu_ held. Marks `failed` dead; if it was the primary, promotes the
  /// next live replica in order (wrapping) and counts the failover.
  void MarkDeadLocked(const ReplicaPtr& failed);
  /// THE failover loop, shared by every read/migration path: while
  /// `unavailable(response)`, mark *replica dead, promote, and re-issue
  /// `issue` on the successor. On return *replica is the replica whose
  /// answer is returned (the last live primary tried).
  template <typename Response, typename Issue, typename Unavailable>
  Response RetryThroughFailover(ReplicaPtr* replica, Response response,
                                const Issue& issue,
                                const Unavailable& unavailable);
  /// Marks `failed` dead and returns the replica now fit to serve (the
  /// possibly-promoted primary), or nullptr when none is live.
  ReplicaPtr FailoverFrom(const ReplicaPtr& failed);
  /// The current primary, or nullptr when the set is empty / all-dead.
  ReplicaPtr AcquirePrimary() const;
  /// The replica a read should land on under the configured policy (see
  /// Read on `affinity`). Falls back to the primary whenever distribution
  /// has nothing to offer (kPrimaryOnly, single replica, no live replica,
  /// dead pin).
  ReplicaPtr AcquireReadReplica(uint64_t affinity) const;
  /// Post-read bookkeeping + contract enforcement for replicated slots:
  /// re-asks the primary when a standby refused a read it would serve
  /// (kUnknownSource drift / its own LRU eviction) or when the answer
  /// violates max_epoch_lag, records the staleness sample, advances the
  /// served-epoch floor, and counts the read on the replica that finally
  /// answered.
  QueryResponse ObserveRead(ReplicaPtr replica, const Request& request,
                            QueryResponse response);
  /// The primary IFF it is the only replica (the unreplicated fast
  /// path), else nullptr. Lets feed ops submit outside mu_ — a remote
  /// submission is a socket write that may block.
  ReplicaPtr SolePrimary() const;
  /// One consistent (replicas, primary) view.
  void SnapshotReplicas(std::vector<ReplicaPtr>* replicas,
                        ReplicaPtr* primary) const;
  /// THE feed backpressure loop: while `response` is kShedQueueFull,
  /// backs off and resubmits `request` to `replica` (counting
  /// update_retries).
  MaintResponse RetryWhileShed(const ReplicaPtr& replica,
                               MaintResponse response,
                               const Request& request);
  /// The ordered fan-out: every live standby first, then the primary.
  /// Returns the primary's response (or, after a primary death, the
  /// response of the standby promoted in its place — which already
  /// applied the op in the first phase).
  MaintResponse FanOutFeed(const Request& request);
  MaintResponse QuiesceAll();

  ReplicaSetOptions options_;
  /// Guards primary_ and the live flags (failover runs under concurrent
  /// reads). The vector's STRUCTURE only changes caller-serialized, but
  /// is still read under mu_ so failover and introspection see one
  /// consistent view.
  mutable std::mutex mu_;
  /// One feed fan-out at a time: every replica sees the same op order.
  std::mutex feed_mu_;
  std::vector<ReplicaPtr> replicas_;
  ReplicaPtr primary_;

  std::atomic<int64_t> failovers_{0};
  std::atomic<int64_t> update_retries_{0};
  std::atomic<int64_t> standby_syncs_{0};
  std::atomic<int64_t> sync_bytes_{0};

  /// Round-robin read distribution state.
  mutable std::atomic<uint64_t> read_cursor_{0};
  std::atomic<int64_t> primary_reads_{0};
  std::atomic<int64_t> standby_reads_{0};
  std::atomic<int64_t> stale_retries_{0};
  /// Guards the served-epoch floor and the staleness samples. One floor
  /// serves every source: all sources on a replica share its epoch.
  mutable std::mutex staleness_mu_;
  uint64_t served_floor_ = 0;
  Histogram staleness_;
};

}  // namespace dppr

#endif  // DPPR_ROUTER_REPLICA_SET_H_
