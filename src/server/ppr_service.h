// PprService — the concurrent serving layer over PprIndex.
//
// The paper's target workload (§6: hub/celebrity PPR on a streaming
// social graph) is an online front-end: queries race with edge updates,
// and hubs come and go. PprIndex provides the safe substrate (epoch-
// versioned snapshot reads concurrent with single-maintainer mutation);
// PprService supplies the missing machinery around it:
//
//   * a pool of query worker threads pulling from a bounded MPMC queue
//     (QueryVertex / TopK requests), answering from published snapshots —
//     reads never block on maintenance;
//   * ONE maintenance thread owning every index mutation (ApplyBatch,
//     AddSource, RemoveSource, MaterializeSource, LRU eviction), which
//     makes the index's "externally serialized maintainer" contract a
//     structural property instead of a convention. Incoming update
//     requests are coalesced: consecutive queued batches merge into one
//     ApplyBatch (restore cost is shared across sources either way, and
//     one push amortizes better than many small ones);
//   * admission control — bounded queues shed on overflow, and each
//     request may carry a deadline: a worker popping an expired request
//     drops it unexecuted (the client has given up; finishing the work
//     would only add queueing delay for everyone behind it);
//   * on-demand materialization — a query hitting an LRU-evicted source
//     files a materialization request with the maintenance thread and
//     briefly waits (bounded by ServiceOptions::materialize_wait and the
//     request deadline) for the rebuild;
//   * latency/throughput metrics (p50/p99, shed counts, queries served
//     while ApplyBatch was running).
//
// See README.md in this directory for the full threading model.

#ifndef DPPR_SERVER_PPR_SERVICE_H_
#define DPPR_SERVER_PPR_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/query.h"
#include "estimator/estimator_index.h"
#include "graph/types.h"
#include "index/ppr_index.h"
#include "server/metrics.h"
#include "server/request.h"
#include "server/request_queue.h"

namespace dppr {

namespace storage {
class DurableStore;
enum class LogRecordType : uint8_t;
}  // namespace storage

/// \brief Terminal status of one service request.
enum class RequestStatus {
  kOk,
  kShedQueueFull,    ///< refused at admission: the bounded queue was full
  kShedDeadline,     ///< expired in the queue; dropped unexecuted
  kUnknownSource,    ///< no such source in the index
  kNotMaterialized,  ///< source evicted and the rebuild wait ran out
  kRejected,         ///< admin op refused (e.g. AddSource of a known hub)
  kClosed,           ///< service stopped before the request ran
  kUnavailable,      ///< remote shard unreachable / connection lost
};

const char* RequestStatusName(RequestStatus status);

/// \brief Answer to a QueryVertex/TopK request.
struct QueryResponse {
  RequestStatus status = RequestStatus::kClosed;
  uint64_t epoch = 0;  ///< snapshot epoch the answer was read from
  bool during_maintenance = false;  ///< ApplyBatch was running concurrently
  PointEstimate estimate;           ///< QueryVertex answers
  GuaranteedTopK topk;              ///< TopK answers
};

/// \brief Answer to an update/admin request.
struct MaintResponse {
  RequestStatus status = RequestStatus::kClosed;
  int64_t updates_applied = 0;  ///< edge updates this request contributed
};

/// \brief Tuning knobs of a PprService.
struct ServiceOptions {
  /// Query worker threads. 0 is legal (requests queue but nothing serves
  /// them — useful for admission-control tests) .
  int num_workers = 4;
  size_t query_queue_capacity = 1024;
  size_t update_queue_capacity = 256;
  /// Upper bound on edge updates merged into one ApplyBatch when the
  /// maintenance thread coalesces a burst of queued update requests.
  size_t max_coalesced_updates = 8192;
  /// Deadline applied to queries that do not carry their own; zero means
  /// no deadline.
  std::chrono::milliseconds default_deadline{0};
  /// How long a worker may wait for the maintenance thread to rebuild an
  /// evicted source before answering kNotMaterialized. Zero = fail fast.
  std::chrono::milliseconds materialize_wait{100};
  /// Estimator subsystem (reverse push / walk index / hybrid). When
  /// enabled, Start() builds an EstimatorIndex over the index's graph
  /// (alpha forced to the index's ppr alpha) and the maintenance thread
  /// mirrors every applied batch into it. Estimator queries are answered
  /// kRejected when disabled.
  EstimatorOptions estimator{};
};

/// \brief Concurrent PPR serving front-end. See file comment.
///
/// Lifecycle: construct over an Initialize()d PprIndex, Start(), submit,
/// Stop() (destructor stops too). The index must not be mutated by anyone
/// else while the service runs — the maintenance thread is the single
/// maintainer.
class PprService {
 public:
  PprService(PprIndex* index, const ServiceOptions& options);
  ~PprService();

  PprService(const PprService&) = delete;
  PprService& operator=(const PprService&) = delete;

  /// Attaches the durable storage tier (may be null to detach). Must be
  /// called before Start. Once attached, the maintenance thread write-
  /// ahead-logs every update batch before applying it (fsync per commit,
  /// per DurableStoreOptions), logs admin ops after they succeed, and
  /// takes a checkpoint whenever the store's cadence says so. The store
  /// must already be Open()ed and must outlive this service. Recovery
  /// (RestoreGraph + Replay) is the CALLER's job, before Start.
  void AttachDurableStore(storage::DurableStore* store);

  /// Spawns the threads. A PprService is single-use: Start may run once,
  /// and after Stop the instance cannot be restarted (the bounded queues
  /// close permanently) — construct a new service instead.
  void Start();
  /// Graceful: closes admission, drains queued requests (workers finish
  /// them; anything left is answered kClosed), joins all threads.
  /// Idempotent.
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // --- Submission (any thread). A shed request returns a ready future. --

  /// Answers one read verb (server/request.h): p[v] +- eps, a certified
  /// top-k, or an estimator read. `deadline_ms` 0 = options default. A
  /// top-k `k` below one is answered kRejected without queueing.
  std::future<QueryResponse> Read(const Request& request);
  /// Queues one feed or admin verb on the maintenance thread. Update
  /// batches may be merged with other queued ones into one ApplyBatch;
  /// kQuiesce is a FIFO barrier (resolves once everything submitted
  /// before it was processed — with update admission paused by the
  /// caller, the index is then drained and at rest). Target admin answers
  /// kRejected when the estimator is disabled.
  std::future<MaintResponse> Feed(Request request);
  /// p[v] for each of `sources`: every read is submitted now, the answers
  /// are gathered in request order when the future is read.
  std::future<std::vector<QueryResponse>> MultiSourceAsync(
      std::vector<VertexId> sources, VertexId v, int64_t deadline_ms);

  // Typed builders over Read/Feed.
  std::future<QueryResponse> QueryVertexAsync(VertexId s, VertexId v,
                                              int64_t deadline_ms = 0) {
    return Read({.verb = Verb::kQueryVertex, .source = s, .vertex = v,
                 .deadline_ms = deadline_ms});
  }
  std::future<QueryResponse> TopKAsync(VertexId s, int k,
                                       int64_t deadline_ms = 0) {
    return Read({.verb = Verb::kTopK, .source = s, .k = k,
                 .deadline_ms = deadline_ms});
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
  QueryResponse Query(VertexId s, VertexId v, int64_t deadline_ms = 0) {
    return QueryVertexAsync(s, v, deadline_ms).get();
  }
  QueryResponse TopK(VertexId s, int k, int64_t deadline_ms = 0) {
    return TopKAsync(s, k, deadline_ms).get();
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
  std::future<MaintResponse> AddTargetAsync(VertexId t) {
    return Feed({.verb = Verb::kAddTarget, .target = t});
  }
  std::future<MaintResponse> RemoveTargetAsync(VertexId t) {
    return Feed({.verb = Verb::kRemoveTarget, .target = t});
  }
  MaintResponse Quiesce() { return Feed({.verb = Verb::kQuiesce}).get(); }

  // --- Shard-facing hooks (the sharded router drives these) -------------

  /// Lifts source `s` out of this shard's index (see
  /// PprIndex::ExportSource). `out` must stay alive until the future
  /// resolves. kUnknownSource if `s` is not a source here.
  std::future<MaintResponse> ExtractSourceAsync(VertexId s,
                                                ExportedSource* out);

  /// ExtractSourceAsync without the removal (see PprIndex::PeekSource):
  /// copies `s`'s state at its current epoch while the service keeps
  /// serving it. This is the standby-sync read — a replica set ships the
  /// copy to a standby at an unchanged epoch. `out` must stay alive until
  /// the future resolves. kUnknownSource if `s` is not a source here.
  std::future<MaintResponse> CopySourceAsync(VertexId s,
                                             ExportedSource* out);

  /// Installs a source exported from another shard (see
  /// PprIndex::ImportSource). kRejected if the source already exists.
  std::future<MaintResponse> InjectSourceAsync(ExportedSource in);

  // --- Introspection (any thread) ---------------------------------------

  MetricsReport Metrics() const { return metrics_.Snapshot(); }
  /// Counters and latency samples from ONE observation (see
  /// ServiceMetrics::SnapshotWithLatencies) — what shard aggregators use
  /// so a combined report never pairs counters with samples from a
  /// different instant.
  void SnapshotMetrics(MetricsReport* report, Histogram* query_latency_ms,
                       Histogram* batch_latency_ms) const {
    metrics_.SnapshotWithLatencies(report, query_latency_ms,
                                   batch_latency_ms);
  }
  /// True while the maintenance thread is inside ApplyBatch.
  bool InMaintenance() const {
    return in_maintenance_.load(std::memory_order_acquire);
  }
  const ServiceOptions& options() const { return options_; }
  PprIndex* index() { return index_; }
  /// Null before Start or when ServiceOptions::estimator.enabled is false.
  EstimatorIndex* estimator() { return estimator_.get(); }
  /// Registered reverse-push targets (empty when the estimator is off).
  std::vector<VertexId> Targets() const {
    return estimator_ ? estimator_->Targets() : std::vector<VertexId>{};
  }
  bool HasTarget(VertexId t) const {
    return estimator_ && estimator_->HasTarget(t);
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct QueryRequest {
    Request request;
    Clock::time_point enqueue_time;
    Clock::time_point deadline;
    bool has_deadline = false;
    std::promise<QueryResponse> promise;
  };

  struct MaintRequest {
    enum class Kind {
      kUpdates,
      kAddSource,
      kRemoveSource,
      kMaterialize,
      kBarrier,
      kExtractSource,
      kCopySource,
      kInjectSource,
      kAddTarget,
      kRemoveTarget,
    };
    Kind kind = Kind::kUpdates;
    UpdateBatch batch;
    VertexId source = kInvalidVertex;
    ExportedSource* export_out = nullptr;  ///< kExtractSource destination
    ExportedSource import;                 ///< kInjectSource payload
    /// Worker-filed materialization requests are fire-and-forget.
    bool wants_response = false;
    std::promise<MaintResponse> promise;
  };

  std::future<MaintResponse> SubmitMaint(MaintRequest request);
  void WorkerLoop();
  void MaintenanceLoop();
  /// Processes one drained run of maintenance requests in FIFO order,
  /// merging consecutive update requests into single ApplyBatch calls.
  void ProcessMaintRun(std::vector<MaintRequest>* run);
  void HandleAdmin(MaintRequest* request);
  /// Appends an add/remove-source record for `s` when a durable store is
  /// attached. Call only after the op succeeded (failed admin ops must
  /// not replay).
  void LogAdmin(storage::LogRecordType type, VertexId s);
  QueryResponse ExecuteQuery(const QueryRequest& query);
  /// Answers the estimator reads (worker threads; reads under the
  /// EstimatorIndex shared lock).
  QueryResponse ExecuteEstimatorQuery(const Request& request);
  SourceReadResult ReadIndex(const Request& request) const;
  /// Files a fire-and-forget materialization request and waits (bounded)
  /// for the maintenance thread to rebuild `s`.
  void AwaitMaterialization(VertexId s, Clock::time_point wait_until);

  PprIndex* index_;
  ServiceOptions options_;
  /// Built by Start() when options_.estimator.enabled; maintenance
  /// mirrors every applied batch into it, workers read it.
  std::unique_ptr<EstimatorIndex> estimator_;
  /// Optional durability: when set, maintenance write-ahead-logs through
  /// it. Only the maintenance thread touches it after Start.
  storage::DurableStore* store_ = nullptr;
  ServiceMetrics metrics_;
  BoundedQueue<QueryRequest> query_queue_;
  BoundedQueue<MaintRequest> maint_queue_;
  std::vector<std::thread> workers_;
  std::thread maintenance_;
  std::atomic<bool> running_{false};
  bool started_ = false;
  bool stopped_ = false;
  std::atomic<bool> in_maintenance_{false};
  /// Wakes workers parked in AwaitMaterialization after every admin op.
  std::mutex materialize_mu_;
  std::condition_variable materialize_cv_;
};

}  // namespace dppr

#endif  // DPPR_SERVER_PPR_SERVICE_H_
