#include "server/ppr_service.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "storage/durable_store.h"
#include "util/macros.h"
#include "util/timer.h"

namespace dppr {
namespace {

/// Maintenance requests drained per cycle on top of the blocking pop:
/// bounds the latency of an admin op stuck behind a burst of updates.
constexpr size_t kMaintDrainPerCycle = 63;

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

const char* RequestStatusName(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kShedQueueFull: return "shed-queue-full";
    case RequestStatus::kShedDeadline: return "shed-deadline";
    case RequestStatus::kUnknownSource: return "unknown-source";
    case RequestStatus::kNotMaterialized: return "not-materialized";
    case RequestStatus::kRejected: return "rejected";
    case RequestStatus::kClosed: return "closed";
    case RequestStatus::kUnavailable: return "unavailable";
  }
  return "?";
}

PprService::PprService(PprIndex* index, const ServiceOptions& options)
    : index_(index),
      options_(options),
      query_queue_(options.query_queue_capacity),
      maint_queue_(options.update_queue_capacity) {
  DPPR_CHECK(index != nullptr);
  DPPR_CHECK(options.num_workers >= 0);
  DPPR_CHECK(options.max_coalesced_updates > 0);
}

PprService::~PprService() { Stop(); }

void PprService::AttachDurableStore(storage::DurableStore* store) {
  DPPR_CHECK_MSG(!started_, "attach the durable store before Start");
  store_ = store;
}

void PprService::Start() {
  // One-shot lifecycle: the bounded queues close permanently on Stop, so
  // a restarted service would accept nothing — fail loudly instead.
  DPPR_CHECK_MSG(!started_ && !stopped_,
                 "PprService is single-use: Start may run once");
  started_ = true;
  if (options_.estimator.enabled) {
    // Built here, AFTER the caller's recovery replay, so the replica
    // clones the recovered graph. Alpha is forced to the serving index's:
    // mixing alphas would silently compare incomparable quantities in the
    // equivalence suites.
    EstimatorOptions estimator_options = options_.estimator;
    estimator_options.alpha = index_->options().ppr.alpha;
    estimator_ = std::make_unique<EstimatorIndex>(
        *index_->graph(), estimator_options, index_->Epoch());
  }
  running_.store(true, std::memory_order_release);
  metrics_.MarkStart();
  maintenance_ = std::thread([this] { MaintenanceLoop(); });
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void PprService::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  running_.store(false, std::memory_order_release);
  // Admission closes first; workers drain what was already accepted.
  query_queue_.Close();
  // The empty critical section orders the notify after any worker that
  // saw running_ == true in its wait predicate has actually parked —
  // without it the wakeup is lost and Stop stalls for materialize_wait.
  { std::lock_guard<std::mutex> lock(materialize_mu_); }
  materialize_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  // With zero workers (admission-control tests) accepted queries are
  // still owed an answer.
  std::vector<QueryRequest> leftover;
  while (query_queue_.TryDrain(&leftover, 64) > 0) {
    for (QueryRequest& request : leftover) {
      QueryResponse response;
      response.status = RequestStatus::kClosed;
      request.promise.set_value(std::move(response));
    }
    leftover.clear();
  }
  // The maintenance thread drains its queue before exiting, so queued
  // updates are applied, not dropped.
  maint_queue_.Close();
  maintenance_.join();
}

// ------------------------------------------------------------ submission

std::future<QueryResponse> PprService::Read(const Request& request) {
  DPPR_CHECK_MSG(IsRead(request.verb), "not a read verb");
  QueryRequest query;
  std::future<QueryResponse> future = query.promise.get_future();
  if ((request.verb == Verb::kTopK || request.verb == Verb::kReverseTopK) &&
      request.k < 1) {
    // A payload violation, not a question: nothing ranks below one.
    metrics_.RecordQueryFailed();
    QueryResponse response;
    response.status = RequestStatus::kRejected;
    query.promise.set_value(std::move(response));
    return future;
  }
  query.request = request;
  query.enqueue_time = Clock::now();
  if (request.deadline_ms > 0) {
    query.deadline =
        query.enqueue_time + std::chrono::milliseconds(request.deadline_ms);
    query.has_deadline = true;
  } else if (options_.default_deadline.count() > 0) {
    query.deadline = query.enqueue_time + options_.default_deadline;
    query.has_deadline = true;
  }
  if (!query_queue_.TryPush(std::move(query))) {
    // Admission control: a refused request is answered immediately (the
    // TryPush contract leaves `query` — and its promise — intact).
    QueryResponse response;
    response.status = query_queue_.closed() ? RequestStatus::kClosed
                                            : RequestStatus::kShedQueueFull;
    if (response.status == RequestStatus::kShedQueueFull) {
      metrics_.RecordQueryShedQueueFull();
    }
    query.promise.set_value(std::move(response));
  }
  return future;
}

std::future<std::vector<QueryResponse>> PprService::MultiSourceAsync(
    std::vector<VertexId> sources, VertexId v, int64_t deadline_ms) {
  // Submit everything now (so the requests queue concurrently); defer
  // only the gather to the caller's .get().
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(sources.size());
  for (VertexId s : sources) {
    futures.push_back(QueryVertexAsync(s, v, deadline_ms));
  }
  return std::async(
      std::launch::deferred,
      [futures = std::move(futures)]() mutable {
        std::vector<QueryResponse> responses;
        responses.reserve(futures.size());
        for (auto& future : futures) responses.push_back(future.get());
        return responses;
      });
}

std::future<MaintResponse> PprService::SubmitMaint(MaintRequest request) {
  request.wants_response = true;
  std::future<MaintResponse> future = request.promise.get_future();
  const bool is_updates = request.kind == MaintRequest::Kind::kUpdates;
  if (!maint_queue_.TryPush(std::move(request))) {
    MaintResponse response;
    response.status = maint_queue_.closed() ? RequestStatus::kClosed
                                            : RequestStatus::kShedQueueFull;
    if (is_updates && response.status == RequestStatus::kShedQueueFull) {
      metrics_.RecordUpdateShedQueueFull();
    }
    request.promise.set_value(std::move(response));
  }
  return future;
}

std::future<MaintResponse> PprService::Feed(Request request) {
  using Kind = MaintRequest::Kind;
  MaintRequest maint;
  maint.source = request.source;
  switch (request.verb) {
    case Verb::kApplyUpdates:
      maint.kind = Kind::kUpdates;
      maint.batch = std::move(request.batch);
      break;
    case Verb::kQuiesce:
      maint.kind = Kind::kBarrier;
      break;
    case Verb::kAddSource:
      maint.kind = Kind::kAddSource;
      break;
    case Verb::kRemoveSource:
      maint.kind = Kind::kRemoveSource;
      break;
    case Verb::kAddTarget:
      maint.kind = Kind::kAddTarget;
      maint.source = request.target;
      break;
    case Verb::kRemoveTarget:
      maint.kind = Kind::kRemoveTarget;
      maint.source = request.target;
      break;
    default:
      DPPR_CHECK_MSG(false, "not a feed verb");
  }
  return SubmitMaint(std::move(maint));
}

std::future<MaintResponse> PprService::ExtractSourceAsync(
    VertexId s, ExportedSource* out) {
  DPPR_CHECK(out != nullptr);
  MaintRequest request;
  request.kind = MaintRequest::Kind::kExtractSource;
  request.source = s;
  request.export_out = out;
  return SubmitMaint(std::move(request));
}

std::future<MaintResponse> PprService::CopySourceAsync(VertexId s,
                                                       ExportedSource* out) {
  DPPR_CHECK(out != nullptr);
  MaintRequest request;
  request.kind = MaintRequest::Kind::kCopySource;
  request.source = s;
  request.export_out = out;
  return SubmitMaint(std::move(request));
}

std::future<MaintResponse> PprService::InjectSourceAsync(ExportedSource in) {
  MaintRequest request;
  request.kind = MaintRequest::Kind::kInjectSource;
  request.source = in.source;
  request.import = std::move(in);
  return SubmitMaint(std::move(request));
}

// --------------------------------------------------------- query workers

void PprService::WorkerLoop() {
  for (;;) {
    std::optional<QueryRequest> request = query_queue_.Pop();
    if (!request.has_value()) break;  // closed and drained
    if (request->has_deadline && Clock::now() > request->deadline) {
      metrics_.RecordQueryShedDeadline();
      QueryResponse response;
      response.status = RequestStatus::kShedDeadline;
      request->promise.set_value(std::move(response));
      continue;
    }
    QueryResponse response = ExecuteQuery(*request);
    if (response.status == RequestStatus::kOk) {
      metrics_.RecordQuery(MillisSince(request->enqueue_time),
                           response.during_maintenance);
    } else {
      metrics_.RecordQueryFailed();
    }
    request->promise.set_value(std::move(response));
  }
}

SourceReadResult PprService::ReadIndex(const Request& request) const {
  return request.verb == Verb::kQueryVertex
             ? index_->QueryVertexForSource(request.source, request.vertex)
             : index_->TopKForSource(request.source, request.k);
}

QueryResponse PprService::ExecuteEstimatorQuery(const Request& request) {
  QueryResponse response;
  response.during_maintenance =
      in_maintenance_.load(std::memory_order_acquire);
  if (!estimator_) {
    response.status = RequestStatus::kRejected;
    return response;
  }
  if (request.verb == Verb::kReverseTopK) {
    ReverseTopKResult read = estimator_->ReverseTopK(request.target,
                                                     request.k);
    // kUnknownSource doubles as "unknown target": the router's reroute
    // logic treats both as "this shard does not own the id".
    response.status =
        read.known ? RequestStatus::kOk : RequestStatus::kUnknownSource;
    response.epoch = read.epoch;
    response.topk = std::move(read.topk);
    return response;
  }
  PairResult read =
      request.verb == Verb::kHybridQuery
          ? estimator_->HybridPair(request.source, request.target)
          : estimator_->QueryPair(request.source, request.target);
  response.status =
      read.known ? RequestStatus::kOk : RequestStatus::kUnknownSource;
  response.epoch = read.epoch;
  response.estimate = read.estimate;
  return response;
}

QueryResponse PprService::ExecuteQuery(const QueryRequest& query) {
  const Request& request = query.request;
  if (request.verb != Verb::kQueryVertex && request.verb != Verb::kTopK) {
    return ExecuteEstimatorQuery(request);
  }
  SourceReadResult read = ReadIndex(request);
  if (read.status == SourceReadResult::Status::kNotMaterialized &&
      options_.materialize_wait.count() > 0) {
    Clock::time_point wait_until =
        Clock::now() + options_.materialize_wait;
    if (query.has_deadline) {
      wait_until = std::min(wait_until, query.deadline);
    }
    AwaitMaterialization(request.source, wait_until);
    read = ReadIndex(request);
  }

  QueryResponse response;
  response.epoch = read.epoch;
  // Sampled when the answer is ready: "how many queries completed while a
  // batch was in flight" is the serving-during-maintenance metric.
  response.during_maintenance =
      in_maintenance_.load(std::memory_order_acquire);
  switch (read.status) {
    case SourceReadResult::Status::kOk:
      response.status = RequestStatus::kOk;
      response.estimate = read.estimate;
      response.topk = std::move(read.topk);
      break;
    case SourceReadResult::Status::kUnknownSource:
      response.status = RequestStatus::kUnknownSource;
      break;
    case SourceReadResult::Status::kNotMaterialized:
      response.status = RequestStatus::kNotMaterialized;
      break;
  }
  return response;
}

void PprService::AwaitMaterialization(VertexId s,
                                      Clock::time_point wait_until) {
  MaintRequest request;
  request.kind = MaintRequest::Kind::kMaterialize;
  request.source = s;
  request.wants_response = false;
  // A full maintenance queue means the rebuild would sit behind a long
  // backlog anyway — fail fast and let the client retry.
  if (!maint_queue_.TryPush(std::move(request))) return;
  std::unique_lock<std::mutex> lock(materialize_mu_);
  materialize_cv_.wait_until(lock, wait_until, [&] {
    return !running_.load(std::memory_order_acquire) ||
           index_->IsMaterializedSource(s);
  });
}

// ----------------------------------------------------- maintenance thread

void PprService::MaintenanceLoop() {
  std::vector<MaintRequest> run;
  for (;;) {
    std::optional<MaintRequest> first = maint_queue_.Pop();
    if (!first.has_value()) break;  // closed and drained
    run.clear();
    run.push_back(std::move(*first));
    // Coalesce whatever arrived behind it, preserving FIFO order.
    maint_queue_.TryDrain(&run, kMaintDrainPerCycle);
    ProcessMaintRun(&run);
  }
}

void PprService::ProcessMaintRun(std::vector<MaintRequest>* run) {
  size_t i = 0;
  UpdateBatch merged;
  while (i < run->size()) {
    MaintRequest& head = (*run)[i];
    if (head.kind != MaintRequest::Kind::kUpdates) {
      HandleAdmin(&head);
      ++i;
      continue;
    }
    // Merge the maximal run of consecutive update requests that fits the
    // coalescing cap (a single oversized request still goes through).
    size_t end = i;
    size_t total = 0;
    while (end < run->size() &&
           (*run)[end].kind == MaintRequest::Kind::kUpdates &&
           (end == i || total + (*run)[end].batch.size() <=
                            options_.max_coalesced_updates)) {
      total += (*run)[end].batch.size();
      ++end;
    }
    WallTimer timer;
    in_maintenance_.store(true, std::memory_order_release);
    const UpdateBatch* batch = &head.batch;
    if (end > i + 1) {
      merged.clear();
      merged.reserve(total);
      for (size_t j = i; j < end; ++j) {
        merged.insert(merged.end(), (*run)[j].batch.begin(),
                      (*run)[j].batch.end());
      }
      batch = &merged;
    }
    // The epoch advances by the number of REQUESTS folded in, not by one
    // per ApplyBatch: coalescing is a timing artifact of this replica's
    // queue, and a replica that merged the same requests differently must
    // still land on the same epoch (failover correctness). WAL: the record
    // hits disk before the state moves, so a crash can only lose
    // acknowledged-but-unapplied work, never applied-but-unlogged work.
    // Log failure is fail-stop: continuing would silently break the
    // durability contract restart relies on.
    if (store_ != nullptr) {
      const Status logged =
          store_->LogBatch(*batch, static_cast<uint32_t>(end - i));
      DPPR_CHECK_MSG(logged.ok(), "batch log append failed");
    }
    index_->ApplyBatch(*batch, end - i);
    // The estimator replica sees the SAME merged feed (its walk RNGs are
    // keyed by individual updates, so coalescing cannot desynchronize the
    // walk index) and stamps its targets with the index's epoch.
    if (estimator_) estimator_->ApplyBatch(*batch, index_->Epoch());
    in_maintenance_.store(false, std::memory_order_release);
    metrics_.RecordBatch(static_cast<int64_t>(total), timer.Millis());
    if (store_ != nullptr && store_->ShouldCheckpoint()) {
      // Cadence checkpoint on the maintenance thread: the index is at
      // rest between requests, so the capture is a consistent cut. A
      // failed checkpoint is not fatal — the log still covers everything.
      const Status st = store_->WriteCheckpoint(*index_);
      if (!st.ok()) {
        std::fprintf(stderr, "dppr: checkpoint failed: %s\n",
                     st.message().c_str());
      }
    }
    for (size_t j = i; j < end; ++j) {
      MaintRequest& request = (*run)[j];
      if (!request.wants_response) continue;
      MaintResponse response;
      response.status = RequestStatus::kOk;
      response.updates_applied = static_cast<int64_t>(request.batch.size());
      request.promise.set_value(std::move(response));
    }
    i = end;
  }
}

void PprService::LogAdmin(storage::LogRecordType type, VertexId s) {
  if (store_ == nullptr) return;
  const Status logged = type == storage::LogRecordType::kAddSource
                            ? store_->LogAddSource(s)
                            : store_->LogRemoveSource(s);
  DPPR_CHECK_MSG(logged.ok(), "admin log append failed");
}

void PprService::HandleAdmin(MaintRequest* request) {
  MaintResponse response;
  const int64_t live_before =
      static_cast<int64_t>(index_->NumMaterializedSources());
  int64_t live_delta = 0;  ///< expected live-set change absent evictions
  switch (request->kind) {
    case MaintRequest::Kind::kAddSource: {
      const bool ok = index_->AddSource(request->source);
      response.status = ok ? RequestStatus::kOk : RequestStatus::kRejected;
      if (ok) {
        // Admin ops are logged AFTER they succeed (unlike batches): a
        // rejected op must not be replayed on recovery.
        LogAdmin(storage::LogRecordType::kAddSource, request->source);
        metrics_.RecordSourceAdded();
        live_delta = 1;
      }
      break;
    }
    case MaintRequest::Kind::kRemoveSource: {
      const bool was_live = index_->IsMaterializedSource(request->source);
      const bool ok = index_->RemoveSource(request->source);
      response.status =
          ok ? RequestStatus::kOk : RequestStatus::kUnknownSource;
      if (ok) {
        LogAdmin(storage::LogRecordType::kRemoveSource, request->source);
        metrics_.RecordSourceRemoved();
        if (was_live) live_delta = -1;  // a removal, not an eviction
      }
      break;
    }
    case MaintRequest::Kind::kMaterialize: {
      const bool was_live = index_->IsMaterializedSource(request->source);
      const int64_t remat_before = index_->SpillRematerializations();
      WallTimer timer;
      const bool ok = index_->MaterializeSource(request->source);
      response.status =
          ok ? RequestStatus::kOk : RequestStatus::kUnknownSource;
      if (ok && !was_live) {
        metrics_.RecordSourceMaterialized();
        metrics_.RecordMaterialize(
            timer.Millis(),
            index_->SpillRematerializations() > remat_before);
        live_delta = 1;
      }
      break;
    }
    case MaintRequest::Kind::kBarrier:
      // FIFO queue + single maintenance thread: reaching this request
      // means everything submitted before it has been processed.
      response.status = RequestStatus::kOk;
      break;
    case MaintRequest::Kind::kExtractSource: {
      const bool was_live = index_->IsMaterializedSource(request->source);
      const bool ok = index_->ExportSource(request->source,
                                           request->export_out);
      response.status =
          ok ? RequestStatus::kOk : RequestStatus::kUnknownSource;
      if (ok) {
        // An extraction leaves this shard without the source: on replay
        // it must not come back, so durably it is a removal.
        LogAdmin(storage::LogRecordType::kRemoveSource, request->source);
        if (was_live) live_delta = -1;  // a handoff, not an eviction
      }
      break;
    }
    case MaintRequest::Kind::kCopySource: {
      const bool ok =
          index_->PeekSource(request->source, request->export_out);
      response.status =
          ok ? RequestStatus::kOk : RequestStatus::kUnknownSource;
      break;
    }
    case MaintRequest::Kind::kInjectSource: {
      const bool materialized = request->import.materialized;
      const VertexId injected = request->import.source;
      const bool ok = index_->ImportSource(std::move(request->import));
      response.status = ok ? RequestStatus::kOk : RequestStatus::kRejected;
      if (ok) {
        // Log-after-success without copying the (moved-from) payload:
        // re-read the just-installed state from the index — nothing ran
        // in between on this single maintenance thread, so it is
        // byte-equivalent to what was injected.
        if (store_ != nullptr) {
          ExportedSource snapshot;
          DPPR_CHECK(index_->PeekSource(injected, &snapshot));
          const Status logged = store_->LogInjectSource(snapshot);
          DPPR_CHECK_MSG(logged.ok(), "inject-source log append failed");
        }
        if (materialized) live_delta = 1;
      }
      break;
    }
    case MaintRequest::Kind::kAddTarget: {
      // Estimator targets are volatile (not WAL-logged): after recovery
      // the router or client re-registers them.
      const bool ok = estimator_ && estimator_->AddTarget(request->source);
      response.status = ok ? RequestStatus::kOk : RequestStatus::kRejected;
      break;
    }
    case MaintRequest::Kind::kRemoveTarget: {
      const bool ok =
          estimator_ && estimator_->RemoveTarget(request->source);
      response.status =
          ok ? RequestStatus::kOk : RequestStatus::kUnknownSource;
      break;
    }
    case MaintRequest::Kind::kUpdates:
      DPPR_CHECK_MSG(false, "updates are handled by ProcessMaintRun");
  }
  // LRU evictions happen inside the index when the cap is exceeded; infer
  // the count from the live-set delta.
  const int64_t evicted =
      live_before + live_delta -
      static_cast<int64_t>(index_->NumMaterializedSources());
  if (evicted > 0) metrics_.RecordSourcesEvicted(evicted);
  // Wake workers parked in AwaitMaterialization. The empty critical
  // section orders this notify after any waiter that checked its
  // predicate pre-materialization has actually parked (no lost wakeup).
  { std::lock_guard<std::mutex> lock(materialize_mu_); }
  materialize_cv_.notify_all();
  if (request->wants_response) {
    request->promise.set_value(std::move(response));
  }
}

}  // namespace dppr
