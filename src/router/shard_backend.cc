#include "router/shard_backend.h"

#include <utility>

#include "router/migration.h"
#include "util/macros.h"

namespace dppr {

using responses::Maint;
using responses::ReadyMaint;
using responses::ReadyQuery;

// ---------------------------------------------------------- ShardBackend

MaintResponse ShardBackend::CopyBlob(VertexId s, std::string* blob) {
  // Default: reuse the migration verbs — lift the source out and put the
  // same bytes straight back. The caller must hold readers and the feed
  // off this shard (the router's exclusive lock does), because the source
  // is briefly absent between the two calls.
  const MaintResponse extracted = ExtractBlob(s, blob);
  if (extracted.status != RequestStatus::kOk) return extracted;
  // The inject-back MUST land: returning a retryable status here would
  // hand the caller a shard that already lost the source (its retry
  // would re-extract nothing). A shed is retried until the queue admits
  // it — with the feed blocked by the caller, the queue only drains.
  const MaintResponse restored =
      responses::RetryShedBlocking([this, blob] { return InjectBlob(*blob); });
  // Any other failure means the backend died mid-way; surface that, the
  // source travels with the blob (and the caller can rescue it).
  if (restored.status != RequestStatus::kOk) return restored;
  return extracted;
}

// ------------------------------------------------------ LocalShardBackend

LocalShardBackend::LocalShardBackend(
    const std::vector<Edge>& edges, VertexId num_vertices,
    std::vector<VertexId> sources, const IndexOptions& index_options,
    const ServiceOptions& service_options, std::string data_dir,
    const storage::DurableStoreOptions& durability, uint64_t epoch) {
  if (!data_dir.empty()) {
    store_ = std::make_unique<storage::DurableStore>(
        std::move(data_dir), durability, /*feed_seq=*/epoch - 1);
    const Status opened = store_->Open();
    DPPR_CHECK_MSG(opened.ok(), opened.message().c_str());
    // Any prior state on disk wins over the seed arguments: this is a
    // restart, and the store's checkpoint + log ARE the shard.
    recovered_ = store_->has_checkpoint() ||
                 store_->recovered_log_records() > 0;
  }
  graph_ = std::make_unique<DynamicGraph>(
      DynamicGraph::FromEdges(edges, num_vertices));
  if (recovered_) {
    const Status restored = store_->RestoreGraph(graph_.get());
    DPPR_CHECK_MSG(restored.ok(), restored.message().c_str());
    // Sources come back through Replay (at their exact persisted epochs),
    // not the seed list — an imported source must not already exist.
    sources.clear();
  }
  index_ = std::make_unique<PprIndex>(graph_.get(), std::move(sources),
                                      index_options);
  index_->SetEpoch(epoch);  // recovery's Replay overrides it from disk
  service_ = std::make_unique<PprService>(index_.get(), service_options);
}

void LocalShardBackend::Start() {
  if (store_ != nullptr) {
    index_->SetSpillHooks(store_->MakeSpillHooks());
    service_->AttachDurableStore(store_.get());
  }
  if (recovered_) {
    // Replay instead of Initialize: restores the persisted epoch, imports
    // the checkpointed sources and re-applies the logged tail. Initialize
    // over the seed graph would publish the seed's epoch — exactly the
    // regression recovery exists to prevent.
    const Status replayed = store_->Replay(index_.get());
    DPPR_CHECK_MSG(replayed.ok(), replayed.message().c_str());
  } else {
    index_->Initialize();
    if (store_ != nullptr) {
      // Baseline checkpoint: the seed sources predate the log, so replay
      // alone could never rebuild them after a crash.
      const Status baseline = store_->WriteCheckpoint(*index_);
      DPPR_CHECK_MSG(baseline.ok(), baseline.message().c_str());
    }
  }
  service_->Start();
}

void LocalShardBackend::Stop() { service_->Stop(); }

std::future<QueryResponse> LocalShardBackend::Read(const Request& request) {
  if (severed()) return ReadyQuery(RequestStatus::kUnavailable);
  return service_->Read(request);
}

std::future<MaintResponse> LocalShardBackend::Feed(const Request& request) {
  if (severed()) return ReadyMaint(RequestStatus::kUnavailable);
  return service_->Feed(request);
}

std::future<std::vector<QueryResponse>> LocalShardBackend::MultiSourceAsync(
    std::vector<VertexId> sources, VertexId v, int64_t deadline_ms) {
  if (severed()) {
    std::promise<std::vector<QueryResponse>> promise;
    std::vector<QueryResponse> responses(sources.size());
    for (QueryResponse& response : responses) {
      response.status = RequestStatus::kUnavailable;
    }
    promise.set_value(std::move(responses));
    return promise.get_future();
  }
  return service_->MultiSourceAsync(std::move(sources), v, deadline_ms);
}

std::vector<VertexId> LocalShardBackend::Targets() const {
  if (severed()) return {};
  return service_->Targets();
}

MaintResponse LocalShardBackend::ExtractBlob(VertexId s,
                                             std::string* blob) {
  if (severed()) return Maint(RequestStatus::kUnavailable);
  ExportedSource exported;
  const MaintResponse response =
      service_->ExtractSourceAsync(s, &exported).get();
  if (response.status != RequestStatus::kOk) return response;
  const Status st = EncodeMigrationBlob(exported, blob);
  DPPR_CHECK_MSG(st.ok(), st.message().c_str());
  return response;
}

MaintResponse LocalShardBackend::InjectBlob(const std::string& blob) {
  if (severed()) return Maint(RequestStatus::kUnavailable);
  ExportedSource incoming;
  if (!DecodeMigrationBlob(blob, &incoming).ok()) {
    MaintResponse response;
    response.status = RequestStatus::kRejected;
    return response;
  }
  return service_->InjectSourceAsync(std::move(incoming)).get();
}

MaintResponse LocalShardBackend::CopyBlob(VertexId s, std::string* blob) {
  // Non-destructive in-process copy: the maintenance thread fills the
  // export while the source keeps serving — no absence window at all.
  if (severed()) return Maint(RequestStatus::kUnavailable);
  ExportedSource copied;
  const MaintResponse response =
      service_->CopySourceAsync(s, &copied).get();
  if (response.status != RequestStatus::kOk) return response;
  const Status st = EncodeMigrationBlob(copied, blob);
  DPPR_CHECK_MSG(st.ok(), st.message().c_str());
  return response;
}

bool LocalShardBackend::Sever() {
  severed_.store(true, std::memory_order_release);
  return true;
}

std::vector<VertexId> LocalShardBackend::Sources() const {
  // A severed backend reports like a dead remote: no sources. The failure
  // story is the per-request kUnavailable, not introspection.
  if (severed()) return {};
  return index_->Sources();
}

size_t LocalShardBackend::NumSources() const {
  if (severed()) return 0;
  return index_->NumSources();
}

bool LocalShardBackend::HasSource(VertexId s) const {
  if (severed()) return false;
  return index_->HasSource(s);
}

uint64_t LocalShardBackend::MaxEpoch() const {
  return severed() ? 0 : index_->Epoch();
}

uint64_t LocalShardBackend::GraphChecksum() const {
  if (severed()) return 0;
  return graph_->Checksum();
}

void LocalShardBackend::SnapshotMetrics(MetricsReport* report,
                                        Histogram* query_ms,
                                        Histogram* batch_ms) const {
  if (severed()) return;
  service_->SnapshotMetrics(report, query_ms, batch_ms);
}

// ----------------------------------------------------- RemoteShardBackend

RemoteShardBackend::RemoteShardBackend(
    const net::RemoteClientOptions& options)
    : client_(std::make_unique<net::RemoteShardClient>(options)) {}

Status RemoteShardBackend::Connect(const std::string& host, int port) {
  return client_->Connect(host, port);
}

Status RemoteShardBackend::FetchStats(net::ShardStats* out) const {
  return client_->Stats(/*include_samples=*/false, out);
}

void RemoteShardBackend::Stop() { client_->Disconnect(); }

std::future<QueryResponse> RemoteShardBackend::Read(const Request& request) {
  return client_->Read(request);
}

std::future<MaintResponse> RemoteShardBackend::Feed(const Request& request) {
  return client_->Feed(request);
}

std::future<std::vector<QueryResponse>>
RemoteShardBackend::MultiSourceAsync(std::vector<VertexId> sources,
                                     VertexId v, int64_t deadline_ms) {
  return client_->MultiSourceAsync(std::move(sources), v, deadline_ms);
}

std::vector<VertexId> RemoteShardBackend::Targets() const {
  std::vector<VertexId> targets;
  (void)client_->ListTargets(&targets);
  return targets;
}

MaintResponse RemoteShardBackend::ExtractBlob(VertexId s,
                                              std::string* blob) {
  return client_->ExtractBlob(s, blob);
}

MaintResponse RemoteShardBackend::InjectBlob(const std::string& blob) {
  return client_->InjectBlob(blob);
}

std::vector<VertexId> RemoteShardBackend::Sources() const {
  std::vector<VertexId> sources;
  // A dead connection answers "no sources" — the router's per-request
  // statuses (kUnavailable) carry the failure story, not introspection.
  (void)client_->ListSources(&sources);
  return sources;
}

size_t RemoteShardBackend::NumSources() const {
  // Fixed-size kStats reply instead of shipping the whole source list.
  net::ShardStats stats;
  if (!client_->Stats(/*include_samples=*/false, &stats).ok()) return 0;
  return static_cast<size_t>(stats.num_sources);
}

bool RemoteShardBackend::HasSource(VertexId s) const {
  const std::vector<VertexId> sources = Sources();
  for (VertexId candidate : sources) {
    if (candidate == s) return true;
  }
  return false;
}

FeedPosition RemoteShardBackend::Position() const {
  net::ShardStats stats;
  if (!client_->Stats(/*include_samples=*/false, &stats).ok()) return {};
  return {stats.graph_checksum, stats.max_epoch};
}

void RemoteShardBackend::SnapshotMetrics(MetricsReport* report,
                                         Histogram* query_ms,
                                         Histogram* batch_ms) const {
  net::ShardStats stats;
  if (!client_->Stats(/*include_samples=*/true, &stats).ok()) return;
  *report = stats.report;
  for (double v : stats.query_latency_samples) query_ms->Add(v);
  for (double v : stats.batch_latency_samples) batch_ms->Add(v);
}

bool RemoteShardBackend::Sever() {
  client_->Disconnect();
  return true;
}

}  // namespace dppr
