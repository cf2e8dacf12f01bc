#include "storage/durable_store.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "net/wire.h"
#include "router/migration.h"
#include "util/macros.h"

namespace dppr {
namespace storage {

DurableStore::DurableStore(std::string dir, DurableStoreOptions options,
                           uint64_t feed_seq)
    : dir_(std::move(dir)),
      options_(options),
      spill_(dir_),
      feed_seq_(feed_seq) {}

Status DurableStore::Open() {
  DPPR_CHECK(!opened_);
  if (::mkdir(dir_.c_str(), 0777) != 0 && errno != EEXIST) {
    return Status::IOError("cannot create data dir " + dir_ + ": " +
                           std::strerror(errno));
  }
  BatchLogOptions log_options;
  log_options.fsync_on_commit = options_.fsync_on_commit;
  DPPR_RETURN_NOT_OK(log_.Open(dir_ + "/LOG", log_options));

  Manifest manifest;
  Status st = LoadManifest(dir_, &manifest);
  if (st.ok()) {
    DPPR_RETURN_NOT_OK(LoadCheckpointFile(
        dir_ + "/" + manifest.checkpoint_file, &checkpoint_));
    manifest_ = std::move(manifest);
    has_checkpoint_ = true;
    feed_seq_ = checkpoint_.feed_seq;
  } else if (!st.IsNotFound()) {
    return st;  // a manifest that exists but doesn't load is corruption
  }

  // Seed the feed sequence even if the caller never replays (a store
  // opened on a non-empty log must keep appending monotonically).
  for (const LogRecord& rec : log_.records()) {
    if (rec.type == LogRecordType::kBatch) {
      feed_seq_ = std::max(feed_seq_, rec.seq + rec.increment);
    }
  }
  opened_ = true;
  return Status::OK();
}

Status DurableStore::RestoreGraph(DynamicGraph* graph) const {
  DPPR_CHECK(graph != nullptr);
  if (!has_checkpoint_) return Status::OK();
  *graph = DynamicGraph::FromEdges(checkpoint_.edges,
                                   checkpoint_.num_vertices);
  // LoadCheckpointFile already verified the fingerprint; this guards the
  // in-memory path (a caller handing us a different graph object later).
  if (graph->Checksum() != checkpoint_.graph_checksum) {
    return Status::Corruption("restored graph fingerprint mismatch");
  }
  return Status::OK();
}

Status DurableStore::Replay(PprIndex* index) {
  DPPR_CHECK(opened_ && index != nullptr);
  const uint64_t replay_offset = has_checkpoint_ ? manifest_.log_offset : 0;
  feed_seq_ = has_checkpoint_ ? checkpoint_.feed_seq : index->Epoch() - 1;
  // The feed position comes first: every checkpointed live source was
  // published at it, and ImportSource refuses any other epoch.
  index->SetEpoch(feed_seq_ + 1);

  if (has_checkpoint_) {
    for (ExportedSource& src : checkpoint_.sources) {
      if (!index->ImportSource(std::move(src))) {
        return Status::Corruption("checkpointed source failed to import");
      }
    }
    checkpoint_.sources.clear();
  }

  for (const LogRecord& rec : log_.records()) {
    const bool apply = rec.file_offset >= replay_offset;
    switch (rec.type) {
      case LogRecordType::kBatch: {
        UpdateBatch batch;
        DPPR_RETURN_NOT_OK(net::DecodeUpdateBatch(rec.payload, &batch));
        // History is rebuilt from the WHOLE log, not just the replayed
        // suffix: spill files on disk may predate the checkpoint.
        RememberEndpoints(rec.seq, batch);
        if (!apply) break;
        if (rec.seq != feed_seq_) {
          return Status::Corruption(
              "log sequence gap: record at seq " + std::to_string(rec.seq) +
              " but feed is at " + std::to_string(feed_seq_));
        }
        index->ApplyBatch(batch, rec.increment);
        feed_seq_ += rec.increment;
        ++batches_since_checkpoint_;
        break;
      }
      case LogRecordType::kAddSource: {
        blob::Reader reader{rec.payload};
        VertexId s = kInvalidVertex;
        if (!reader.I32(&s) || reader.Remaining() != 0) {
          return Status::Corruption("malformed add-source record");
        }
        if (apply && !index->AddSource(s)) {
          return Status::Corruption("replayed add-source failed");
        }
        break;
      }
      case LogRecordType::kRemoveSource: {
        blob::Reader reader{rec.payload};
        VertexId s = kInvalidVertex;
        if (!reader.I32(&s) || reader.Remaining() != 0) {
          return Status::Corruption("malformed remove-source record");
        }
        if (apply && !index->RemoveSource(s)) {
          return Status::Corruption("replayed remove-source failed");
        }
        break;
      }
      case LogRecordType::kInjectSource: {
        if (!apply) break;
        ExportedSource src;
        DPPR_RETURN_NOT_OK(DecodeMigrationBlob(rec.payload, &src));
        if (!index->ImportSource(std::move(src))) {
          return Status::Corruption("replayed inject-source failed");
        }
        break;
      }
    }
  }
  log_.DropRecordPayloads();
  return CheckInStep(*index);
}

Status DurableStore::CheckInStep(const PprIndex& index) const {
  if (index.Epoch() == feed_seq_ + 1) return Status::OK();
  return Status::Corruption("index at epoch " + std::to_string(index.Epoch()) +
                            " but the log is at feed sequence " +
                            std::to_string(feed_seq_));
}

Status DurableStore::AppendRecord(LogRecordType type, uint32_t increment,
                                  std::string payload) {
  DPPR_CHECK(opened_);
  LogRecord rec;
  rec.type = type;
  rec.seq = feed_seq_;
  rec.increment = increment;
  rec.payload = std::move(payload);
  return log_.Append(rec);
}

void DurableStore::RememberEndpoints(uint64_t seq, const UpdateBatch& batch) {
  BatchEndpoints entry;
  entry.seq = seq;
  entry.endpoints.reserve(batch.size());
  for (const EdgeUpdate& update : batch) {
    entry.endpoints.push_back(update.u);
  }
  std::sort(entry.endpoints.begin(), entry.endpoints.end());
  entry.endpoints.erase(
      std::unique(entry.endpoints.begin(), entry.endpoints.end()),
      entry.endpoints.end());
  history_.push_back(std::move(entry));
  while (history_.size() > options_.max_catchup_records) {
    history_.pop_front();
    history_floor_seq_ = history_.empty() ? feed_seq_ : history_.front().seq;
  }
}

Status DurableStore::LogBatch(const UpdateBatch& batch, uint32_t increment) {
  std::string payload;
  net::EncodeUpdateBatch(batch, &payload);
  DPPR_RETURN_NOT_OK(
      AppendRecord(LogRecordType::kBatch, increment, std::move(payload)));
  RememberEndpoints(feed_seq_, batch);
  feed_seq_ += increment;
  ++batches_since_checkpoint_;
  return Status::OK();
}

Status DurableStore::LogAddSource(VertexId s) {
  std::string payload;
  blob::PutI32(&payload, s);
  return AppendRecord(LogRecordType::kAddSource, 0, std::move(payload));
}

Status DurableStore::LogRemoveSource(VertexId s) {
  std::string payload;
  blob::PutI32(&payload, s);
  return AppendRecord(LogRecordType::kRemoveSource, 0, std::move(payload));
}

Status DurableStore::LogInjectSource(const ExportedSource& src) {
  std::string payload;
  DPPR_RETURN_NOT_OK(EncodeMigrationBlob(src, &payload));
  return AppendRecord(LogRecordType::kInjectSource, 0, std::move(payload));
}

bool DurableStore::ShouldCheckpoint() const {
  return options_.checkpoint_every > 0 &&
         batches_since_checkpoint_ >= options_.checkpoint_every;
}

Status DurableStore::WriteCheckpoint(const PprIndex& index) {
  DPPR_CHECK(opened_);
  DPPR_RETURN_NOT_OK(CheckInStep(index));
  CheckpointData data;
  data.feed_seq = feed_seq_;
  data.log_offset = log_.end_offset();
  const DynamicGraph* graph = index.graph();
  data.graph_checksum = graph->Checksum();
  data.num_vertices = graph->NumVertices();
  data.edges = graph->ToEdgeList();
  for (VertexId s : index.Sources()) {
    ExportedSource src;
    DPPR_CHECK(index.PeekSource(s, &src));
    data.sources.push_back(std::move(src));
  }
  std::string filename;
  DPPR_RETURN_NOT_OK(WriteCheckpointFile(dir_, data, &filename));
  Manifest manifest;
  manifest.feed_seq = data.feed_seq;
  manifest.log_offset = data.log_offset;
  manifest.checkpoint_file = filename;
  DPPR_RETURN_NOT_OK(WriteManifest(dir_, manifest));
  manifest_ = std::move(manifest);
  batches_since_checkpoint_ = 0;
  ++checkpoints_written_;
  // The manifest swap committed the new generation; nothing reachable
  // from it references the older checkpoint files or the spill blobs of
  // sources that have since been removed. Reclaim them now, while the
  // live source set is still in hand.
  CollectGarbage(index.Sources());
  return Status::OK();
}

void DurableStore::CollectGarbage(std::vector<VertexId> live_sources) {
  DIR* scan = ::opendir(dir_.c_str());
  if (scan == nullptr) return;  // best-effort: GC never fails a checkpoint
  std::sort(live_sources.begin(), live_sources.end());
  std::vector<std::string> doomed_checkpoints;
  std::vector<std::string> doomed_spills;
  for (struct dirent* entry = ::readdir(scan); entry != nullptr;
       entry = ::readdir(scan)) {
    const std::string name = entry->d_name;
    if (name.rfind("checkpoint-", 0) == 0) {
      // Everything but the file the manifest points at — superseded
      // generations and torn tmp files from crashed writes alike.
      if (name != manifest_.checkpoint_file) doomed_checkpoints.push_back(name);
    } else if (name.rfind("spill-", 0) == 0) {
      char* end = nullptr;
      const char* digits = name.c_str() + 6;
      const long long source = std::strtoll(digits, &end, 10);
      const bool parsed = end != digits && *end == '\0';
      // A spill is live only while its source is still in the index: an
      // evicted-but-registered source rematerializes from it, a removed
      // source never will. Unparseable names are torn tmp files.
      if (!parsed ||
          !std::binary_search(live_sources.begin(), live_sources.end(),
                              static_cast<VertexId>(source))) {
        doomed_spills.push_back(name);
      }
    }
  }
  ::closedir(scan);
  for (const std::string& name : doomed_checkpoints) {
    if (::unlink((dir_ + "/" + name).c_str()) == 0) ++checkpoints_deleted_;
  }
  for (const std::string& name : doomed_spills) {
    if (::unlink((dir_ + "/" + name).c_str()) == 0) ++spills_deleted_;
  }
}

bool DurableStore::Rematerialize(VertexId source, uint64_t slot_epoch,
                                 DynamicPpr* ppr) {
  uint64_t spill_seq = 0;
  ExportedSource spilled;
  if (!spill_.Load(source, &spill_seq, &spilled).ok()) return false;
  // The spilled state is only adoptable if (a) it is the exact state the
  // slot froze at — eviction preserves the epoch, so equality is the
  // test — and (b) the endpoint history still covers everything applied
  // since the spill.
  if (!spilled.materialized || spilled.epoch != slot_epoch) return false;
  if (spill_seq < history_floor_seq_) return false;

  std::vector<VertexId> endpoints;
  for (auto it = history_.rbegin();
       it != history_.rend() && it->seq >= spill_seq; ++it) {
    endpoints.insert(endpoints.end(), it->endpoints.begin(),
                     it->endpoints.end());
  }
  std::sort(endpoints.begin(), endpoints.end());
  endpoints.erase(std::unique(endpoints.begin(), endpoints.end()),
                  endpoints.end());

  ppr->RestoreFromState(std::move(spilled.state));
  // Re-solve Eq. 2 at every endpoint the source missed while cold. The
  // solve is path-independent against the final graph (the same argument
  // the in-batch heavy-hitter coalescing rests on), so the exact missed
  // updates need not be replayed; the residual mass they created is now
  // in ppr's touched set, for the caller's incremental push.
  for (VertexId u : endpoints) ppr->RestoreVertexDirect(u);
  ++spill_restores_;
  return true;
}

SpillHooks DurableStore::MakeSpillHooks() {
  SpillHooks hooks;
  hooks.spill = [this](const ExportedSource& src) {
    if (spill_.Write(feed_seq_, src).ok()) ++spills_written_;
  };
  hooks.rematerialize = [this](VertexId source, uint64_t slot_epoch,
                               DynamicPpr* ppr) {
    return Rematerialize(source, slot_epoch, ppr);
  };
  return hooks;
}

}  // namespace storage
}  // namespace dppr
