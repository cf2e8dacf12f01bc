#include "router/sharded_service.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <thread>
#include <utility>

#include "net/wire.h"
#include "util/macros.h"

namespace dppr {

using responses::Maint;
using responses::ReadyQuery;

ShardedPprService::ShardedPprService(const std::vector<Edge>& initial_edges,
                                     VertexId num_vertices,
                                     std::vector<VertexId> sources,
                                     const ShardedServiceOptions& options)
    : options_(options),
      num_vertices_(num_vertices),
      ring_(options.vnodes_per_shard) {
  DPPR_CHECK(options.num_shards >= 0);
  DPPR_CHECK(options.replicas >= 1);
  DPPR_CHECK(options.reroute_retry_limit >= 0);
  DPPR_CHECK_MSG(options.num_shards > 0 || sources.empty(),
                 "a shardless router cannot place initial sources; join "
                 "shards first, then AddSource");
  for (int i = 0; i < options.num_shards; ++i) {
    ring_.AddShard(next_shard_id_++);
  }
  // Partition the initial sources by ring placement; every replica of
  // every slot gets the full graph replica.
  std::vector<std::vector<VertexId>> per_shard(
      static_cast<size_t>(options.num_shards));
  for (VertexId s : sources) {
    per_shard[static_cast<size_t>(ring_.OwnerOf(s))].push_back(s);
  }
  shards_.reserve(static_cast<size_t>(options.num_shards));
  for (int i = 0; i < options.num_shards; ++i) {
    shards_.push_back(BuildShard(i, initial_edges, num_vertices,
                                 std::move(per_shard[static_cast<size_t>(i)])));
  }
}

ShardedPprService::~ShardedPprService() { Stop(); }

std::unique_ptr<ShardBackend> ShardedPprService::BuildLocalBackend(
    const std::vector<Edge>& edges, VertexId num_vertices,
    std::vector<VertexId> sources, uint64_t epoch) const {
  std::string data_dir;
  if (!options_.data_dir.empty()) {
    // One subdirectory per backend ever built: replicas of a slot must
    // not share a log, and a replaced backend must not inherit a
    // stranger's spills.
    const int ok = ::mkdir(options_.data_dir.c_str(), 0777);
    DPPR_CHECK_MSG(ok == 0 || errno == EEXIST,
                   "cannot create the router data_dir");
    data_dir = options_.data_dir + "/backend-" +
               std::to_string(next_backend_dir_.fetch_add(1));
  }
  return std::make_unique<LocalShardBackend>(
      edges, num_vertices, std::move(sources), options_.index,
      options_.service, std::move(data_dir), options_.durability, epoch);
}

std::unique_ptr<ShardedPprService::Shard> ShardedPprService::NewSlot(
    int id) const {
  auto shard = std::make_unique<Shard>();
  shard->id = id;
  ReplicaSetOptions set_options;
  set_options.update_retry_backoff = options_.update_retry_backoff;
  set_options.read_policy = options_.read_policy;
  set_options.max_epoch_lag = options_.max_epoch_lag;
  shard->set = std::make_shared<ReplicaSet>(set_options);
  return shard;
}

std::unique_ptr<ShardedPprService::Shard> ShardedPprService::BuildShard(
    int id, const std::vector<Edge>& edges, VertexId num_vertices,
    std::vector<VertexId> sources) const {
  auto shard = NewSlot(id);
  // Every replica starts with the SAME source set over the SAME graph:
  // their from-scratch pushes agree within eps and publish the same
  // epoch, so the standbys are promotable from the first request on.
  for (int r = 0; r < options_.replicas; ++r) {
    shard->set->AddReplica(BuildLocalBackend(edges, num_vertices, sources));
  }
  return shard;
}

void ShardedPprService::Start() {
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    DPPR_CHECK_MSG(!started_ && !stopped_,
                   "ShardedPprService is single-use: Start may run once");
    started_ = true;
    for (auto& shard : shards_) shard->set->Start();
  }
  if (options_.anti_entropy_interval.count() > 0) {
    anti_entropy_ = std::thread([this] { AntiEntropyLoop(); });
  }
}

void ShardedPprService::Stop() {
  // The anti-entropy thread takes the exclusive lock itself; signal and
  // join it BEFORE taking the lock here.
  if (anti_entropy_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(anti_entropy_mu_);
      anti_entropy_stop_ = true;
    }
    anti_entropy_cv_.notify_all();
    anti_entropy_.join();
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!started_ || stopped_) return;
  stopped_ = true;
  for (auto& shard : shards_) shard->set->Stop();
}

// ------------------------------------------------------------- routing

ShardedPprService::Shard* ShardedPprService::FindShard(int shard_id) const {
  for (const auto& shard : shards_) {
    if (shard->id == shard_id) return shard.get();
  }
  return nullptr;
}

ShardedPprService::Shard* ShardedPprService::OwnerShard(VertexId s) const {
  const int owner = ring_.OwnerOf(s);
  return owner < 0 ? nullptr : FindShard(owner);
}

ShardedPprService::Shard* ShardedPprService::RouteLocked(
    const Request& request) const {
  if (!started_ || stopped_) return nullptr;
  return OwnerShard(RoutingKey(request));
}

std::future<QueryResponse> ShardedPprService::Read(const Request& request,
                                                   uint64_t affinity) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  Shard* shard = RouteLocked(request);
  if (shard == nullptr) return ReadyQuery(RequestStatus::kClosed);
  return shard->set->Read(request, affinity);
}

QueryResponse ShardedPprService::ReadRerouted(const Request& request,
                                              uint64_t affinity) {
  for (int attempt = 0;; ++attempt) {
    QueryResponse response = Read(request, affinity).get();
    if (response.status != RequestStatus::kUnknownSource ||
        attempt >= options_.reroute_retry_limit) {
      return response;
    }
    // A source (or, for the estimator, a target) mid-migration is
    // briefly absent from its old owner. The re-submission blocks on the
    // routing lock until the topology change finishes, then lands on the
    // new owner. A truly unknown id just pays a few extra O(log ring)
    // lookups before the answer is believed.
    reroutes_.fetch_add(1, std::memory_order_relaxed);
  }
}

MaintResponse ShardedPprService::Feed(const Request& request) {
  // The shared lock is held across the WHOLE call, like ApplyUpdates: a
  // replicated slot's fan-out is a deferred future that runs at .get(),
  // and an exclusive-lock topology op (anti-entropy, AddShard) must not
  // be able to quiesce BETWEEN the routing decision and that fan-out —
  // its barrier can only drain work that has actually been submitted.
  std::shared_lock<std::shared_mutex> lock(mu_);
  Shard* shard = RouteLocked(request);
  if (shard == nullptr) return Maint(RequestStatus::kClosed);
  return shard->set->Feed(request).get();
}

// -------------------------------------------------- replicated updates

MaintResponse ShardedPprService::ApplyUpdates(UpdateBatch batch) {
  // The shared lock is held across the WHOLE fan-out (not just the
  // submissions): a topology change must never interleave with a batch
  // that some shards have applied and others have not — the new shard's
  // graph is cloned from a quiesced peer, and a half-propagated batch
  // would fork the replicas.
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (!started_ || stopped_) return Maint(RequestStatus::kClosed);
  const Request request{.verb = Verb::kApplyUpdates,
                        .batch = std::move(batch)};
  std::vector<Shard*> pending;
  pending.reserve(shards_.size());
  for (const auto& shard : shards_) pending.push_back(shard.get());

  while (!pending.empty()) {
    std::vector<std::future<MaintResponse>> futures;
    futures.reserve(pending.size());
    for (Shard* shard : pending) {
      futures.push_back(shard->set->Feed(request));
    }
    std::vector<Shard*> shed;
    for (size_t i = 0; i < futures.size(); ++i) {
      const MaintResponse response = futures[i].get();
      if (response.status == RequestStatus::kShedQueueFull) {
        // Single-replica slots surface their sheds here (a replicated
        // slot retries its members internally and never sheds upward).
        shed.push_back(pending[i]);
      } else if (response.status != RequestStatus::kOk) {
        // kClosed: shutdown (every later read answers kClosed too).
        // kUnavailable: every replica of a slot died mid-feed — the
        // slot's sources are gone until an operator re-joins a twin, and
        // its replicas are behind the moment the survivors apply this
        // batch, so the error MUST surface. (A slot with a live standby
        // never reaches this: the set promotes internally and answers
        // kOk.)
        return response;
      }
    }
    if (shed.empty()) break;
    // Backpressure, not loss: the feed is replicated graph state, so a
    // shed shard is retried UNTIL it accepts. Giving up here after other
    // shards already applied the batch would fork the replicas — the one
    // outcome the router must never allow. The wait terminates because
    // the shard's maintenance thread always drains its queue.
    update_retries_.fetch_add(static_cast<int64_t>(shed.size()),
                              std::memory_order_relaxed);
    pending = std::move(shed);
    if (options_.update_retry_backoff.count() > 0) {
      std::this_thread::sleep_for(options_.update_retry_backoff);
    }
  }
  MaintResponse ok = Maint(RequestStatus::kOk);
  ok.updates_applied = static_cast<int64_t>(request.batch.size());
  return ok;
}

// ------------------------------------------------------ scatter-gather

std::vector<QueryResponse> ShardedPprService::MultiSourceQuery(
    const std::vector<VertexId>& sources, VertexId v, int64_t deadline_ms) {
  // Group the sources by owning shard so a shard is asked ONCE per
  // multi-read — for a remote shard that is one round trip instead of
  // one per source.
  struct ShardGroup {
    Shard* shard = nullptr;
    std::vector<VertexId> sources;
    std::vector<size_t> positions;  ///< indices into the caller's order
    std::future<std::vector<QueryResponse>> future;
  };
  std::vector<ShardGroup> groups;
  std::vector<QueryResponse> responses(sources.size());
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (size_t i = 0; i < sources.size(); ++i) {
      Shard* shard = nullptr;
      if (started_ && !stopped_) shard = OwnerShard(sources[i]);
      if (shard == nullptr) {
        responses[i].status = RequestStatus::kClosed;
        continue;
      }
      ShardGroup* group = nullptr;
      for (ShardGroup& candidate : groups) {
        if (candidate.shard == shard) {
          group = &candidate;
          break;
        }
      }
      if (group == nullptr) {
        groups.push_back(ShardGroup{});
        groups.back().shard = shard;
        group = &groups.back();
      }
      group->sources.push_back(sources[i]);
      group->positions.push_back(i);
    }
    for (ShardGroup& group : groups) {
      group.future = group.shard->set->MultiSourceAsync(
          group.sources, v, deadline_ms);
    }
  }
  // Gather outside the lock: the responses come from shard workers (or
  // the remote receiver thread), which never need the routing lock. A
  // failover retry inside the gather is safe too — the replica set is
  // kept alive by its own shared_ptr captures.
  for (ShardGroup& group : groups) {
    std::vector<QueryResponse> shard_responses = group.future.get();
    DPPR_CHECK(shard_responses.size() == group.positions.size());
    for (size_t i = 0; i < group.positions.size(); ++i) {
      responses[group.positions[i]] = std::move(shard_responses[i]);
    }
  }
  return responses;
}

GlobalTopKResult ShardedPprService::GlobalTopK(int k, int64_t deadline_ms) {
  std::vector<VertexId> queried;
  std::vector<std::future<QueryResponse>> futures;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (started_ && !stopped_) {
      for (const auto& shard : shards_) {
        for (VertexId s : shard->set->Sources()) {
          queried.push_back(s);
          futures.push_back(shard->set->Read({.verb = Verb::kTopK,
                                              .source = s,
                                              .k = k,
                                              .deadline_ms = deadline_ms}));
        }
      }
    }
  }
  GlobalTopKResult result;
  std::vector<GlobalTopKEntry> all;
  for (size_t i = 0; i < futures.size(); ++i) {
    QueryResponse response = futures[i].get();
    if (response.status != RequestStatus::kOk) {
      ++result.sources_failed;
      continue;
    }
    ++result.sources_answered;
    for (const ScoredVertex& entry : response.topk.entries) {
      all.push_back({queried[i], entry});
    }
  }
  // Merge: globally best k triples, deterministic order (ties by source
  // then vertex id, matching the per-shard top-k tie rule).
  std::sort(all.begin(), all.end(),
            [](const GlobalTopKEntry& a, const GlobalTopKEntry& b) {
              if (a.entry.score != b.entry.score) {
                return a.entry.score > b.entry.score;
              }
              if (a.source != b.source) return a.source < b.source;
              return a.entry.id < b.entry.id;
            });
  if (k >= 0 && all.size() > static_cast<size_t>(k)) {
    all.resize(static_cast<size_t>(k));
  }
  result.entries = std::move(all);
  return result;
}

// ---------------------------------------------------------- elasticity

void ShardedPprService::QuiesceAllLocked() {
  // Barriers go out to every slot at once; the waits overlap.
  const Request barrier{.verb = Verb::kQuiesce};
  std::vector<std::pair<Shard*, std::future<MaintResponse>>> barriers;
  barriers.reserve(shards_.size());
  for (const auto& shard : shards_) {
    barriers.emplace_back(shard.get(), shard->set->Feed(barrier));
  }
  for (auto& [shard, future] : barriers) {
    for (;;) {
      const RequestStatus status = future.get().status;
      if (status == RequestStatus::kOk) break;
      // A fully dead slot has nothing left to drain — and RemoveShard of
      // exactly that slot is the operator's remedy for its death, so the
      // barrier must not abort on it. (Its sources are unreachable;
      // Sources() answers empty, so migration skips it too.)
      if (status == RequestStatus::kUnavailable) break;
      // A shed barrier means a maintenance queue was full at submit
      // time. The exclusive lock blocks new update fan-outs, so the queue
      // only drains — re-arm until the barrier fits.
      DPPR_CHECK_MSG(status == RequestStatus::kShedQueueFull,
                     "quiesce barrier refused");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      future = shard->set->Feed(barrier);
    }
  }
}

size_t ShardedPprService::MigrateSourcesLocked(
    Shard* from, const ConsistentHashRing& ring) {
  size_t moved = 0;
  for (VertexId s : from->set->Sources()) {
    const int target_id = ring.OwnerOf(s);
    if (target_id == from->id) continue;
    Shard* to = FindShard(target_id);
    DPPR_CHECK_MSG(to != nullptr, "ring names a shard the router lacks");

    // The blob is the unit of migration: in-process it is a memcpy-round-
    // trip through the checksummed codec, across processes the SAME bytes
    // ride a kExtractSource/kInjectSource frame pair. A failure here is
    // unrecoverable by retry (the replicas have no way to re-agree), so
    // it is a crash, not a status — with standbys in the slot the set
    // already failed over internally before giving up.
    std::string blob;
    const MaintResponse extracted = responses::RetryShedBlocking(
        [&] { return from->set->ExtractBlob(s, &blob); });
    DPPR_CHECK_MSG(extracted.status == RequestStatus::kOk,
                   "extract of a listed source failed");
    migration_bytes_.fetch_add(static_cast<int64_t>(blob.size()),
                               std::memory_order_relaxed);

    const MaintResponse injected = responses::RetryShedBlocking(
        [&] { return to->set->InjectBlob(blob); });
    DPPR_CHECK_MSG(injected.status == RequestStatus::kOk,
                   "inject into the new owner failed");
    ++moved;
  }
  sources_migrated_.fetch_add(static_cast<int64_t>(moved),
                              std::memory_order_relaxed);
  return moved;
}

size_t ShardedPprService::MigrateTargetsLocked(
    Shard* from, const ConsistentHashRing& ring) {
  size_t moved = 0;
  for (VertexId t : from->set->Targets()) {
    const int target_id = ring.OwnerOf(t);
    if (target_id == from->id) continue;
    Shard* to = FindShard(target_id);
    DPPR_CHECK_MSG(to != nullptr, "ring names a shard the router lacks");
    // Recompute, not blob transfer: the caller quiesced the fleet, so the
    // new owner's graph replica equals the old owner's, and registering
    // the target replays the identical deterministic reverse push. The
    // new owner may refuse (kRejected: estimator disabled there) — the
    // target is then simply dropped, matching its volatile contract
    // (targets are re-registered after recovery, never persisted).
    const MaintResponse added = responses::RetryShedBlocking([&] {
      return to->set->Feed({.verb = Verb::kAddTarget, .target = t}).get();
    });
    (void)responses::RetryShedBlocking([&] {
      return from->set->Feed({.verb = Verb::kRemoveTarget, .target = t}).get();
    });
    if (added.status == RequestStatus::kOk) ++moved;
  }
  targets_migrated_.fetch_add(static_cast<int64_t>(moved),
                              std::memory_order_relaxed);
  return moved;
}

void ShardedPprService::AdmitShardLocked(std::unique_ptr<Shard> fresh) {
  const int id = fresh->id;
  ConsistentHashRing next_ring = ring_;
  next_ring.AddShard(id);
  shards_.push_back(std::move(fresh));
  for (const auto& shard : shards_) {
    if (shard->id != id) {
      MigrateSourcesLocked(shard.get(), next_ring);
      MigrateTargetsLocked(shard.get(), next_ring);
    }
  }
  ring_ = next_ring;
}

int ShardedPprService::AddShard() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!started_ || stopped_) return -1;
  // Growing locally needs a local graph to clone; a pure routing
  // front-end over remote shards has none.
  const PprIndex* donor = LocalDonorLocked();
  if (donor == nullptr) return -1;
  QuiesceAllLocked();

  // All replicas are identical once quiesced; clone any local one. The
  // wrapper semantics: one replica, exactly the pre-replication shard.
  const int id = next_shard_id_++;
  auto fresh = NewSlot(id);
  fresh->set->AddReplica(CloneLocalBackend(*donor));
  fresh->set->Start();  // no sources yet: publishes nothing
  AdmitShardLocked(std::move(fresh));
  return id;
}

const PprIndex* ShardedPprService::LocalDonorLocked() const {
  for (const auto& shard : shards_) {
    const PprIndex* index = shard->set->LocalIndex();
    if (index != nullptr) return index;
  }
  return nullptr;
}

std::unique_ptr<ShardBackend> ShardedPprService::CloneLocalBackend(
    const PprIndex& donor) const {
  const DynamicGraph& graph = *donor.graph();
  return BuildLocalBackend(graph.ToEdgeList(), graph.NumVertices(), {},
                           donor.Epoch());
}

FeedPosition ShardedPprService::ReferencePositionLocked() const {
  for (const auto& shard : shards_) {
    const FeedPosition position = shard->set->Position();
    if (position.graph_checksum != 0) return position;
  }
  return {};
}

std::unique_ptr<RemoteShardBackend> ShardedPprService::DialRemoteBackend(
    const std::string& host, int port, bool expect_empty) const {
  auto backend = std::make_unique<RemoteShardBackend>();
  if (!backend->Connect(host, port).ok()) return nullptr;
  net::ShardStats stats;
  if (!backend->FetchStats(&stats).ok()) return nullptr;
  if (stats.running == 0 ||
      static_cast<VertexId>(stats.num_vertices) != num_vertices_) {
    return nullptr;
  }
  // A fresh joiner must own no sources: it would shadow-own keys the
  // ring assigns elsewhere. (AdoptRemoteShard relaxes this deliberately,
  // for shards recovered from disk.)
  if (expect_empty && stats.num_sources != 0) return nullptr;
  // Feed handshake: the caller quiesced the fleet first, so the cohort's
  // position is stable. A joiner must sit at the same graph fingerprint
  // AND the same epoch — a graph that diverged (stale twin, wrong
  // dataset) or a feed that did (an insert+delete leaves the fingerprint
  // but not the epoch) is refused here instead of serving wrong answers
  // or forked epochs. With no live cohort to compare against, the size
  // check stands alone.
  const FeedPosition reference = ReferencePositionLocked();
  if (reference.graph_checksum != 0 &&
      (stats.graph_checksum != reference.graph_checksum ||
       stats.max_epoch != reference.epoch)) {
    return nullptr;
  }
  // A materialized source's migration blob is ~16 bytes/vertex (p and r
  // arrays). If that cannot fit one frame, every future migration or
  // standby sync to/from this shard would fail mid-flight — refuse the
  // join now, while refusing is still free.
  if (16 * static_cast<uint64_t>(num_vertices_) + 1024 >
      net::kDefaultMaxFramePayload) {
    return nullptr;
  }
  return backend;
}

int ShardedPprService::AddRemoteShard(const std::string& host, int port) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!started_ || stopped_) return -1;
  // Quiesce BEFORE dialing: the graph handshake compares fingerprints,
  // and the cohort's is only stable once the feed is drained.
  QuiesceAllLocked();
  auto backend = DialRemoteBackend(host, port, /*expect_empty=*/true);
  if (backend == nullptr) return -1;

  auto fresh = NewSlot(next_shard_id_++);
  fresh->set->AddReplica(std::move(backend));
  const int id = fresh->id;
  AdmitShardLocked(std::move(fresh));
  return id;
}

int ShardedPprService::AdoptRemoteShard(const std::string& host, int port) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!started_ || stopped_) return -1;
  QuiesceAllLocked();
  auto backend = DialRemoteBackend(host, port, /*expect_empty=*/false);
  if (backend == nullptr) return -1;
  // A recovered shard re-enters with the sources it persisted; one that
  // is still being served by a live slot (the operator adopted a stale
  // twin instead of removing the dead slot first) would be served twice,
  // with forked epochs. Refuse the whole join rather than half of it.
  for (VertexId s : backend->Sources()) {
    for (const auto& shard : shards_) {
      if (shard->set->HasSource(s)) return -1;
    }
  }
  auto fresh = NewSlot(next_shard_id_++);
  fresh->set->AddReplica(std::move(backend));
  const int id = fresh->id;
  AdmitShardLocked(std::move(fresh));
  // AdmitShardLocked rebalanced the OLD shards under the grown ring; the
  // newcomer's recovered sources must obey the same placement, so any of
  // them the ring assigns elsewhere migrate out now — as ordinary
  // checksummed blobs at their recovered epochs, never regressed.
  MigrateSourcesLocked(FindShard(id), ring_);
  return id;
}

int ShardedPprService::AddReplica(int slot_id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!started_ || stopped_) return -1;
  Shard* slot = FindShard(slot_id);
  if (slot == nullptr) return -1;
  const PprIndex* donor = LocalDonorLocked();
  if (donor == nullptr) return -1;
  // Quiesce so the cloned graph and epoch and the copied per-source state
  // describe the same feed prefix — the standby joins bit-identical.
  QuiesceAllLocked();
  auto backend = CloneLocalBackend(*donor);
  backend->Start();
  const int index = slot->set->AddReplica(std::move(backend));
  // Sync fails when the slot has no live primary to copy from (e.g. the
  // operator is trying to restore an already-dead slot — RemoveShard is
  // the remedy there): undo the attach and refuse, like the remote path.
  if (!slot->set->SyncReplica(index)) {
    // EXCEPT when the sync itself failed the primary over mid-copy and
    // rescued state onto the newcomer — it is then the slot's serving
    // copy and must stay.
    ShardBackend* attached = slot->set->ReplicaBackend(index);
    if (slot->set->PrimaryIndex() == index ||
        (attached != nullptr && attached->NumSources() > 0)) {
      return index;
    }
    (void)slot->set->RemoveReplica(index);
    return -1;
  }
  return index;
}

int ShardedPprService::AddRemoteReplica(int slot_id,
                                        const std::string& host, int port) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!started_ || stopped_) return -1;
  Shard* slot = FindShard(slot_id);
  if (slot == nullptr) return -1;
  // Quiesce before dialing, like AddRemoteShard: the fingerprint
  // handshake needs a stable cohort graph to compare against.
  QuiesceAllLocked();
  auto backend = DialRemoteBackend(host, port, /*expect_empty=*/true);
  if (backend == nullptr) return -1;
  const int index = slot->set->AddReplica(std::move(backend));
  // Over-the-wire sync CAN fail (the joiner may die mid-copy): undo the
  // attach instead of leaving a half-synced standby in promotion order —
  // unless the PRIMARY died mid-sync and the newcomer holds rescued
  // state (possibly already promoted): it is then the serving copy.
  if (!slot->set->SyncReplica(index)) {
    ShardBackend* attached = slot->set->ReplicaBackend(index);
    if (slot->set->PrimaryIndex() == index ||
        (attached != nullptr && attached->NumSources() > 0)) {
      return index;
    }
    (void)slot->set->RemoveReplica(index);
    return -1;
  }
  return index;
}

bool ShardedPprService::RemoveReplica(int slot_id, int replica_index) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!started_ || stopped_) return false;
  Shard* slot = FindShard(slot_id);
  if (slot == nullptr) return false;
  // Quiesce so a primary handoff (removal of the current primary) swaps
  // between replicas at the same feed prefix.
  QuiesceAllLocked();
  return slot->set->RemoveReplica(replica_index);
}

bool ShardedPprService::Promote(int slot_id, int replica_index) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!started_ || stopped_) return false;
  Shard* slot = FindShard(slot_id);
  if (slot == nullptr) return false;
  QuiesceAllLocked();
  return slot->set->Promote(replica_index);
}

bool ShardedPprService::SeverReplica(int slot_id, int replica_index) {
  // Fault injection runs under the SHARED lock: a real death happens
  // under live load, not inside a topology quiesce.
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (!started_ || stopped_) return false;
  Shard* slot = FindShard(slot_id);
  if (slot == nullptr) return false;
  ShardBackend* backend = slot->set->ReplicaBackend(replica_index);
  return backend != nullptr && backend->Sever();
}

int64_t ShardedPprService::SyncStandbys() {
  // Probe under the SHARED lock: the steady state is "no drift", and a
  // probe (one ListSources RPC per remote standby) must not stall reads
  // and the feed behind the exclusive lock every interval.
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (!started_ || stopped_) return 0;
    bool drifted = false;
    for (const auto& shard : shards_) {
      if (shard->set->NumReplicas() > 1 &&
          !shard->set->SourceSetsAgree()) {
        drifted = true;
        break;
      }
    }
    if (!drifted) return 0;
  }
  // Escalate: sync against a quiesced fleet so the copied blobs and the
  // standbys' graphs describe the same feed prefix. (The drift may have
  // been repaired between the locks — SyncAllStandbys just finds
  // nothing to copy then.)
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!started_ || stopped_) return 0;
  QuiesceAllLocked();
  int64_t synced = 0;
  for (const auto& shard : shards_) {
    if (shard->set->NumReplicas() > 1) {
      synced += shard->set->SyncAllStandbys();
    }
  }
  return synced;
}

void ShardedPprService::AntiEntropyLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(anti_entropy_mu_);
      anti_entropy_cv_.wait_for(lock, options_.anti_entropy_interval,
                                [this] { return anti_entropy_stop_; });
      if (anti_entropy_stop_) return;
    }
    (void)SyncStandbys();
  }
}

bool ShardedPprService::RemoveShard(int shard_id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!started_ || stopped_) return false;
  Shard* victim = FindShard(shard_id);
  if (victim == nullptr || ring_.NumShards() <= 1) return false;
  QuiesceAllLocked();

  ConsistentHashRing next_ring = ring_;
  next_ring.RemoveShard(shard_id);
  MigrateSourcesLocked(victim, next_ring);
  MigrateTargetsLocked(victim, next_ring);
  DPPR_CHECK_MSG(victim->set->NumSources() == 0,
                 "a drained shard must own nothing");
  ring_ = next_ring;

  RetireMetricsLocked(*victim);
  victim->set->Stop();
  std::erase_if(shards_, [shard_id](const std::unique_ptr<Shard>& shard) {
    return shard->id == shard_id;
  });
  return true;
}

void ShardedPprService::RetireMetricsLocked(const Shard& shard) {
  MetricsReport report;
  shard.set->SnapshotMetrics(&report, &retired_query_ms_,
                             &retired_batch_ms_);
  retired_counters_.Accumulate(report);
  retired_failovers_ += shard.set->failovers();
  retired_update_retries_ += shard.set->update_retries();
  retired_standby_syncs_ += shard.set->standby_syncs();
  retired_sync_bytes_ += shard.set->sync_bytes();
  retired_primary_reads_ += shard.set->primary_reads();
  retired_standby_reads_ += shard.set->standby_reads();
  retired_stale_retries_ += shard.set->stale_retries();
  shard.set->MergeStaleness(&retired_staleness_);
}

// ------------------------------------------------------- introspection

size_t ShardedPprService::NumShards() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return ring_.NumShards();
}

std::vector<int> ShardedPprService::ShardIds() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return ring_.ShardIds();
}

size_t ShardedPprService::NumReplicas(int shard_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const Shard* shard = FindShard(shard_id);
  return shard == nullptr ? 0 : shard->set->NumReplicas();
}

int ShardedPprService::PrimaryOf(int shard_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const Shard* shard = FindShard(shard_id);
  return shard == nullptr ? -1 : shard->set->PrimaryIndex();
}

ShardBackend* ShardedPprService::ReplicaBackendForTesting(
    int slot_id, int replica_index) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  Shard* shard = FindShard(slot_id);
  return shard == nullptr ? nullptr
                          : shard->set->ReplicaBackend(replica_index);
}

int ShardedPprService::OwnerOf(VertexId s) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return ring_.OwnerOf(s);
}

std::vector<VertexId> ShardedPprService::Sources() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<VertexId> all;
  for (const auto& shard : shards_) {
    std::vector<VertexId> own = shard->set->Sources();
    all.insert(all.end(), own.begin(), own.end());
  }
  return all;
}

std::vector<VertexId> ShardedPprService::SourcesOnShard(int shard_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const Shard* shard = FindShard(shard_id);
  return shard == nullptr ? std::vector<VertexId>{}
                          : shard->set->Sources();
}

size_t ShardedPprService::NumSources() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t n = 0;
  for (const auto& shard : shards_) n += shard->set->NumSources();
  return n;
}

std::vector<VertexId> ShardedPprService::Targets() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<VertexId> all;
  for (const auto& shard : shards_) {
    std::vector<VertexId> own = shard->set->Targets();
    all.insert(all.end(), own.begin(), own.end());
  }
  return all;
}

bool ShardedPprService::HasTarget(VertexId t) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  // Same placement invariant as HasSource: a target lives only on its
  // ring owner.
  const Shard* shard = OwnerShard(t);
  if (shard == nullptr) return false;
  const std::vector<VertexId> targets = shard->set->Targets();
  return std::find(targets.begin(), targets.end(), t) != targets.end();
}

bool ShardedPprService::HasSource(VertexId s) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  // Placement invariant: a source lives only on its ring owner, so the
  // owner's table answers for the whole fleet.
  const Shard* shard = OwnerShard(s);
  return shard != nullptr && shard->set->HasSource(s);
}

MetricsReport ShardedPprService::CollectMetricsLocked(
    std::vector<std::pair<int, MetricsReport>>* per_shard) const {
  MetricsReport combined = retired_counters_;
  Histogram query_ms = retired_query_ms_;
  Histogram batch_ms = retired_batch_ms_;
  for (const auto& shard : shards_) {
    // One observation per replica (a single kStats RPC for a remote
    // one), so each replica's counters and samples are self-consistent —
    // and Report() reuses it for its per-shard view instead of asking
    // again.
    MetricsReport report;
    shard->set->SnapshotMetrics(&report, &query_ms, &batch_ms);
    combined.Accumulate(report);
    if (per_shard != nullptr) {
      per_shard->emplace_back(shard->id, std::move(report));
    }
  }
  // Exact cross-shard percentiles from the pooled samples — NOT a
  // max-over-shards approximation. Remote shards ship their exact
  // samples over the wire for the same reason.
  if (query_ms.Count() > 0) {
    combined.query_mean_ms = query_ms.Mean();
    combined.query_p50_ms = query_ms.Percentile(50);
    combined.query_p99_ms = query_ms.Percentile(99);
    combined.query_max_ms = query_ms.Max();
  }
  if (batch_ms.Count() > 0) {
    combined.batch_mean_ms = batch_ms.Mean();
    combined.batch_p99_ms = batch_ms.Percentile(99);
  }
  return combined;
}

MetricsReport ShardedPprService::Metrics() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return CollectMetricsLocked(nullptr);
}

RouterReport ShardedPprService::Report() const {
  RouterReport report;
  std::shared_lock<std::shared_mutex> lock(mu_);
  report.combined = CollectMetricsLocked(&report.per_shard);
  report.sources_migrated = sources_migrated_.load(std::memory_order_relaxed);
  report.migration_bytes = migration_bytes_.load(std::memory_order_relaxed);
  report.targets_migrated = targets_migrated_.load(std::memory_order_relaxed);
  report.update_retries = update_retries_.load(std::memory_order_relaxed) +
                          retired_update_retries_;
  report.reroutes = reroutes_.load(std::memory_order_relaxed);
  report.failovers = retired_failovers_;
  report.standby_syncs = retired_standby_syncs_;
  report.sync_bytes = retired_sync_bytes_;
  report.primary_reads = retired_primary_reads_;
  report.standby_reads = retired_standby_reads_;
  report.stale_retries = retired_stale_retries_;
  report.staleness = retired_staleness_;
  for (const auto& shard : shards_) {
    report.update_retries += shard->set->update_retries();
    report.failovers += shard->set->failovers();
    report.standby_syncs += shard->set->standby_syncs();
    report.sync_bytes += shard->set->sync_bytes();
    report.primary_reads += shard->set->primary_reads();
    report.standby_reads += shard->set->standby_reads();
    report.stale_retries += shard->set->stale_retries();
    report.reads_per_replica.emplace_back(shard->id,
                                          shard->set->ReadsPerReplica());
    shard->set->MergeStaleness(&report.staleness);
  }
  return report;
}

}  // namespace dppr
