#include "router/replica_set.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "router/migration.h"
#include "util/macros.h"

namespace dppr {

using responses::Maint;
using responses::ReadyMaint;
using responses::ReadyQuery;

using responses::RetryShedBlocking;

namespace {

/// The failover trigger of every single-answer path.
constexpr auto IsUnavailable = [](const auto& response) {
  return response.status == RequestStatus::kUnavailable;
};

}  // namespace

const char* ReadPolicyName(ReadPolicy policy) {
  switch (policy) {
    case ReadPolicy::kPrimaryOnly:
      return "primary";
    case ReadPolicy::kRoundRobinLive:
      return "round_robin";
  }
  return "unknown";
}

bool ParseReadPolicy(const std::string& name, ReadPolicy* out) {
  if (name == "primary") {
    *out = ReadPolicy::kPrimaryOnly;
    return true;
  }
  if (name == "round_robin") {
    *out = ReadPolicy::kRoundRobinLive;
    return true;
  }
  return false;
}

ReplicaSet::ReplicaSet(const ReplicaSetOptions& options)
    : options_(options) {}

// -------------------------------------------------------------- topology

int ReplicaSet::AddReplica(std::unique_ptr<ShardBackend> backend) {
  DPPR_CHECK(backend != nullptr);
  auto replica = std::make_shared<Replica>();
  replica->backend = std::move(backend);
  std::lock_guard<std::mutex> lock(mu_);
  replicas_.push_back(std::move(replica));
  if (primary_ == nullptr) primary_ = replicas_.back();
  return static_cast<int>(replicas_.size()) - 1;
}

bool ReplicaSet::RemoveReplica(int index) {
  ReplicaPtr victim;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (index < 0 || static_cast<size_t>(index) >= replicas_.size()) {
      return false;
    }
    if (replicas_.size() == 1) return false;  // drain the slot instead
    victim = replicas_[static_cast<size_t>(index)];
    if (victim == primary_) {
      // Administrative removal of the primary: hand off first. Unlike a
      // failover this is voluntary, so it does not count one.
      ReplicaPtr next;
      for (size_t step = 1; step < replicas_.size(); ++step) {
        const size_t at =
            (static_cast<size_t>(index) + step) % replicas_.size();
        if (replicas_[at]->live) {
          next = replicas_[at];
          break;
        }
      }
      if (next == nullptr) return false;  // no live peer to hand off to
      primary_ = next;
    }
    replicas_.erase(replicas_.begin() + index);
  }
  victim->backend->Stop();
  return true;
}

bool ReplicaSet::Promote(int index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index < 0 || static_cast<size_t>(index) >= replicas_.size()) {
    return false;
  }
  ReplicaPtr candidate = replicas_[static_cast<size_t>(index)];
  if (!candidate->live) return false;
  primary_ = std::move(candidate);
  return true;
}

void ReplicaSet::Start() {
  std::vector<ReplicaPtr> replicas;
  SnapshotReplicas(&replicas, nullptr);
  for (const ReplicaPtr& replica : replicas) replica->backend->Start();
}

void ReplicaSet::Stop() {
  std::vector<ReplicaPtr> replicas;
  SnapshotReplicas(&replicas, nullptr);
  for (const ReplicaPtr& replica : replicas) replica->backend->Stop();
}

// -------------------------------------------------------------- failover

void ReplicaSet::MarkDeadLocked(const ReplicaPtr& failed) {
  if (failed == nullptr || !failed->live) return;
  failed->live = false;
  if (failed != primary_) return;
  // Promote the next live replica in order, scanning from the failed
  // primary's position and wrapping — the documented promotion order.
  size_t at = 0;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (replicas_[i] == failed) {
      at = i;
      break;
    }
  }
  for (size_t step = 1; step <= replicas_.size(); ++step) {
    const ReplicaPtr& candidate =
        replicas_[(at + step) % replicas_.size()];
    if (candidate->live) {
      primary_ = candidate;
      failovers_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  // Everything is dead; primary_ keeps pointing at the corpse so reads
  // fail fast with kUnavailable, exactly like PR 4's single dead shard.
}

ReplicaSet::ReplicaPtr ReplicaSet::FailoverFrom(const ReplicaPtr& failed) {
  std::lock_guard<std::mutex> lock(mu_);
  MarkDeadLocked(failed);
  return primary_ != nullptr && primary_->live ? primary_ : nullptr;
}

ReplicaSet::ReplicaPtr ReplicaSet::AcquirePrimary() const {
  std::lock_guard<std::mutex> lock(mu_);
  return primary_;
}

ReplicaSet::ReplicaPtr ReplicaSet::SolePrimary() const {
  std::lock_guard<std::mutex> lock(mu_);
  return replicas_.size() == 1 ? primary_ : nullptr;
}

ReplicaSet::ReplicaPtr ReplicaSet::AcquireReadReplica(
    uint64_t affinity) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.read_policy == ReadPolicy::kPrimaryOnly ||
      replicas_.size() <= 1) {
    return primary_;
  }
  if (affinity != 0) {
    // Pin over the INDEX space, not the live subset: the mapping only
    // moves when the pinned replica itself dies (or topology changes),
    // which is what makes the per-source monotonic-read promise hold —
    // a pinned session never hops between two standbys that are only
    // ordered against the primary, not each other.
    const ReplicaPtr& pinned = replicas_[affinity % replicas_.size()];
    if (pinned->live) return pinned;
    return primary_;
  }
  size_t live = 0;
  for (const ReplicaPtr& replica : replicas_) {
    if (replica->live) ++live;
  }
  if (live == 0) return primary_;  // fail fast, like AcquirePrimary
  size_t pick =
      read_cursor_.fetch_add(1, std::memory_order_relaxed) % live;
  for (const ReplicaPtr& replica : replicas_) {
    if (!replica->live) continue;
    if (pick-- == 0) return replica;
  }
  return primary_;
}

QueryResponse ReplicaSet::ObserveRead(ReplicaPtr replica,
                                      const Request& request,
                                      QueryResponse response) {
  const auto issue = [&request](ShardBackend* backend) {
    return backend->Read(request).get();
  };
  // A standby may refuse a read the primary would serve: kUnknownSource
  // when it joined after the source landed (anti-entropy still owes it
  // the copy), kNotMaterialized when its OWN cold-source LRU evicted
  // state the primary's read traffic keeps warm. The primary stays the
  // authority on the source set, so re-ask it before surfacing an error
  // a primary-only read would not have produced.
  if (response.status == RequestStatus::kUnknownSource ||
      response.status == RequestStatus::kNotMaterialized) {
    ReplicaPtr primary = AcquirePrimary();
    if (primary != nullptr && primary != replica) {
      response = RetryThroughFailover(
          &primary, issue(primary->backend.get()), issue, IsUnavailable);
      replica = std::move(primary);
    }
  }
  if (response.status != RequestStatus::kOk) return response;

  if (options_.read_policy == ReadPolicy::kRoundRobinLive) {
    uint64_t floor = 0;
    {
      std::lock_guard<std::mutex> lock(staleness_mu_);
      floor = served_floor_;
    }
    if (options_.max_epoch_lag >= 0 &&
        response.epoch + static_cast<uint64_t>(options_.max_epoch_lag) <
            floor) {
      // The answer trails what some client already saw by more than the
      // bound. One primary re-read restores it: the floor was served by
      // a live standby, standbys run at-or-ahead of the primary only —
      // so the primary is at-or-ahead of every epoch ever SERVED.
      ReplicaPtr primary = AcquirePrimary();
      if (primary != nullptr && primary != replica) {
        stale_retries_.fetch_add(1, std::memory_order_relaxed);
        QueryResponse retried = RetryThroughFailover(
            &primary, issue(primary->backend.get()), issue, IsUnavailable);
        if (retried.status == RequestStatus::kOk) {
          response = std::move(retried);
          replica = std::move(primary);
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(staleness_mu_);
      staleness_.Add(served_floor_ > response.epoch
                         ? static_cast<double>(served_floor_ - response.epoch)
                         : 0.0);
      served_floor_ = std::max(served_floor_, response.epoch);
    }
  }

  replica->reads.fetch_add(1, std::memory_order_relaxed);
  if (replica == AcquirePrimary()) {
    primary_reads_.fetch_add(1, std::memory_order_relaxed);
  } else {
    standby_reads_.fetch_add(1, std::memory_order_relaxed);
  }
  return response;
}

template <typename Response, typename Issue, typename Unavailable>
Response ReplicaSet::RetryThroughFailover(ReplicaPtr* replica,
                                          Response response,
                                          const Issue& issue,
                                          const Unavailable& unavailable) {
  while (unavailable(response)) {
    ReplicaPtr next = FailoverFrom(*replica);
    if (next == nullptr || next == *replica) break;
    *replica = std::move(next);
    response = issue((*replica)->backend.get());
  }
  return response;
}

void ReplicaSet::SnapshotReplicas(std::vector<ReplicaPtr>* replicas,
                                  ReplicaPtr* primary) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (replicas != nullptr) *replicas = replicas_;
  if (primary != nullptr) *primary = primary_;
}

// ------------------------------------------------------------- requests

std::future<QueryResponse> ReplicaSet::Read(const Request& request,
                                            uint64_t affinity) {
  const bool standby_reads = RuleOf(request.verb).standby_reads;
  ReplicaPtr replica =
      standby_reads ? AcquireReadReplica(affinity) : AcquirePrimary();
  if (replica == nullptr) return ReadyQuery(RequestStatus::kUnavailable);
  std::future<QueryResponse> first = replica->backend->Read(request);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (replicas_.size() == 1) return first;  // nobody to fail over to
  }
  // The failover retry is deferred to the caller's .get(): the answer is
  // what decides whether a promotion is needed. `self` keeps the set (and
  // its replicas) alive even if the router drops the slot mid-request.
  return std::async(
      std::launch::deferred,
      [self = shared_from_this(), request, standby_reads,
       replica = std::move(replica), first = std::move(first)]() mutable {
        QueryResponse response = self->RetryThroughFailover(
            &replica, first.get(),
            [&request](ShardBackend* backend) {
              return backend->Read(request).get();
            },
            IsUnavailable);
        // Failover only for the rest (see VerbRule::standby_reads).
        if (!standby_reads) return response;
        return self->ObserveRead(std::move(replica), request,
                                 std::move(response));
      });
}

std::future<std::vector<QueryResponse>> ReplicaSet::MultiSourceAsync(
    std::vector<VertexId> sources, VertexId v, int64_t deadline_ms) {
  ReplicaPtr replica = AcquireReadReplica(/*affinity=*/0);
  if (replica == nullptr) {
    std::promise<std::vector<QueryResponse>> promise;
    std::vector<QueryResponse> responses(sources.size());
    for (QueryResponse& response : responses) {
      response.status = RequestStatus::kUnavailable;
    }
    promise.set_value(std::move(responses));
    return promise.get_future();
  }
  std::future<std::vector<QueryResponse>> first =
      replica->backend->MultiSourceAsync(sources, v, deadline_ms);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (replicas_.size() == 1) return first;
  }
  return std::async(
      std::launch::deferred,
      [self = shared_from_this(), sources = std::move(sources), v,
       deadline_ms, replica = std::move(replica),
       first = std::move(first)]() mutable {
        // A kUnavailable in a grouped read means the whole connection (or
        // backend) died — re-issue the group on the promoted standby.
        std::vector<QueryResponse> responses = self->RetryThroughFailover(
            &replica, first.get(),
            [&sources, v, deadline_ms](ShardBackend* backend) {
              return backend->MultiSourceAsync(sources, v, deadline_ms)
                  .get();
            },
            [](const std::vector<QueryResponse>& group) {
              return std::any_of(group.begin(), group.end(),
                                 [](const QueryResponse& response) {
                                   return response.status ==
                                          RequestStatus::kUnavailable;
                                 });
            });
        // One grouped RPC counts as one read on whoever answered it.
        if (std::any_of(responses.begin(), responses.end(),
                        [](const QueryResponse& response) {
                          return response.status == RequestStatus::kOk;
                        })) {
          replica->reads.fetch_add(1, std::memory_order_relaxed);
          if (replica == self->AcquirePrimary()) {
            self->primary_reads_.fetch_add(1, std::memory_order_relaxed);
          } else {
            self->standby_reads_.fetch_add(1, std::memory_order_relaxed);
          }
        }
        return responses;
      });
}

// ------------------------------------------------------------------ feed

MaintResponse ReplicaSet::RetryWhileShed(const ReplicaPtr& replica,
                                         MaintResponse response,
                                         const Request& request) {
  while (response.status == RequestStatus::kShedQueueFull) {
    // Backpressure, not loss: the feed is replicated state, so a shed
    // replica is retried until it accepts — it may lag, never diverge.
    update_retries_.fetch_add(1, std::memory_order_relaxed);
    if (options_.update_retry_backoff.count() > 0) {
      std::this_thread::sleep_for(options_.update_retry_backoff);
    }
    response = replica->backend->Feed(request).get();
  }
  return response;
}

MaintResponse ReplicaSet::FanOutFeed(const Request& request) {
  // One fan-out at a time: every replica's maintenance queue receives
  // the same op sequence, the precondition for cross-replica epoch
  // agreement (see the file comment of replica_set.h).
  std::lock_guard<std::mutex> feed_lock(feed_mu_);
  std::vector<ReplicaPtr> replicas;
  ReplicaPtr primary;
  SnapshotReplicas(&replicas, &primary);
  if (primary == nullptr) return Maint(RequestStatus::kUnavailable);

  // Phase 1 — every live standby. Standbys BEFORE the primary: any state
  // (epoch) the primary can serve is then already on every live standby,
  // so promotion never regresses what a client saw. The standbys apply
  // CONCURRENTLY (submit all, then gather) — the invariant orders
  // standbys against the primary, not against each other, so phase-1
  // wall time is one application, not R-1 of them.
  std::vector<std::pair<ReplicaPtr, std::future<MaintResponse>>> inflight;
  for (const ReplicaPtr& replica : replicas) {
    if (replica == primary) continue;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!replica->live) continue;
    }
    inflight.emplace_back(replica, replica->backend->Feed(request));
  }
  std::vector<std::pair<ReplicaPtr, MaintResponse>> applied;
  for (auto& [replica, future] : inflight) {
    const MaintResponse response =
        RetryWhileShed(replica, future.get(), request);
    if (response.status == RequestStatus::kUnavailable) {
      // A standby that missed a feed op is behind forever — dead, never
      // promotable. The op itself is unharmed: the primary carries it.
      std::lock_guard<std::mutex> lock(mu_);
      MarkDeadLocked(replica);
      continue;
    }
    if (response.status == RequestStatus::kClosed) return response;
    // Semantic refusals (kRejected / kUnknownSource) are judged by the
    // primary below; a drifted standby is anti-entropy's business.
    applied.emplace_back(replica, response);
  }

  // Phase 2 — the primary. Its answer is the group's answer.
  for (;;) {
    const MaintResponse response = RetryWhileShed(
        primary, primary->backend->Feed(request).get(), request);
    if (response.status != RequestStatus::kUnavailable) return response;
    ReplicaPtr next = FailoverFrom(primary);
    if (next == nullptr || next == primary) {
      // No live standby either: the slot is down, exactly PR 4's dead
      // remote shard — the caller surfaces it.
      return response;
    }
    // The promoted standby already applied this op in phase 1; answer
    // with ITS response instead of double-applying.
    for (const auto& [replica, standby_response] : applied) {
      if (replica == next) return standby_response;
    }
    // The promoted standby joined phase 1 after our snapshot or was
    // skipped: submit to it as the new primary.
    primary = std::move(next);
  }
}

std::future<MaintResponse> ReplicaSet::Feed(const Request& request) {
  const VerbRule& rule = RuleOf(request.verb);
  DPPR_CHECK_MSG(rule.kind != VerbKind::kRead, "not a feed verb");
  // Submit OUTSIDE mu_ (SolePrimary only copies the pointer): a remote
  // submission is a socket write that can block on a slow peer, and
  // holding mu_ through it would stall every concurrent read's
  // AcquirePrimary. Single replica = the PR 3/4 fast path, bit-identical
  // semantics (the router's own shed-retry loop handles kShedQueueFull).
  if (ReplicaPtr sole = SolePrimary(); sole != nullptr) {
    return sole->backend->Feed(request);
  }
  if (AcquirePrimary() == nullptr) {
    return ReadyMaint(RequestStatus::kUnavailable);
  }
  // Replicated. The feed runs on a real thread so the router's cross-slot
  // fan-out still overlaps slots; the request is copied, since the thread
  // may outlive the caller's. An admin op is DEFERRED instead: it names
  // one slot (nothing to overlap), and the caller must consume the future
  // while it still holds the routing lock — that is what orders the
  // fan-out against exclusive-lock topology ops (quiesce can only drain
  // work that has actually been submitted). Every replica thus sees
  // source and target admin at the same point of the feed, so their
  // from-scratch pushes run against identical graphs.
  const std::launch policy = rule.kind == VerbKind::kFeed
                                 ? std::launch::async
                                 : std::launch::deferred;
  return std::async(policy, [self = shared_from_this(), request] {
    return request.verb == Verb::kQuiesce ? self->QuiesceAll()
                                          : self->FanOutFeed(request);
  });
}

MaintResponse ReplicaSet::QuiesceAll() {
  std::lock_guard<std::mutex> feed_lock(feed_mu_);
  std::vector<ReplicaPtr> replicas;
  SnapshotReplicas(&replicas, nullptr);
  // Barriers go out to every live replica at once; the waits overlap.
  std::vector<std::pair<ReplicaPtr, std::future<MaintResponse>>> barriers;
  for (const ReplicaPtr& replica : replicas) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!replica->live) continue;
    }
    barriers.emplace_back(replica,
                          replica->backend->Feed({.verb = Verb::kQuiesce}));
  }
  if (barriers.empty()) return Maint(RequestStatus::kUnavailable);
  MaintResponse combined = Maint(RequestStatus::kOk);
  size_t resolved = 0;
  for (auto& [replica, future] : barriers) {
    const MaintResponse response = future.get();
    switch (response.status) {
      case RequestStatus::kOk:
        ++resolved;
        break;
      case RequestStatus::kUnavailable: {
        // A dead replica has nothing left to drain; the barrier holds
        // vacuously for it.
        std::lock_guard<std::mutex> lock(mu_);
        MarkDeadLocked(replica);
        break;
      }
      case RequestStatus::kShedQueueFull:
        // The caller (router) re-arms the whole barrier.
        combined = Maint(RequestStatus::kShedQueueFull);
        break;
      default:
        combined = response;
        break;
    }
  }
  if (resolved == 0 && combined.status == RequestStatus::kOk) {
    return Maint(RequestStatus::kUnavailable);
  }
  return combined;
}

// ------------------------------------------------------------- migration

MaintResponse ReplicaSet::ExtractBlob(VertexId s, std::string* blob) {
  std::vector<ReplicaPtr> replicas;
  ReplicaPtr primary;
  SnapshotReplicas(&replicas, &primary);
  if (primary == nullptr) return Maint(RequestStatus::kUnavailable);

  // The primary's copy is the one that travels; a promoted standby holds
  // the same state at the same (or a newer) epoch, so failover extracts
  // from it instead.
  const MaintResponse extracted = RetryThroughFailover(
      &primary, primary->backend->ExtractBlob(s, blob),
      [s, blob](ShardBackend* backend) {
        return backend->ExtractBlob(s, blob);
      },
      IsUnavailable);
  if (extracted.status != RequestStatus::kOk) return extracted;

  // Drop the standbys' copies so the slot's replicas stay in lockstep.
  for (const ReplicaPtr& replica : replicas) {
    if (replica == primary) continue;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!replica->live) continue;
    }
    const MaintResponse removed =
        RetryShedBlocking([&replica, s] {
          return replica->backend
              ->Feed({.verb = Verb::kRemoveSource, .source = s})
              .get();
        });
    if (removed.status == RequestStatus::kUnavailable) {
      std::lock_guard<std::mutex> lock(mu_);
      MarkDeadLocked(replica);
    }
    // kUnknownSource: the standby never had it (drift) — nothing to drop.
  }
  return extracted;
}

MaintResponse ReplicaSet::InjectBlob(const std::string& blob) {
  std::vector<ReplicaPtr> replicas;
  ReplicaPtr primary;
  SnapshotReplicas(&replicas, &primary);
  if (primary == nullptr) return Maint(RequestStatus::kUnavailable);

  const MaintResponse injected = RetryThroughFailover(
      &primary, primary->backend->InjectBlob(blob),
      [&blob](ShardBackend* backend) {
        return backend->InjectBlob(blob);
      },
      IsUnavailable);
  if (injected.status != RequestStatus::kOk) return injected;

  // The standbys install the SAME bytes at the SAME epoch — a later
  // promotion serves this source as if it had always lived here.
  for (const ReplicaPtr& replica : replicas) {
    if (replica == primary) continue;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!replica->live) continue;
    }
    MaintResponse copy = RetryShedBlocking([&replica, &blob] {
      return replica->backend->InjectBlob(blob);
    });
    if (copy.status == RequestStatus::kRejected) {
      // Drift: the standby already holds some version of this source.
      // Replace it with the authoritative bytes.
      ExportedSource decoded;
      if (DecodeMigrationBlob(blob, &decoded).ok()) {
        (void)RetryShedBlocking([&replica, &decoded] {
          return replica->backend
              ->Feed({.verb = Verb::kRemoveSource, .source = decoded.source})
              .get();
        });
        copy = RetryShedBlocking([&replica, &blob] {
          return replica->backend->InjectBlob(blob);
        });
      }
    }
    if (copy.status == RequestStatus::kUnavailable) {
      std::lock_guard<std::mutex> lock(mu_);
      MarkDeadLocked(replica);
      continue;
    }
    if (copy.status == RequestStatus::kOk) {
      standby_syncs_.fetch_add(1, std::memory_order_relaxed);
      sync_bytes_.fetch_add(static_cast<int64_t>(blob.size()),
                            std::memory_order_relaxed);
    }
  }
  return injected;
}

// ---------------------------------------------------------- standby sync

bool ReplicaSet::SyncReplica(int index) {
  ReplicaPtr standby;
  ReplicaPtr primary;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (index < 0 || static_cast<size_t>(index) >= replicas_.size()) {
      return false;
    }
    standby = replicas_[static_cast<size_t>(index)];
    primary = primary_;
    if (standby == primary) return true;  // the primary IS the truth
    if (!standby->live || primary == nullptr || !primary->live) {
      return false;
    }
  }
  std::vector<VertexId> want = primary->backend->Sources();
  std::vector<VertexId> have = standby->backend->Sources();
  std::sort(want.begin(), want.end());
  std::sort(have.begin(), have.end());

  // An empty primary list is ALSO what a just-died connection answers
  // (introspection carries no failure status) — and acting on it would
  // either clear the standby (destroying the slot's last surviving copy)
  // or report a fresh standby "synced" to a corpse. Demand positive
  // proof of primary liveness first: a resolved barrier.
  if (want.empty()) {
    const MaintResponse probe =
        primary->backend->Feed({.verb = Verb::kQuiesce}).get();
    if (probe.status != RequestStatus::kOk) {
      // A data-holding standby is the surviving copy: treat the dead
      // primary like any failover and promote it. An EMPTY standby must
      // NOT be promoted (it would enthrone a blank replica) — refuse the
      // sync and leave the topology alone so the caller can undo the
      // attach; reads will mark the primary dead on their own.
      if (probe.status == RequestStatus::kUnavailable && !have.empty()) {
        std::lock_guard<std::mutex> lock(mu_);
        MarkDeadLocked(primary);
      }
      return false;
    }
  }

  // A standby that answers kUnavailable mid-sync is dead: mark it so —
  // like every other failure path — or the drift probe would see its
  // empty source set as drift forever (an anti-entropy livelock that
  // re-quiesces the fleet every tick), and failover would keep it in
  // promotion order.
  const auto standby_died = [this, &standby] {
    std::lock_guard<std::mutex> lock(mu_);
    MarkDeadLocked(standby);
    return false;
  };

  // Extras first (a source the primary dropped while the standby was
  // away), then the missing ones as blob copies at unchanged epochs.
  for (VertexId s : have) {
    if (std::binary_search(want.begin(), want.end(), s)) continue;
    const MaintResponse removed = RetryShedBlocking([&standby, s] {
      return standby->backend
          ->Feed({.verb = Verb::kRemoveSource, .source = s})
          .get();
    });
    if (removed.status == RequestStatus::kUnavailable) {
      return standby_died();
    }
  }
  for (VertexId s : want) {
    if (std::binary_search(have.begin(), have.end(), s)) continue;
    std::string blob;
    const MaintResponse copied = RetryShedBlocking([&primary, s, &blob] {
      blob.clear();
      return primary->backend->CopyBlob(s, &blob);
    });
    if (copied.status != RequestStatus::kOk) {
      // A REMOTE primary's CopyBlob is extract + re-inject. A non-empty
      // blob under a kUnavailable status means the extract half landed
      // and the primary died before the bytes went back: `blob` is the
      // source's ONLY surviving copy. Rescue it onto the standby and
      // fail the primary over — dropping it here would be the data loss
      // replication exists to prevent.
      if (copied.status == RequestStatus::kUnavailable && !blob.empty()) {
        const MaintResponse rescued =
            RetryShedBlocking([&standby, &blob] {
              return standby->backend->InjectBlob(blob);
            });
        if (rescued.status == RequestStatus::kOk) {
          standby_syncs_.fetch_add(1, std::memory_order_relaxed);
          sync_bytes_.fetch_add(static_cast<int64_t>(blob.size()),
                                std::memory_order_relaxed);
        }
        std::lock_guard<std::mutex> lock(mu_);
        MarkDeadLocked(primary);
      }
      return false;
    }
    const MaintResponse installed =
        RetryShedBlocking([&standby, &blob] {
          return standby->backend->InjectBlob(blob);
        });
    if (installed.status == RequestStatus::kUnavailable) {
      return standby_died();
    }
    if (installed.status != RequestStatus::kOk) return false;
    standby_syncs_.fetch_add(1, std::memory_order_relaxed);
    sync_bytes_.fetch_add(static_cast<int64_t>(blob.size()),
                          std::memory_order_relaxed);
  }

  // Estimator targets reconcile by RECOMPUTE, not blob copy: registering
  // the target replays the deterministic reverse push against the
  // standby's graph, which the synced feed keeps identical to the
  // primary's. Best-effort: a standby whose estimator is disabled
  // answers kRejected and is left alone (targets are a volatile overlay,
  // not replicated state the slot's correctness depends on) — only a
  // dead standby fails the sync.
  std::vector<VertexId> want_targets = primary->backend->Targets();
  std::vector<VertexId> have_targets = standby->backend->Targets();
  std::sort(want_targets.begin(), want_targets.end());
  std::sort(have_targets.begin(), have_targets.end());
  for (VertexId t : have_targets) {
    if (std::binary_search(want_targets.begin(), want_targets.end(), t)) {
      continue;
    }
    const MaintResponse removed = RetryShedBlocking([&standby, t] {
      return standby->backend
          ->Feed({.verb = Verb::kRemoveTarget, .target = t})
          .get();
    });
    if (removed.status == RequestStatus::kUnavailable) {
      return standby_died();
    }
  }
  for (VertexId t : want_targets) {
    if (std::binary_search(have_targets.begin(), have_targets.end(), t)) {
      continue;
    }
    const MaintResponse added = RetryShedBlocking([&standby, t] {
      return standby->backend->Feed({.verb = Verb::kAddTarget, .target = t})
          .get();
    });
    if (added.status == RequestStatus::kUnavailable) {
      return standby_died();
    }
    if (added.status == RequestStatus::kRejected) break;  // disabled
  }
  return true;
}

int64_t ReplicaSet::SyncAllStandbys() {
  const int64_t before = standby_syncs_.load(std::memory_order_relaxed);
  std::vector<ReplicaPtr> replicas;
  ReplicaPtr primary;
  SnapshotReplicas(&replicas, &primary);
  for (size_t i = 0; i < replicas.size(); ++i) {
    if (replicas[i] == primary) continue;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!replicas[i]->live) continue;
    }
    (void)SyncReplica(static_cast<int>(i));
  }
  return standby_syncs_.load(std::memory_order_relaxed) - before;
}

bool ReplicaSet::SourceSetsAgree() const {
  std::vector<ReplicaPtr> replicas;
  ReplicaPtr primary;
  SnapshotReplicas(&replicas, &primary);
  if (primary == nullptr) return true;
  std::vector<VertexId> want = primary->backend->Sources();
  std::sort(want.begin(), want.end());
  for (const ReplicaPtr& replica : replicas) {
    if (replica == primary) continue;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!replica->live) continue;
    }
    std::vector<VertexId> have = replica->backend->Sources();
    std::sort(have.begin(), have.end());
    if (have != want) return false;
  }
  return true;
}

// ---------------------------------------------------------- introspection

std::vector<VertexId> ReplicaSet::Sources() const {
  std::vector<ReplicaPtr> replicas;
  ReplicaPtr primary;
  SnapshotReplicas(&replicas, &primary);
  if (primary == nullptr) return {};
  std::vector<VertexId> sources = primary->backend->Sources();
  if (!sources.empty()) return sources;
  // An empty list is also what a dead-but-not-yet-marked primary answers
  // (introspection carries no failure status, and promotion only happens
  // when a request observes kUnavailable). A live standby's view is the
  // better truth then — replicas agree modulo in-repair drift — so
  // GlobalTopK/HasSource don't silently drop a slot that is one failover
  // away from serving.
  for (const ReplicaPtr& replica : replicas) {
    if (replica == primary) continue;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!replica->live) continue;
    }
    sources = replica->backend->Sources();
    if (!sources.empty()) return sources;
  }
  return {};
}

size_t ReplicaSet::NumSources() const { return Sources().size(); }

std::vector<VertexId> ReplicaSet::Targets() const {
  ReplicaPtr primary = AcquirePrimary();
  if (primary == nullptr) return {};
  return primary->backend->Targets();
}

bool ReplicaSet::HasSource(VertexId s) const {
  std::vector<ReplicaPtr> replicas;
  ReplicaPtr primary;
  SnapshotReplicas(&replicas, &primary);
  if (primary == nullptr) return false;
  if (primary->backend->HasSource(s)) return true;
  // A primary that answers "no, and I have sources" is alive and
  // authoritative. "No, and I have none" is indistinguishable from a
  // dead connection — consult the live standbys (see Sources()).
  if (primary->backend->NumSources() > 0) return false;
  for (const ReplicaPtr& replica : replicas) {
    if (replica == primary) continue;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!replica->live) continue;
    }
    if (replica->backend->HasSource(s)) return true;
  }
  return false;
}

void ReplicaSet::SnapshotMetrics(MetricsReport* report,
                                 Histogram* query_ms,
                                 Histogram* batch_ms) const {
  std::vector<ReplicaPtr> replicas;
  SnapshotReplicas(&replicas, nullptr);
  for (const ReplicaPtr& replica : replicas) {
    MetricsReport one;
    replica->backend->SnapshotMetrics(&one, query_ms, batch_ms);
    report->Accumulate(one);
  }
}

const PprIndex* ReplicaSet::LocalIndex() const {
  std::vector<ReplicaPtr> replicas;
  SnapshotReplicas(&replicas, nullptr);
  for (const ReplicaPtr& replica : replicas) {
    const PprIndex* index = replica->backend->LocalIndex();
    if (index != nullptr) return index;
  }
  return nullptr;
}

size_t ReplicaSet::NumReplicas() const {
  std::lock_guard<std::mutex> lock(mu_);
  return replicas_.size();
}

int ReplicaSet::PrimaryIndex() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (replicas_[i] == primary_) return static_cast<int>(i);
  }
  return -1;
}

bool ReplicaSet::IsLive(int index) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (index < 0 || static_cast<size_t>(index) >= replicas_.size()) {
    return false;
  }
  return replicas_[static_cast<size_t>(index)]->live;
}

ShardBackend* ReplicaSet::ReplicaBackend(int index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index < 0 || static_cast<size_t>(index) >= replicas_.size()) {
    return nullptr;
  }
  return replicas_[static_cast<size_t>(index)]->backend.get();
}

std::vector<int64_t> ReplicaSet::ReadsPerReplica() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> reads;
  reads.reserve(replicas_.size());
  for (const ReplicaPtr& replica : replicas_) {
    reads.push_back(replica->reads.load(std::memory_order_relaxed));
  }
  return reads;
}

void ReplicaSet::MergeStaleness(Histogram* out) const {
  std::lock_guard<std::mutex> lock(staleness_mu_);
  out->Merge(staleness_);
}

FeedPosition ReplicaSet::Position() const {
  ReplicaPtr primary = AcquirePrimary();
  return primary == nullptr ? FeedPosition{} : primary->backend->Position();
}

}  // namespace dppr
