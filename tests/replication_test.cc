// Replication tests (ctest label: replication; in the TSan and ASan CI
// nets).
//
// Two layers:
//  * ReplicaSetTest — the primary+standby group in isolation: promotion
//    order, failover on a severed primary, double failure =>
//    kUnavailable, the standbys-first feed invariant (a promoted standby
//    is never behind an epoch the primary served), standby re-sync after
//    injected drift, migration blobs spanning the whole group, and the
//    read-distribution policies (kRoundRobinLive spreads, affinity
//    pins, kPrimaryOnly counts zero standby reads).
//  * ReplicationRouterTest — the ReplicaSet behind the ring: a
//    replicas=2 router answers EXACTLY like the unsharded PR 3 oracle in
//    lockstep (statuses, epochs, values up to ±eps) before AND after
//    every primary is severed; AddReplica syncs a late-joining standby
//    at unchanged epochs; the periodic anti-entropy pass repairs
//    injected drift; primaries die under 4-client concurrent load with
//    zero kUnavailable answers and no epoch regression; round-robin
//    reads honor the bounded-staleness contract (max_epoch_lag, pinned-
//    session monotonicity, read counters that add up exactly) through
//    the same primary-kill chaos; and the old AddShard/RemoveShard calls
//    keep working against the new topology.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gen/generators.h"
#include "graph/dynamic_graph.h"
#include "graph/graph_stats.h"
#include "index/ppr_index.h"
#include "router/replica_set.h"
#include "router/shard_backend.h"
#include "router/sharded_service.h"
#include "server/ppr_service.h"
#include "stream/edge_stream.h"
#include "stream/sliding_window.h"

namespace dppr {
namespace {

constexpr double kEps = 1e-6;

/// How long a read waits for an on-demand rebuild in the sequential
/// capped runs. The 100 ms default answers kNotMaterialized when a
/// loaded machine slows the rebuild, which is a timing outcome, not an
/// epoch one; the wait ends as soon as the source is rebuilt.
constexpr std::chrono::seconds kRebuildWait{10};

IndexOptions TestIndexOptions() {
  IndexOptions options;
  options.ppr.eps = kEps;
  return options;
}

ServiceOptions TestServiceOptions() {
  ServiceOptions options;
  options.num_workers = 2;
  return options;
}

std::unique_ptr<LocalShardBackend> MakeBackend(
    const std::vector<Edge>& edges, VertexId num_vertices,
    std::vector<VertexId> sources) {
  return std::make_unique<LocalShardBackend>(edges, num_vertices,
                                             std::move(sources),
                                             TestIndexOptions(),
                                             TestServiceOptions());
}

/// A started ReplicaSet over `replicas` identical local stacks.
std::shared_ptr<ReplicaSet> MakeSet(const std::vector<Edge>& edges,
                                    VertexId num_vertices,
                                    const std::vector<VertexId>& sources,
                                    int replicas) {
  auto set = std::make_shared<ReplicaSet>();
  for (int r = 0; r < replicas; ++r) {
    set->AddReplica(MakeBackend(edges, num_vertices, sources));
  }
  set->Start();
  return set;
}

/// A point read of p_s[v].
Request Point(VertexId s, VertexId v) {
  return {.verb = Verb::kQueryVertex, .source = s, .vertex = v};
}

// ------------------------------------------------------------ ReplicaSet

TEST(ReplicaSetTest, FailoverPromotesNextLiveStandbyInOrder) {
  auto edges = GenerateErdosRenyi(64, 400, 7);
  auto set = MakeSet(edges, 64, {1, 2, 3}, 3);
  ASSERT_EQ(set->NumReplicas(), 3u);
  EXPECT_EQ(set->PrimaryIndex(), 0);

  const QueryResponse before = set->Read(Point(1, 1)).get();
  ASSERT_EQ(before.status, RequestStatus::kOk);

  // Kill the primary: the NEXT reply fails over — same request, answered
  // by the promoted standby, and the caller never sees kUnavailable.
  ASSERT_TRUE(set->ReplicaBackend(0)->Sever());
  const QueryResponse after = set->Read(Point(1, 1)).get();
  EXPECT_EQ(after.status, RequestStatus::kOk);
  EXPECT_EQ(after.epoch, before.epoch);
  EXPECT_NEAR(after.estimate.value, before.estimate.value,
              2 * kEps + 1e-12);
  EXPECT_EQ(set->PrimaryIndex(), 1) << "promotion order is join order";
  EXPECT_EQ(set->failovers(), 1);
  EXPECT_FALSE(set->IsLive(0));

  // Second failure: promote the last standby.
  ASSERT_TRUE(set->ReplicaBackend(1)->Sever());
  EXPECT_EQ(set->Read({.verb = Verb::kTopK, .source = 2, .k = 3}).get().status,
            RequestStatus::kOk);
  EXPECT_EQ(set->PrimaryIndex(), 2);
  EXPECT_EQ(set->failovers(), 2);
  set->Stop();
}

TEST(ReplicaSetTest, DoubleFailureAnswersUnavailable) {
  auto edges = GenerateErdosRenyi(48, 256, 3);
  auto set = MakeSet(edges, 48, {1, 2}, 2);

  ASSERT_TRUE(set->ReplicaBackend(0)->Sever());
  ASSERT_TRUE(set->ReplicaBackend(1)->Sever());
  // Every replica is gone: the slot answers like PR 4's dead remote
  // shard — a status, never a hang.
  EXPECT_EQ(set->Read(Point(1, 1)).get().status,
            RequestStatus::kUnavailable);
  EXPECT_EQ(set->Read({.verb = Verb::kTopK, .source = 1, .k = 3}).get().status,
            RequestStatus::kUnavailable);
  EXPECT_EQ(set->Feed({.verb = Verb::kApplyUpdates,
                       .batch = {EdgeUpdate::Insert(5, 6)}})
                .get()
                .status,
            RequestStatus::kUnavailable);
  EXPECT_TRUE(set->Sources().empty());
  set->Stop();
}

TEST(ReplicaSetTest, StandbyIsNeverBehindAnEpochThePrimaryServed) {
  auto edges = GenerateErdosRenyi(64, 400, 11);
  auto set = MakeSet(edges, 64, {1, 2}, 2);

  // Drive the feed and remember the highest epoch the PRIMARY served.
  uint64_t highest = 0;
  std::mt19937 rng(21);
  for (int step = 0; step < 8; ++step) {
    UpdateBatch batch;
    batch.push_back(EdgeUpdate::Insert(
        static_cast<VertexId>(rng() % 64),
        static_cast<VertexId>(rng() % 64)));
    ASSERT_EQ(set->Feed({.verb = Verb::kApplyUpdates, .batch = batch})
                  .get()
                  .status,
              RequestStatus::kOk);
    const QueryResponse served = set->Read(Point(1, 1)).get();
    ASSERT_EQ(served.status, RequestStatus::kOk);
    highest = std::max(highest, served.epoch);
  }

  // Kill the primary: the standby received every feed op BEFORE the
  // primary did, so its epoch can only be >= anything a client saw.
  ASSERT_TRUE(set->ReplicaBackend(0)->Sever());
  const QueryResponse promoted = set->Read(Point(1, 1)).get();
  ASSERT_EQ(promoted.status, RequestStatus::kOk);
  EXPECT_GE(promoted.epoch, highest)
      << "a promoted standby must never regress an epoch";
  set->Stop();
}

TEST(ReplicaSetTest, LruCapNeverRegressesAPromotedEpoch) {
  // Each replica's LRU follows its own read traffic, so the primary and
  // the standby keep different sources live. The epoch belongs to the
  // replica's feed position, not to a source's publish history, so a
  // source rebuilt on either replica serves the same epoch.
  auto edges = GenerateErdosRenyi(64, 400, 27);
  IndexOptions capped = TestIndexOptions();
  capped.max_materialized_sources = 1;
  ServiceOptions service_options = TestServiceOptions();
  service_options.materialize_wait = kRebuildWait;
  auto set = std::make_shared<ReplicaSet>();
  for (int r = 0; r < 2; ++r) {
    set->AddReplica(std::make_unique<LocalShardBackend>(
        edges, 64, std::vector<VertexId>{1, 2}, capped, service_options));
  }
  set->Start();

  // Only the primary sees this read: it materializes source 2 there.
  ASSERT_EQ(set->Read(Point(2, 2)).get().status, RequestStatus::kOk);
  std::mt19937 rng(27);
  for (int b = 0; b < 5; ++b) {
    const UpdateBatch batch = {
        EdgeUpdate::Insert(static_cast<VertexId>(rng() % 64),
                           static_cast<VertexId>(rng() % 64))};
    ASSERT_EQ(set->Feed({.verb = Verb::kApplyUpdates, .batch = batch})
                  .get()
                  .status,
              RequestStatus::kOk);
  }
  const QueryResponse served = set->Read(Point(2, 2)).get();
  ASSERT_EQ(served.status, RequestStatus::kOk);
  EXPECT_EQ(served.epoch, 6u) << "Initialize + five update requests";

  // Quiesced: every replica answers every source at that epoch.
  ASSERT_EQ(set->Feed({.verb = Verb::kQuiesce}).get().status,
            RequestStatus::kOk);
  for (int r = 0; r < 2; ++r) {
    for (const VertexId s : {1, 2}) {
      const QueryResponse answer =
          set->ReplicaBackend(r)->Read(Point(s, s)).get();
      ASSERT_EQ(answer.status, RequestStatus::kOk);
      EXPECT_EQ(answer.epoch, served.epoch)
          << "replica " << r << " source " << s;
    }
  }

  ASSERT_TRUE(set->ReplicaBackend(0)->Sever());
  const QueryResponse promoted = set->Read(Point(2, 2)).get();
  ASSERT_EQ(promoted.status, RequestStatus::kOk);
  EXPECT_GE(promoted.epoch, served.epoch)
      << "a promoted standby must never regress an epoch";
  set->Stop();
}

TEST(ReplicaSetTest, StandbyResyncAfterDrift) {
  auto edges = GenerateErdosRenyi(64, 400, 5);
  auto set = MakeSet(edges, 64, {1, 2, 3}, 2);
  ASSERT_TRUE(set->SourceSetsAgree());

  // Inject drift behind the set's back: the standby loses source 2 and
  // gains source 9 (as if it had joined against a different hub set).
  ShardBackend* standby = set->ReplicaBackend(1);
  ASSERT_EQ(standby->Feed({.verb = Verb::kRemoveSource, .source = 2})
                .get()
                .status,
            RequestStatus::kOk);
  ASSERT_EQ(standby->Feed({.verb = Verb::kAddSource, .source = 9})
                .get()
                .status,
            RequestStatus::kOk);
  EXPECT_FALSE(set->SourceSetsAgree());

  // Anti-entropy: the missing source comes back as a blob at the
  // PRIMARY's epoch, the extra one is dropped.
  const uint64_t primary_epoch = set->Read(Point(2, 2)).get().epoch;
  EXPECT_GE(set->SyncAllStandbys(), 1);
  EXPECT_TRUE(set->SourceSetsAgree());
  EXPECT_GT(set->sync_bytes(), 0);

  ASSERT_TRUE(set->ReplicaBackend(0)->Sever());
  const QueryResponse resynced = set->Read(Point(2, 2)).get();
  EXPECT_EQ(resynced.status, RequestStatus::kOk);
  EXPECT_EQ(resynced.epoch, primary_epoch)
      << "a synced source continues the primary's epoch sequence";
  EXPECT_EQ(set->Read(Point(9, 9)).get().status,
            RequestStatus::kUnknownSource)
      << "the drifted extra source must be gone";
  set->Stop();
}

TEST(ReplicaSetTest, DeadStandbyIsMarkedDeadBySyncNotLivelocked) {
  auto edges = GenerateErdosRenyi(64, 400, 15);
  auto set = MakeSet(edges, 64, {1, 2}, 2);

  // A dead standby answers an empty source set, which reads as drift.
  // The sync pass must mark it dead (one attempt), after which the
  // drift probe skips it — otherwise anti-entropy would re-quiesce the
  // fleet every tick forever.
  ASSERT_TRUE(set->ReplicaBackend(1)->Sever());
  EXPECT_FALSE(set->SourceSetsAgree());
  EXPECT_EQ(set->SyncAllStandbys(), 0);
  EXPECT_FALSE(set->IsLive(1));
  EXPECT_TRUE(set->SourceSetsAgree())
      << "a dead standby must not read as drift";
  EXPECT_EQ(set->PrimaryIndex(), 0) << "the primary is unaffected";
  EXPECT_EQ(set->Read(Point(1, 1)).get().status,
            RequestStatus::kOk);
  set->Stop();
}

TEST(ReplicaSetTest, MigrationBlobsSpanTheWholeGroup) {
  auto edges = GenerateErdosRenyi(64, 400, 9);
  auto donor = MakeSet(edges, 64, {4, 5}, 2);
  auto taker = MakeSet(edges, 64, {}, 2);

  // Extract drains the source from the PRIMARY and the standby alike.
  std::string blob;
  ASSERT_EQ(donor->ExtractBlob(4, &blob).status, RequestStatus::kOk);
  EXPECT_FALSE(donor->HasSource(4));
  EXPECT_FALSE(donor->ReplicaBackend(1)->HasSource(4))
      << "the standby's copy must be dropped too";

  // Inject installs the same bytes on every replica of the taker.
  ASSERT_EQ(taker->InjectBlob(blob).status, RequestStatus::kOk);
  EXPECT_TRUE(taker->HasSource(4));
  EXPECT_TRUE(taker->ReplicaBackend(1)->HasSource(4));
  const uint64_t epoch = taker->Read(Point(4, 4)).get().epoch;
  ASSERT_TRUE(taker->ReplicaBackend(0)->Sever());
  EXPECT_EQ(taker->Read(Point(4, 4)).get().epoch, epoch)
      << "standby holds the injected source at the same epoch";
  donor->Stop();
  taker->Stop();
}

TEST(ReplicaSetTest, RoundRobinSpreadsReadsAndAffinityPins) {
  auto edges = GenerateErdosRenyi(64, 400, 17);
  ReplicaSetOptions set_options;
  set_options.read_policy = ReadPolicy::kRoundRobinLive;
  set_options.max_epoch_lag = 4;
  auto set = std::make_shared<ReplicaSet>(set_options);
  for (int r = 0; r < 3; ++r) {
    set->AddReplica(MakeBackend(edges, 64, {1, 2}));
  }
  set->Start();

  // Unpinned reads rotate over the live replicas; every OK answer is
  // counted on exactly one replica, and only the primary's count as
  // primary reads.
  constexpr int64_t kReads = 30;
  for (int64_t i = 0; i < kReads; ++i) {
    ASSERT_EQ(set->Read(Point(1, 1)).get().status,
              RequestStatus::kOk);
  }
  std::vector<int64_t> reads = set->ReadsPerReplica();
  ASSERT_EQ(reads.size(), 3u);
  int64_t total = 0;
  for (int r = 0; r < 3; ++r) {
    EXPECT_GT(reads[r], 0) << "replica " << r << " never served a read";
    total += reads[r];
  }
  EXPECT_EQ(total, kReads);
  EXPECT_EQ(set->primary_reads() + set->standby_reads(), kReads);
  EXPECT_GT(set->standby_reads(), 0);

  // A pinned session sticks to ONE replica: affinity 5 over 3 replicas
  // pins index 2.
  const int64_t pinned_before = set->ReadsPerReplica()[2];
  for (int i = 0; i < 12; ++i) {
    ASSERT_EQ(set->Read(Point(2, 2), /*affinity=*/5).get().status,
              RequestStatus::kOk);
  }
  EXPECT_EQ(set->ReadsPerReplica()[2], pinned_before + 12);

  // A pinned session whose replica died follows the slot to the primary
  // — and a dead pinned STANDBY is not a failover.
  ASSERT_TRUE(set->ReplicaBackend(2)->Sever());
  EXPECT_EQ(set->Read(Point(2, 2), /*affinity=*/5).get().status,
            RequestStatus::kOk);
  EXPECT_EQ(set->failovers(), 0);
  set->Stop();

  // The default policy is unchanged by all of this: kPrimaryOnly on a
  // replicated slot counts every read on the primary, none on a standby.
  auto primary_only = MakeSet(edges, 64, {1}, 2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(primary_only->Read(Point(1, 1)).get().status,
              RequestStatus::kOk);
  }
  EXPECT_EQ(primary_only->primary_reads(), 5);
  EXPECT_EQ(primary_only->standby_reads(), 0);
  EXPECT_EQ(primary_only->ReadsPerReplica(),
            (std::vector<int64_t>{5, 0}));
  primary_only->Stop();
}

TEST(ReplicaSetTest, ManualPromoteAndRemoveReplica) {
  auto edges = GenerateErdosRenyi(48, 256, 13);
  auto set = MakeSet(edges, 48, {1}, 3);

  // Manual promotion (quiesced: nothing in flight).
  ASSERT_EQ(set->Feed({.verb = Verb::kQuiesce}).get().status,
            RequestStatus::kOk);
  EXPECT_TRUE(set->Promote(2));
  EXPECT_EQ(set->PrimaryIndex(), 2);
  EXPECT_EQ(set->failovers(), 0) << "a voluntary promote is not a failover";
  EXPECT_EQ(set->Read(Point(1, 1)).get().status,
            RequestStatus::kOk);

  // Removing the primary hands off to the next live replica first.
  EXPECT_TRUE(set->RemoveReplica(2));
  EXPECT_EQ(set->NumReplicas(), 2u);
  EXPECT_EQ(set->Read(Point(1, 1)).get().status,
            RequestStatus::kOk);

  EXPECT_TRUE(set->RemoveReplica(1));
  EXPECT_FALSE(set->RemoveReplica(0)) << "the last replica is refused";
  EXPECT_EQ(set->Read(Point(1, 1)).get().status,
            RequestStatus::kOk);
  set->Stop();
}

TEST(ReplicaSetTest, EstimatorReadsStayOnThePrimaryAndFailOver) {
  constexpr double kEstimatorEps = 1e-5;
  auto edges = GenerateErdosRenyi(64, 400, 19);
  ServiceOptions service_options = TestServiceOptions();
  service_options.estimator.enabled = true;
  service_options.estimator.eps = kEstimatorEps;
  ReplicaSetOptions set_options;
  set_options.read_policy = ReadPolicy::kRoundRobinLive;
  const auto make_set = [&] {
    auto set = std::make_shared<ReplicaSet>(set_options);
    for (int r = 0; r < 2; ++r) {
      set->AddReplica(std::make_unique<LocalShardBackend>(
          edges, 64, std::vector<VertexId>{1, 2}, TestIndexOptions(),
          service_options));
    }
    set->Start();
    for (const VertexId t : {3, 4}) {
      EXPECT_EQ(set->Feed({.verb = Verb::kAddTarget, .target = t})
                    .get()
                    .status,
                RequestStatus::kOk);
    }
    return set;
  };
  // Pair, hybrid and reverse top-k reads in turn, over both targets.
  const auto read = [](ReplicaSet* set, int i) {
    const VertexId s = static_cast<VertexId>((7 * i) % 64);
    const VertexId t = 3 + i % 2;
    switch (i % 3) {
      case 0:
        return set->Read({.verb = Verb::kQueryPair, .source = s, .target = t})
            .get();
      case 1:
        return set
            ->Read({.verb = Verb::kHybridQuery, .source = s, .target = t})
            .get();
      default:
        return set->Read({.verb = Verb::kReverseTopK, .target = t, .k = 5})
            .get();
    }
  };
  constexpr int kReads = 30;

  // Round robin spreads point and top-k reads only: with the standby
  // severed, estimator reads never meet it, so it stays live.
  auto set = make_set();
  ASSERT_TRUE(set->ReplicaBackend(1)->Sever());
  for (int i = 0; i < kReads; ++i) {
    EXPECT_EQ(read(set.get(), i).status, RequestStatus::kOk) << "read " << i;
  }
  EXPECT_TRUE(set->IsLive(1)) << "an estimator read reached the standby";
  // Control: two point reads rotate onto the standby and find it dead.
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(set->Read(Point(1, 1)).get().status,
              RequestStatus::kOk);
  }
  EXPECT_FALSE(set->IsLive(1));
  EXPECT_EQ(set->failovers(), 0);
  set->Stop();

  // With the primary severed instead, the same reads fail over to the
  // standby, which answers them as the primary did.
  auto fresh = make_set();
  std::vector<QueryResponse> before;
  for (int i = 0; i < kReads; ++i) {
    before.push_back(read(fresh.get(), i));
    ASSERT_EQ(before.back().status, RequestStatus::kOk) << "read " << i;
  }
  ASSERT_TRUE(fresh->ReplicaBackend(0)->Sever());
  for (int i = 0; i < kReads; ++i) {
    const QueryResponse after = read(fresh.get(), i);
    ASSERT_EQ(after.status, RequestStatus::kOk) << "read " << i;
    EXPECT_NEAR(after.estimate.value, before[i].estimate.value,
                2 * kEstimatorEps)
        << "read " << i;
    ASSERT_EQ(after.topk.entries.size(), before[i].topk.entries.size());
    for (size_t e = 0; e < after.topk.entries.size(); ++e) {
      EXPECT_NEAR(after.topk.entries[e].score,
                  before[i].topk.entries[e].score, 2 * kEstimatorEps)
          << "read " << i << " entry " << e;
    }
  }
  EXPECT_EQ(fresh->failovers(), 1);
  EXPECT_EQ(fresh->PrimaryIndex(), 1);
  fresh->Stop();
}

// ----------------------------------------------------------- with router

/// Seeded batches over a sliding window, pre-generated (SlidingWindow is
/// not thread-safe) — the shared harness of the equivalence suites.
struct ReplicationWorkload {
  std::vector<Edge> initial;
  VertexId num_vertices = 0;
  std::vector<UpdateBatch> batches;
  std::vector<VertexId> hubs;
};

ReplicationWorkload MakeWorkload(int num_hubs, uint64_t seed) {
  ReplicationWorkload workload;
  auto edges = GenerateErdosRenyi(128, 1024, 29);
  EdgeStream stream =
      EdgeStream::RandomPermutation(std::move(edges), seed);
  SlidingWindow window(&stream, 0.5);
  workload.initial = window.InitialEdges();
  workload.num_vertices = stream.NumVertices();
  const EdgeCount batch_size = window.BatchForRatio(0.01);
  while (static_cast<int>(workload.batches.size()) < 12 &&
         window.CanSlide(batch_size)) {
    workload.batches.push_back(window.NextBatch(batch_size));
  }
  DynamicGraph ranking =
      DynamicGraph::FromEdges(workload.initial, workload.num_vertices);
  workload.hubs = TopOutDegreeVertices(ranking, num_hubs);
  return workload;
}

/// The LRU cap the router suites also run under: below every slot's hub
/// count, so reads keep evicting and rebuilding sources on each replica.
constexpr size_t kLruCap = 2;

/// Under a cap, asserts it was exercised: some replica evicted a source.
void ExpectEvictionsUnderCap(size_t max_materialized,
                             const RouterReport& report) {
  if (max_materialized > 0) {
    EXPECT_GT(report.combined.sources_evicted, 0) << "the cap never bit";
  }
}

void RunReplicatedRouterMatchesUnshardedOracle(size_t max_materialized) {
  SCOPED_TRACE("max_materialized_sources=" +
               std::to_string(max_materialized));
  ReplicationWorkload workload = MakeWorkload(6, 31);

  // The PR 3 oracle: one unsharded serving stack.
  DynamicGraph ref_graph =
      DynamicGraph::FromEdges(workload.initial, workload.num_vertices);
  PprIndex ref_index(&ref_graph, workload.hubs, TestIndexOptions());
  ref_index.Initialize();
  PprService reference(&ref_index, TestServiceOptions());
  reference.Start();

  ShardedServiceOptions options;
  options.num_shards = 2;
  options.replicas = 2;
  options.vnodes_per_shard = 32;
  options.index = TestIndexOptions();
  options.index.max_materialized_sources = max_materialized;
  options.service = TestServiceOptions();
  if (max_materialized > 0) options.service.materialize_wait = kRebuildWait;
  ShardedPprService router(workload.initial, workload.num_vertices,
                           workload.hubs, options);
  router.Start();

  std::mt19937 rng(777);
  size_t next_batch = 0;
  bool severed = false;
  for (int step = 0; step < 160; ++step) {
    if (step == 80) {
      // Halfway: kill EVERY slot's primary under the running lockstep.
      // The standbys applied the identical feed, so nothing above the
      // replica sets may change — statuses, epochs, values.
      for (int slot : router.ShardIds()) {
        ASSERT_TRUE(router.SeverReplica(slot, router.PrimaryOf(slot)));
      }
      severed = true;
    }
    const uint32_t dice = rng() % 100;
    const VertexId s = workload.hubs[rng() % workload.hubs.size()];
    if (dice < 15 && next_batch < workload.batches.size()) {
      const UpdateBatch& batch = workload.batches[next_batch++];
      ASSERT_EQ(reference.ApplyUpdatesAsync(batch).get().status,
                RequestStatus::kOk);
      ASSERT_EQ(router.ApplyUpdates(batch).status, RequestStatus::kOk);
    } else if (dice < 35) {
      const QueryResponse expected = reference.TopK(s, 5);
      const QueryResponse got = router.TopK(s, 5);
      ASSERT_EQ(got.status, expected.status);
      if (expected.status != RequestStatus::kOk) continue;
      EXPECT_EQ(got.epoch, expected.epoch) << "severed=" << severed;
      ASSERT_EQ(got.topk.entries.size(), expected.topk.entries.size());
      for (size_t e = 0; e < expected.topk.entries.size(); ++e) {
        EXPECT_NEAR(got.topk.entries[e].score,
                    expected.topk.entries[e].score, 2 * kEps + 1e-12);
      }
    } else {
      const VertexId v =
          static_cast<VertexId>(rng() % workload.num_vertices);
      const QueryResponse expected = reference.Query(s, v);
      const QueryResponse got = router.Query(s, v);
      ASSERT_EQ(got.status, expected.status);
      if (expected.status != RequestStatus::kOk) continue;
      EXPECT_EQ(got.epoch, expected.epoch) << "severed=" << severed;
      EXPECT_NEAR(got.estimate.value, expected.estimate.value,
                  2 * kEps + 1e-12);
    }
  }
  const RouterReport report = router.Report();
  EXPECT_EQ(report.failovers, static_cast<int64_t>(router.NumShards()));
  ExpectEvictionsUnderCap(max_materialized, report);
  reference.Stop();
  router.Stop();
}

TEST(ReplicationRouterTest, ReplicatedRouterMatchesUnshardedOracle) {
  RunReplicatedRouterMatchesUnshardedOracle(0);
  RunReplicatedRouterMatchesUnshardedOracle(kLruCap);
}

TEST(ReplicationRouterTest, AddReplicaSyncsAndServesAfterPrimaryKill) {
  ReplicationWorkload workload = MakeWorkload(8, 33);
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.index = TestIndexOptions();
  options.service = TestServiceOptions();
  ShardedPprService router(workload.initial, workload.num_vertices,
                           workload.hubs, options);
  router.Start();

  // Advance the feed a little so the synced epochs are > 1.
  for (size_t b = 0; b < 3; ++b) {
    ASSERT_EQ(router.ApplyUpdates(workload.batches[b]).status,
              RequestStatus::kOk);
  }
  std::vector<uint64_t> epochs_before;
  for (VertexId hub : workload.hubs) {
    const QueryResponse response = router.Query(hub, hub);
    ASSERT_EQ(response.status, RequestStatus::kOk);
    epochs_before.push_back(response.epoch);
  }

  // Late-joining standbys for every slot: synced from the primaries as
  // blobs at unchanged epochs.
  for (int slot : router.ShardIds()) {
    ASSERT_EQ(router.NumReplicas(slot), 1u);
    ASSERT_GE(router.AddReplica(slot), 0);
    ASSERT_EQ(router.NumReplicas(slot), 2u);
  }
  const RouterReport synced = router.Report();
  EXPECT_EQ(synced.standby_syncs,
            static_cast<int64_t>(workload.hubs.size()));
  EXPECT_GT(synced.sync_bytes, 0);

  // Feed a few more batches THROUGH the replicated slots, then kill
  // every primary: all hubs stay readable, epochs never regress.
  for (size_t b = 3; b < 6; ++b) {
    ASSERT_EQ(router.ApplyUpdates(workload.batches[b]).status,
              RequestStatus::kOk);
  }
  for (int slot : router.ShardIds()) {
    ASSERT_TRUE(router.SeverReplica(slot, router.PrimaryOf(slot)));
  }
  for (size_t i = 0; i < workload.hubs.size(); ++i) {
    const QueryResponse response =
        router.Query(workload.hubs[i], workload.hubs[i]);
    EXPECT_EQ(response.status, RequestStatus::kOk);
    EXPECT_GE(response.epoch, epochs_before[i]);
  }
  EXPECT_GE(router.Report().failovers, 2);
  router.Stop();
}

TEST(ReplicationRouterTest, AntiEntropyRepairsDriftedStandby) {
  ReplicationWorkload workload = MakeWorkload(6, 35);
  ShardedServiceOptions options;
  options.num_shards = 1;
  options.replicas = 2;
  options.index = TestIndexOptions();
  options.service = TestServiceOptions();
  options.anti_entropy_interval = std::chrono::milliseconds(25);
  ShardedPprService router(workload.initial, workload.num_vertices,
                           workload.hubs, options);
  router.Start();
  const int slot = router.ShardIds().front();

  // Drift the standby behind the router's back.
  ShardBackend* standby = router.ReplicaBackendForTesting(slot, 1);
  ASSERT_NE(standby, nullptr);
  const VertexId lost = workload.hubs.front();
  ASSERT_EQ(standby->Feed({.verb = Verb::kRemoveSource, .source = lost})
                .get()
                .status,
            RequestStatus::kOk);

  // The periodic pass must notice and re-sync within a few intervals.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (router.Report().standby_syncs < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(router.Report().standby_syncs, 1) << "anti-entropy never ran";

  // Proof the repair is real: kill the primary, the resynced standby
  // serves the source it had lost.
  ASSERT_TRUE(router.SeverReplica(slot, router.PrimaryOf(slot)));
  EXPECT_EQ(router.Query(lost, lost).status, RequestStatus::kOk);
  router.Stop();
}

void RunChaosPrimaryKillUnderConcurrentLoad(size_t max_materialized) {
  // 4 clients hammer a replicas=2 fleet while a feeder streams batches;
  // halfway through, every slot's primary is severed. The acceptance
  // bar: zero kUnavailable answers EVER (the failover happens inside the
  // request), per-source epochs never regress, and every hub is readable
  // afterwards. TSan runs this.
  SCOPED_TRACE("max_materialized_sources=" +
               std::to_string(max_materialized));
  ReplicationWorkload workload = MakeWorkload(8, 41);
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.replicas = 2;
  options.index = TestIndexOptions();
  options.index.max_materialized_sources = max_materialized;
  options.service = TestServiceOptions();
  ShardedPprService router(workload.initial, workload.num_vertices,
                           workload.hubs, options);
  router.Start();

  std::atomic<bool> stop{false};
  std::atomic<int64_t> unavailable{0};
  std::atomic<int64_t> served{0};
  std::atomic<bool> epochs_monotonic{true};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937 rng(100 + static_cast<uint32_t>(c));
      std::vector<uint64_t> last_epoch(workload.hubs.size(), 0);
      while (!stop.load(std::memory_order_acquire)) {
        const size_t i = rng() % workload.hubs.size();
        const VertexId hub = workload.hubs[i];
        const QueryResponse response = rng() % 4 == 0
                                           ? router.TopK(hub, 3)
                                           : router.Query(hub, hub);
        if (response.status == RequestStatus::kUnavailable) {
          unavailable.fetch_add(1);
        }
        if (response.status != RequestStatus::kOk) continue;
        served.fetch_add(1);
        if (response.epoch < last_epoch[i]) {
          epochs_monotonic.store(false);
        }
        last_epoch[i] = response.epoch;
      }
    });
  }

  // Feeder: stream every batch; kill the primaries halfway.
  for (size_t b = 0; b < workload.batches.size(); ++b) {
    const MaintResponse applied =
        router.ApplyUpdates(workload.batches[b]);
    ASSERT_EQ(applied.status, RequestStatus::kOk);
    if (b == workload.batches.size() / 2) {
      for (int slot : router.ShardIds()) {
        ASSERT_TRUE(router.SeverReplica(slot, router.PrimaryOf(slot)));
      }
    }
  }
  // Let the clients run against the promoted standbys for a while.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true, std::memory_order_release);
  for (auto& client : clients) client.join();

  EXPECT_EQ(unavailable.load(), 0)
      << "failover must absorb the primary deaths";
  EXPECT_TRUE(epochs_monotonic.load()) << "an epoch regressed";
  EXPECT_GT(served.load(), 0);
  for (VertexId hub : workload.hubs) {
    EXPECT_EQ(router.Query(hub, hub).status, RequestStatus::kOk) << hub;
  }
  const RouterReport report = router.Report();
  EXPECT_EQ(report.failovers, static_cast<int64_t>(router.NumShards()));
  ExpectEvictionsUnderCap(max_materialized, report);
  router.Stop();
}

TEST(ReplicationRouterTest, ChaosPrimaryKillUnderConcurrentLoad) {
  RunChaosPrimaryKillUnderConcurrentLoad(0);
  RunChaosPrimaryKillUnderConcurrentLoad(kLruCap);
}

void RunChaosRoundRobinReadsHonorStalenessBound(size_t max_materialized) {
  // The bounded-staleness contract under fire: 4 clients read through
  // kRoundRobinLive (two of them pinned sessions, two unpinned) while a
  // feeder streams batches and every slot's primary is severed halfway.
  // The clients share a per-hub max-seen-epoch floor — a lower bound of
  // the router's internal served-epoch floor, because the router raises
  // its floor BEFORE returning an answer — so every OK answer must be
  // within max_epoch_lag of the floor read before issuing. Pinned
  // sessions must stay per-source monotonic across the primary kills,
  // and afterwards the per-replica read counters must add up EXACTLY to
  // the OK answers the clients counted. TSan runs this.
  SCOPED_TRACE("max_materialized_sources=" +
               std::to_string(max_materialized));
  constexpr int64_t kLag = 2;
  ReplicationWorkload workload = MakeWorkload(8, 47);
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.replicas = 3;
  options.read_policy = ReadPolicy::kRoundRobinLive;
  options.max_epoch_lag = kLag;
  options.index = TestIndexOptions();
  options.index.max_materialized_sources = max_materialized;
  options.service = TestServiceOptions();
  ShardedPprService router(workload.initial, workload.num_vertices,
                           workload.hubs, options);
  router.Start();

  std::atomic<bool> stop{false};
  std::atomic<int64_t> unavailable{0};
  std::atomic<int64_t> ok_reads{0};
  std::atomic<int64_t> bound_violations{0};
  std::atomic<bool> epochs_monotonic{true};
  std::vector<std::atomic<uint64_t>> floor(workload.hubs.size());
  for (auto& f : floor) f.store(0);

  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      const uint64_t affinity = c < 2 ? static_cast<uint64_t>(c + 1) : 0;
      std::mt19937 rng(500 + static_cast<uint32_t>(c));
      std::vector<uint64_t> last_epoch(workload.hubs.size(), 0);
      while (!stop.load(std::memory_order_acquire)) {
        const size_t i = rng() % workload.hubs.size();
        const VertexId hub = workload.hubs[i];
        const uint64_t floor_before =
            floor[i].load(std::memory_order_acquire);
        const QueryResponse response =
            rng() % 4 == 0 ? router.TopK(hub, 3, 0, affinity)
                           : router.Query(hub, hub, 0, affinity);
        if (response.status == RequestStatus::kUnavailable) {
          unavailable.fetch_add(1);
        }
        if (response.status != RequestStatus::kOk) continue;
        ok_reads.fetch_add(1);
        if (response.epoch + static_cast<uint64_t>(kLag) < floor_before) {
          bound_violations.fetch_add(1);
        }
        if (affinity != 0) {
          if (response.epoch < last_epoch[i]) {
            epochs_monotonic.store(false);
          }
          last_epoch[i] = response.epoch;
        }
        uint64_t seen = floor[i].load(std::memory_order_relaxed);
        while (seen < response.epoch &&
               !floor[i].compare_exchange_weak(seen, response.epoch)) {
        }
      }
    });
  }

  // Feeder: stream every batch; kill the primaries halfway.
  for (size_t b = 0; b < workload.batches.size(); ++b) {
    ASSERT_EQ(router.ApplyUpdates(workload.batches[b]).status,
              RequestStatus::kOk);
    if (b == workload.batches.size() / 2) {
      for (int slot : router.ShardIds()) {
        ASSERT_TRUE(router.SeverReplica(slot, router.PrimaryOf(slot)));
      }
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true, std::memory_order_release);
  for (auto& client : clients) client.join();

  EXPECT_EQ(unavailable.load(), 0)
      << "failover must absorb the primary deaths";
  EXPECT_EQ(bound_violations.load(), 0)
      << "an answer trailed the served floor by more than max_epoch_lag";
  EXPECT_TRUE(epochs_monotonic.load())
      << "a pinned session saw an epoch regress";
  EXPECT_GT(ok_reads.load(), 0);

  const RouterReport report = router.Report();
  EXPECT_EQ(report.failovers, static_cast<int64_t>(router.NumShards()));
  EXPECT_GT(report.standby_reads, 0)
      << "round-robin never left the primary";
  // Every OK answer was counted on exactly one replica — no more, no
  // less — and left exactly one staleness sample.
  EXPECT_EQ(report.primary_reads + report.standby_reads, ok_reads.load());
  int64_t per_replica_total = 0;
  for (const auto& slot : report.reads_per_replica) {
    for (int64_t reads : slot.second) per_replica_total += reads;
  }
  EXPECT_EQ(per_replica_total, ok_reads.load());
  EXPECT_EQ(static_cast<int64_t>(report.staleness.Count()),
            ok_reads.load());
  ExpectEvictionsUnderCap(max_materialized, report);
  // Every hub still readable (these reads land after the report
  // snapshot, so the equalities above stay exact).
  for (VertexId hub : workload.hubs) {
    EXPECT_EQ(router.Query(hub, hub).status, RequestStatus::kOk) << hub;
  }
  router.Stop();
}

TEST(ReplicationRouterTest, ChaosRoundRobinReadsHonorStalenessBound) {
  RunChaosRoundRobinReadsHonorStalenessBound(0);
  RunChaosRoundRobinReadsHonorStalenessBound(kLruCap);
}

TEST(ReplicationRouterTest, OldTopologyCallsWorkOnReplicatedSlots) {
  // The PR 3/4 surface (AddShard / RemoveShard) must keep compiling and
  // behaving against the replica-set topology — including draining a
  // replicated slot whose standby holds copies of everything.
  ReplicationWorkload workload = MakeWorkload(8, 43);
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.replicas = 2;
  options.index = TestIndexOptions();
  options.service = TestServiceOptions();
  ShardedPprService router(workload.initial, workload.num_vertices,
                           workload.hubs, options);
  router.Start();
  ASSERT_EQ(router.ApplyUpdates(workload.batches[0]).status,
            RequestStatus::kOk);

  // Grow a (single-replica) slot: ~1/3 of the hubs migrate onto it, out
  // of the replicated donors — whose standbys must drop their copies.
  const int grown = router.AddShard();
  ASSERT_GE(grown, 0);
  EXPECT_EQ(router.NumReplicas(grown), 1u);
  EXPECT_EQ(router.NumSources(), workload.hubs.size());

  // Drain a replicated slot: its sources land on the survivors.
  const int victim = router.ShardIds().front();
  ASSERT_TRUE(router.RemoveShard(victim));
  EXPECT_EQ(router.NumSources(), workload.hubs.size());
  for (VertexId hub : workload.hubs) {
    EXPECT_EQ(router.Query(hub, hub).status, RequestStatus::kOk) << hub;
  }
  router.Stop();
}

}  // namespace
}  // namespace dppr
