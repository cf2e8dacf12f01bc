// Durable storage tier tests (src/storage/).
//
// Three layers, matching the subsystem:
//  * GraphChecksumTest — the fingerprint the checkpoint and the join
//    handshake both lean on: insertion-order independence, add/remove
//    inversion, sensitivity to the vertex count and the edge set.
//  * BatchLogTest — crash-shaped files: a torn tail (partial record, or
//    a record whose checksum no longer matches) must be truncated on
//    open while every record before the tear survives byte-exact.
//  * DurableStoreTest — the recovery contract end to end: a restarted
//    LocalShardBackend must reproduce the EXACT pre-crash source set and
//    epochs (checkpoint restore + log replay), and a spilled source
//    rematerialized through restore-then-catch-up must answer within
//    the same ±eps contract as a from-scratch recompute.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "gen/generators.h"
#include "graph/dynamic_graph.h"
#include "graph/graph_stats.h"
#include "index/ppr_index.h"
#include "router/shard_backend.h"
#include "server/ppr_service.h"
#include "storage/durable_store.h"
#include "stream/edge_stream.h"
#include "stream/sliding_window.h"

namespace dppr {
namespace {

constexpr double kEps = 1e-6;

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

/// A per-test scratch directory, recursively removed on destruction.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/dppr_storage_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path_ = made;
  }
  ~TempDir() {
    // The store writes a flat directory (LOG, MANIFEST, checkpoint-*,
    // spill-*) plus per-backend subdirs one level deep.
    RemoveTree(path_);
  }
  const std::string& path() const { return path_; }

 private:
  static void RemoveTree(const std::string& dir) {
    std::string cmd = "rm -rf '" + dir + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }
  std::string path_;
};

/// Seeded batches over a sliding window, pre-generated (the same
/// harness shape as the replication equivalence suites).
struct StorageWorkload {
  std::vector<Edge> initial;
  VertexId num_vertices = 0;
  std::vector<UpdateBatch> batches;
  std::vector<VertexId> hubs;
};

StorageWorkload MakeWorkload(int num_hubs, uint64_t seed) {
  StorageWorkload workload;
  auto edges = GenerateErdosRenyi(128, 1024, 29);
  EdgeStream stream = EdgeStream::RandomPermutation(std::move(edges), seed);
  SlidingWindow window(&stream, 0.5);
  workload.initial = window.InitialEdges();
  workload.num_vertices = stream.NumVertices();
  const EdgeCount batch_size = window.BatchForRatio(0.01);
  while (static_cast<int>(workload.batches.size()) < 10 &&
         window.CanSlide(batch_size)) {
    workload.batches.push_back(window.NextBatch(batch_size));
  }
  DynamicGraph ranking =
      DynamicGraph::FromEdges(workload.initial, workload.num_vertices);
  workload.hubs = TopOutDegreeVertices(ranking, num_hubs);
  return workload;
}

// --------------------------------------------------------- fingerprint

TEST(GraphChecksumTest, InsertionOrderDoesNotMatter) {
  auto edges = GenerateErdosRenyi(64, 400, 7);
  DynamicGraph a = DynamicGraph::FromEdges(edges, 64);
  std::mt19937 rng(11);
  std::shuffle(edges.begin(), edges.end(), rng);
  DynamicGraph b = DynamicGraph::FromEdges(edges, 64);
  EXPECT_EQ(a.Checksum(), b.Checksum());
}

TEST(GraphChecksumTest, AddThenRemoveRestoresTheFingerprint) {
  auto edges = GenerateErdosRenyi(64, 400, 7);
  DynamicGraph graph = DynamicGraph::FromEdges(edges, 64);
  const uint64_t before = graph.Checksum();
  graph.Apply(EdgeUpdate::Insert(1, 63));
  EXPECT_NE(graph.Checksum(), before)
      << "an edge change must move the fingerprint";
  graph.Apply(EdgeUpdate::Delete(1, 63));
  EXPECT_EQ(graph.Checksum(), before);
}

TEST(GraphChecksumTest, VertexCountIsPartOfTheIdentity) {
  auto edges = GenerateErdosRenyi(64, 400, 7);
  DynamicGraph a = DynamicGraph::FromEdges(edges, 64);
  DynamicGraph b = DynamicGraph::FromEdges(edges, 65);
  EXPECT_NE(a.Checksum(), b.Checksum())
      << "same edges over a different vertex universe must not collide";
}

// ----------------------------------------------------------- torn tails

/// Opens a store on `dir`, appends `batches` as the feed would, and
/// closes it cleanly.
void WriteLog(const std::string& dir,
              const std::vector<UpdateBatch>& batches) {
  storage::DurableStore store(dir, {});
  ASSERT_TRUE(store.Open().ok());
  for (const UpdateBatch& batch : batches) {
    ASSERT_TRUE(store.LogBatch(batch, 1).ok());
  }
}

int64_t FileSize(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? st.st_size : -1;
}

TEST(BatchLogTest, PartialTailRecordIsTruncatedOnOpen) {
  TempDir dir;
  StorageWorkload workload = MakeWorkload(2, 17);
  WriteLog(dir.path(), {workload.batches[0], workload.batches[1],
                        workload.batches[2]});

  // Tear the last record mid-payload, as a crash between write and
  // fsync would.
  const std::string log_path = dir.path() + "/LOG";
  const int64_t full = FileSize(log_path);
  ASSERT_GT(full, 8);
  ASSERT_EQ(::truncate(log_path.c_str(), full - 7), 0);

  storage::DurableStore store(dir.path(), {});
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.recovered_log_records(), 2u)
      << "the torn record is gone, the prefix survives";
  EXPECT_GT(store.log_truncated_bytes(), 0u);
  EXPECT_EQ(store.feed_seq(), 2u);
  // The truncated store must accept appends again at the right seq.
  ASSERT_TRUE(store.LogBatch(workload.batches[2], 1).ok());
  EXPECT_EQ(store.feed_seq(), 3u);
}

TEST(BatchLogTest, CorruptTailChecksumDropsOnlyTheTail) {
  TempDir dir;
  StorageWorkload workload = MakeWorkload(2, 19);
  WriteLog(dir.path(), {workload.batches[0], workload.batches[1]});

  // Flip the last byte of the file — inside the final record's
  // checksum. The scan must stop there and keep the first record.
  const std::string log_path = dir.path() + "/LOG";
  const int64_t full = FileSize(log_path);
  std::FILE* f = std::fopen(log_path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(full - 1), SEEK_SET), 0);
  const int last = std::fgetc(f);
  ASSERT_NE(last, EOF);
  ASSERT_EQ(std::fseek(f, static_cast<long>(full - 1), SEEK_SET), 0);
  std::fputc(last ^ 0xFF, f);
  std::fclose(f);

  storage::DurableStore store(dir.path(), {});
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.recovered_log_records(), 1u);
  EXPECT_GT(store.log_truncated_bytes(), 0u);
  EXPECT_EQ(store.feed_seq(), 1u);
}

// ------------------------------------------------------ recovery oracle

/// Runs a live durable backend through batches + source churn, kills it
/// (plain Stop — the WAL discipline makes clean and dirty exits look the
/// same to recovery), restarts from the same directory with a DECOY seed
/// source set, and requires the restarted stack to reproduce the exact
/// pre-crash sources, epochs, and (±2eps) estimates.
void RunRecoveryRoundTrip(uint64_t checkpoint_every) {
  TempDir dir;
  StorageWorkload workload = MakeWorkload(4, 23);
  storage::DurableStoreOptions durability;
  durability.checkpoint_every = checkpoint_every;

  struct SourceView {
    uint64_t epoch = 0;
    std::vector<ScoredVertex> topk;
  };
  std::vector<std::pair<VertexId, SourceView>> expected;
  uint64_t live_checksum = 0;
  {
    LocalShardBackend live(workload.initial, workload.num_vertices,
                           workload.hubs, TestIndexOptions(),
                           TestServiceOptions(), dir.path(), durability);
    live.Start();
    ASSERT_FALSE(live.recovered());
    for (size_t b = 0; b < workload.batches.size(); ++b) {
      ASSERT_EQ(live.Feed({.verb = Verb::kApplyUpdates,
                           .batch = workload.batches[b]})
                    .get()
                    .status,
                RequestStatus::kOk);
      if (b == 2) {
        // Mid-feed churn: both admin record types must replay.
        ASSERT_EQ(live.Feed({.verb = Verb::kAddSource, .source = 100})
                      .get()
                      .status,
                  RequestStatus::kOk);
        ASSERT_EQ(live.Feed({.verb = Verb::kRemoveSource,
                             .source = workload.hubs[0]})
                      .get()
                      .status,
                  RequestStatus::kOk);
      }
    }
    for (VertexId s : live.Sources()) {
      const QueryResponse top =
          live.Read({.verb = Verb::kTopK, .source = s, .k = 5}).get();
      ASSERT_EQ(top.status, RequestStatus::kOk);
      expected.emplace_back(s, SourceView{top.epoch, top.topk.entries});
    }
    live_checksum = live.GraphChecksum();
    live.Stop();
  }

  // The decoy sources prove the disk wins over the seed on recovery.
  LocalShardBackend restarted(workload.initial, workload.num_vertices,
                              {1, 2, 3}, TestIndexOptions(),
                              TestServiceOptions(), dir.path(), durability);
  restarted.Start();
  ASSERT_TRUE(restarted.recovered());
  EXPECT_EQ(restarted.GraphChecksum(), live_checksum);
  if (checkpoint_every > 0) {
    EXPECT_TRUE(restarted.store()->has_checkpoint());
  }
  ASSERT_EQ(restarted.NumSources(), expected.size());
  for (const auto& [s, view] : expected) {
    ASSERT_TRUE(restarted.HasSource(s)) << s;
    const QueryResponse top =
        restarted.Read({.verb = Verb::kTopK, .source = s, .k = 5}).get();
    ASSERT_EQ(top.status, RequestStatus::kOk);
    EXPECT_EQ(top.epoch, view.epoch)
        << "replay must reproduce the EXACT epoch of source " << s;
    ASSERT_EQ(top.topk.entries.size(), view.topk.size());
    for (size_t e = 0; e < view.topk.size(); ++e) {
      EXPECT_NEAR(top.topk.entries[e].score, view.topk[e].score,
                  2 * kEps + 1e-12)
          << "source " << s << " entry " << e;
    }
  }
  restarted.Stop();
}

TEST(DurableStoreTest, PureLogReplayReproducesExactState) {
  // checkpoint_every=0: only the baseline checkpoint at Start; every
  // batch and admin record replays.
  RunRecoveryRoundTrip(0);
}

TEST(DurableStoreTest, CheckpointCutsReplayAndStillMatches) {
  // A cadence checkpoint mid-feed: recovery restores the newest one and
  // replays only the log suffix past its offset.
  RunRecoveryRoundTrip(3);
}

TEST(DurableStoreTest, RecoveryAfterRecoveryIsStable) {
  // Two consecutive restarts from the same directory must agree — the
  // second recovery replays what the first one re-logged (nothing: a
  // recovered store appends at the recovered feed_seq).
  TempDir dir;
  StorageWorkload workload = MakeWorkload(3, 41);
  uint64_t epoch_after_first = 0;
  {
    LocalShardBackend live(workload.initial, workload.num_vertices,
                           workload.hubs, TestIndexOptions(),
                           TestServiceOptions(), dir.path(), {});
    live.Start();
    for (const UpdateBatch& batch : workload.batches) {
      ASSERT_EQ(live.Feed({.verb = Verb::kApplyUpdates, .batch = batch})
                    .get()
                    .status,
                RequestStatus::kOk);
    }
    live.Stop();
  }
  {
    LocalShardBackend once(workload.initial, workload.num_vertices, {},
                           TestIndexOptions(), TestServiceOptions(),
                           dir.path(), {});
    once.Start();
    ASSERT_TRUE(once.recovered());
    epoch_after_first = once.MaxEpoch();
    EXPECT_GT(epoch_after_first, 0u);
    once.Stop();
  }
  LocalShardBackend twice(workload.initial, workload.num_vertices, {},
                          TestIndexOptions(), TestServiceOptions(),
                          dir.path(), {});
  twice.Start();
  ASSERT_TRUE(twice.recovered());
  EXPECT_EQ(twice.MaxEpoch(), epoch_after_first);
  twice.Stop();
}

TEST(DurableStoreTest, ReplicaSeededMidFeedLogsFromItsEpoch) {
  // A replica cloned mid-feed starts at its donor's epoch: its empty data
  // directory logs from that position, and recovery lands on it.
  TempDir dir;
  StorageWorkload workload = MakeWorkload(2, 53);
  {
    LocalShardBackend clone(workload.initial, workload.num_vertices,
                            workload.hubs, TestIndexOptions(),
                            TestServiceOptions(), dir.path(), {},
                            /*epoch=*/5);
    clone.Start();
    ASSERT_FALSE(clone.recovered());
    EXPECT_EQ(clone.MaxEpoch(), 5u);
    ASSERT_EQ(clone.Feed({.verb = Verb::kApplyUpdates,
                          .batch = workload.batches[0]})
                  .get()
                  .status,
              RequestStatus::kOk);
    EXPECT_EQ(clone.MaxEpoch(), 6u);
    clone.Stop();
  }
  LocalShardBackend restarted(workload.initial, workload.num_vertices, {},
                              TestIndexOptions(), TestServiceOptions(),
                              dir.path(), {});
  restarted.Start();
  ASSERT_TRUE(restarted.recovered());
  EXPECT_EQ(restarted.MaxEpoch(), 6u);
  EXPECT_EQ(restarted.store()->feed_seq(), 5u);
  EXPECT_EQ(restarted.NumSources(), workload.hubs.size());
  restarted.Stop();
}

// ------------------------------------------------------------ spilling

TEST(DurableStoreTest, SpillRematerializeMatchesRecompute) {
  TempDir dir;
  StorageWorkload workload = MakeWorkload(4, 37);
  DynamicGraph graph =
      DynamicGraph::FromEdges(workload.initial, workload.num_vertices);
  storage::DurableStore store(dir.path(), {});
  ASSERT_TRUE(store.Open().ok());
  PprIndex index(&graph, workload.hubs, TestIndexOptions());
  index.SetSpillHooks(store.MakeSpillHooks());
  index.Initialize();

  // Mark everyone but the victim hot, then evict exactly the victim:
  // its full (p, r) goes to disk at the current feed position.
  const VertexId victim = workload.hubs[0];
  for (size_t i = 1; i < workload.hubs.size(); ++i) {
    (void)index.QueryVertexForSource(workload.hubs[i], 0);
  }
  ASSERT_EQ(index.EvictColdSources(workload.hubs.size() - 1), 1u);
  ASSERT_FALSE(index.IsMaterializedSource(victim));
  EXPECT_EQ(store.spills_written(), 1);

  // The feed moves on while the victim is cold — these are the batches
  // catch-up must re-solve at the endpoints of.
  for (const UpdateBatch& batch : workload.batches) {
    ASSERT_TRUE(store.LogBatch(batch, 1).ok());
    index.ApplyBatch(batch, 1);
  }

  ASSERT_TRUE(index.MaterializeSource(victim));
  EXPECT_EQ(store.spill_restores(), 1)
      << "the restore must come from the spill, not a recompute";

  // Oracle: a from-scratch push over the final graph.
  DynamicGraph oracle_graph =
      DynamicGraph::FromEdges(graph.ToEdgeList(), graph.NumVertices());
  PprIndex oracle(&oracle_graph, {victim}, TestIndexOptions());
  oracle.Initialize();
  const GuaranteedTopK fresh = oracle.TopKWithGuarantee(0, 10);
  for (const ScoredVertex& entry : fresh.entries) {
    const SourceReadResult got = index.QueryVertexForSource(victim, entry.id);
    ASSERT_EQ(got.status, SourceReadResult::Status::kOk);
    EXPECT_NEAR(got.estimate.value, entry.score, 2 * kEps + 1e-12)
        << "vertex " << entry.id;
  }
}

TEST(DurableStoreTest, StaleSpillFallsBackToRecompute) {
  TempDir dir;
  StorageWorkload workload = MakeWorkload(3, 43);
  DynamicGraph graph =
      DynamicGraph::FromEdges(workload.initial, workload.num_vertices);
  storage::DurableStoreOptions durability;
  durability.max_catchup_records = 2;  // history barely covers anything
  storage::DurableStore store(dir.path(), durability);
  ASSERT_TRUE(store.Open().ok());
  PprIndex index(&graph, workload.hubs, TestIndexOptions());
  index.SetSpillHooks(store.MakeSpillHooks());
  index.Initialize();

  const VertexId victim = workload.hubs[0];
  for (size_t i = 1; i < workload.hubs.size(); ++i) {
    (void)index.QueryVertexForSource(workload.hubs[i], 0);
  }
  ASSERT_EQ(index.EvictColdSources(workload.hubs.size() - 1), 1u);

  // More batches than the history window: the spill's catch-up records
  // have been dropped by the time the victim comes back.
  for (const UpdateBatch& batch : workload.batches) {
    ASSERT_TRUE(store.LogBatch(batch, 1).ok());
    index.ApplyBatch(batch, 1);
  }

  ASSERT_TRUE(index.MaterializeSource(victim))
      << "a stale spill must degrade to a recompute, not fail";
  EXPECT_EQ(store.spill_restores(), 0);
  // Degraded or not, the answers carry the same contract.
  const SourceReadResult self = index.QueryVertexForSource(victim, victim);
  ASSERT_EQ(self.status, SourceReadResult::Status::kOk);
  EXPECT_GT(self.estimate.value, 0.0);
}

TEST(DurableStoreTest, TornSpillFileIsRefusedNotTrusted) {
  TempDir dir;
  StorageWorkload workload = MakeWorkload(3, 47);
  DynamicGraph graph =
      DynamicGraph::FromEdges(workload.initial, workload.num_vertices);
  storage::DurableStore store(dir.path(), {});
  ASSERT_TRUE(store.Open().ok());
  PprIndex index(&graph, workload.hubs, TestIndexOptions());
  index.SetSpillHooks(store.MakeSpillHooks());
  index.Initialize();

  const VertexId victim = workload.hubs[0];
  for (size_t i = 1; i < workload.hubs.size(); ++i) {
    (void)index.QueryVertexForSource(workload.hubs[i], 0);
  }
  ASSERT_EQ(index.EvictColdSources(workload.hubs.size() - 1), 1u);

  const std::string spill_path =
      dir.path() + "/spill-" + std::to_string(victim);
  const int64_t full = FileSize(spill_path);
  ASSERT_GT(full, 1);
  ASSERT_EQ(::truncate(spill_path.c_str(), full - 1), 0);

  ASSERT_TRUE(index.MaterializeSource(victim))
      << "a corrupt spill must degrade to a recompute, not fail";
  EXPECT_EQ(store.spill_restores(), 0);
}

// -------------------------------------------------------- checkpoint GC

TEST(DurableStoreTest, CheckpointGcReclaimsSupersededFiles) {
  TempDir dir;
  StorageWorkload workload = MakeWorkload(3, 53);
  DynamicGraph graph =
      DynamicGraph::FromEdges(workload.initial, workload.num_vertices);
  storage::DurableStore store(dir.path(), {});
  ASSERT_TRUE(store.Open().ok());
  PprIndex index(&graph, workload.hubs, TestIndexOptions());
  index.SetSpillHooks(store.MakeSpillHooks());
  index.Initialize();

  ASSERT_TRUE(store.WriteCheckpoint(index).ok());
  const std::string first_gen = dir.path() + "/checkpoint-0";
  ASSERT_EQ(::access(first_gen.c_str(), F_OK), 0);

  // Two spills: the victim's source then leaves the index (its spill is
  // an orphan), the sleeper stays registered (its spill is live).
  const VertexId victim = workload.hubs[0];
  const VertexId sleeper = workload.hubs[1];
  (void)index.QueryVertexForSource(workload.hubs[2], 0);
  ASSERT_EQ(index.EvictColdSources(1), 2u);
  EXPECT_EQ(store.spills_written(), 2);
  ASSERT_TRUE(index.RemoveSource(victim));

  // Advance the feed so the next generation gets a distinct file name.
  ASSERT_TRUE(store.LogBatch(workload.batches[0], 1).ok());
  index.ApplyBatch(workload.batches[0], 1);

  ASSERT_TRUE(store.WriteCheckpoint(index).ok());
  EXPECT_EQ(store.checkpoints_deleted(), 1u)
      << "the superseded generation must be unlinked";
  EXPECT_NE(::access(first_gen.c_str(), F_OK), 0);
  EXPECT_EQ(::access((dir.path() + "/checkpoint-1").c_str(), F_OK), 0)
      << "the generation the manifest points at must survive";
  EXPECT_EQ(store.spills_deleted(), 1u);
  EXPECT_NE(
      ::access((dir.path() + "/spill-" + std::to_string(victim)).c_str(),
               F_OK),
      0)
      << "a removed source's spill is an orphan";
  EXPECT_EQ(
      ::access((dir.path() + "/spill-" + std::to_string(sleeper)).c_str(),
               F_OK),
      0)
      << "a registered-but-evicted source still needs its spill";

  // The surviving spill is not just present — it still rematerializes.
  ASSERT_TRUE(index.MaterializeSource(sleeper));
  EXPECT_EQ(store.spill_restores(), 1);
}

}  // namespace
}  // namespace dppr
