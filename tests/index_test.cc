// PprIndex tests: every source oracle-accurate through interleaved
// insert/delete batches, exact agreement with independent per-source
// maintenance, push-mode equivalence, engine-pool sizing, snapshot
// publish semantics, and queries running concurrently with ApplyBatch.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/metrics.h"
#include "analysis/power_iteration.h"
#include "core/dynamic_ppr.h"
#include "gen/generators.h"
#include "graph/dynamic_graph.h"
#include "graph/graph_stats.h"
#include "index/ppr_index.h"
#include "stream/edge_stream.h"
#include "stream/sliding_window.h"
#include "util/parallel.h"

namespace dppr {
namespace {

// Drives `slides` sliding-window batches (interleaved inserts + deletes)
// through the index; returns the batches so callers can replay them.
std::vector<UpdateBatch> RecordWindowBatches(EdgeStream* stream,
                                             double window_ratio,
                                             double batch_ratio, int slides,
                                             std::vector<Edge>* initial) {
  SlidingWindow window(stream, window_ratio);
  *initial = window.InitialEdges();
  const EdgeCount k = window.BatchForRatio(batch_ratio);
  std::vector<UpdateBatch> batches;
  for (int s = 0; s < slides && window.CanSlide(k); ++s) {
    batches.push_back(window.NextBatch(k));
  }
  return batches;
}

// --------------------------------------------------------------- accuracy

TEST(PprIndexTest, EverySourceMatchesOracleAfterInterleavedBatches) {
  auto edges = GenerateRmat({.scale = 8, .avg_degree = 8, .seed = 17});
  EdgeStream stream = EdgeStream::RandomPermutation(std::move(edges), 18);
  std::vector<Edge> initial;
  auto batches = RecordWindowBatches(&stream, 0.2, 0.01, 12, &initial);
  ASSERT_FALSE(batches.empty());

  DynamicGraph graph =
      DynamicGraph::FromEdges(initial, stream.NumVertices());
  auto hubs = TopOutDegreeVertices(graph, 8);
  PprOptions options;
  options.eps = 1e-6;
  PprIndex index(&graph, hubs, options);
  index.Initialize();
  for (const UpdateBatch& batch : batches) index.ApplyBatch(batch);

  PowerIterationOptions oracle_opt;
  for (size_t h = 0; h < index.NumSources(); ++h) {
    auto truth = PowerIterationPpr(graph, index.SourceVertex(h), oracle_opt);
    EXPECT_LE(MaxAbsError(index.Source(h).Estimates(), truth),
              options.eps * 1.0001)
        << "source " << h;
  }
}

TEST(PprIndexTest, SequentialVariantMatchesIndependentMaintenanceExactly) {
  // With the deterministic sequential push, journal replay must reproduce
  // bit-for-bit what per-source DynamicPpr::ApplyBatch computes: the
  // journal hands every source the same post-update degrees it would have
  // read from the graph interleaving. Restore coalescing is off: a direct
  // Eq. 2 solve is mathematically identical to replay but rounds
  // differently, and this test's claim is exact replay equivalence.
  auto edges = GenerateErdosRenyi(128, 1024, 3);
  EdgeStream stream = EdgeStream::RandomPermutation(std::move(edges), 4);
  std::vector<Edge> initial;
  auto batches = RecordWindowBatches(&stream, 0.5, 0.02, 8, &initial);
  ASSERT_FALSE(batches.empty());

  PprOptions options;
  options.eps = 1e-6;
  options.variant = PushVariant::kSequential;
  const std::vector<VertexId> sources = {0, 1, 2};

  DynamicGraph index_graph = DynamicGraph::FromEdges(initial, 128);
  IndexOptions exact_options;
  exact_options.ppr = options;
  exact_options.coalesce_restore = false;
  PprIndex index(&index_graph, sources, exact_options);
  index.Initialize();

  std::vector<DynamicGraph> solo_graphs;
  std::vector<std::unique_ptr<DynamicPpr>> solo;
  for (size_t i = 0; i < sources.size(); ++i) {
    solo_graphs.push_back(DynamicGraph::FromEdges(initial, 128));
  }
  for (size_t i = 0; i < sources.size(); ++i) {
    solo.push_back(std::make_unique<DynamicPpr>(&solo_graphs[i], sources[i],
                                                options));
    solo.back()->Initialize();
  }

  for (const UpdateBatch& batch : batches) {
    index.ApplyBatch(batch);
    for (auto& ppr : solo) ppr->ApplyBatch(batch);
  }
  for (size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(index.Source(i).Estimates(), solo[i]->Estimates())
        << "source " << i;
    EXPECT_EQ(index.Source(i).Residuals(), solo[i]->Residuals())
        << "source " << i;
  }
  // The sequential variant needs no engine state at all.
  EXPECT_EQ(index.NumPooledEngines(), 0);
}

TEST(PprIndexTest, PushModesAgreeWithEachOther) {
  auto edges = GenerateRmat({.scale = 7, .avg_degree = 6, .seed = 29});
  EdgeStream stream = EdgeStream::RandomPermutation(std::move(edges), 30);
  std::vector<Edge> initial;
  auto batches = RecordWindowBatches(&stream, 0.3, 0.02, 6, &initial);
  ASSERT_FALSE(batches.empty());

  auto run = [&](IndexPushMode mode) {
    DynamicGraph graph =
        DynamicGraph::FromEdges(initial, stream.NumVertices());
    auto hubs = TopOutDegreeVertices(graph, 4);
    IndexOptions options;
    options.ppr.eps = 1e-6;
    options.push_mode = mode;
    PprIndex index(&graph, hubs, options);
    index.Initialize();
    for (const UpdateBatch& batch : batches) index.ApplyBatch(batch);
    std::vector<std::vector<double>> estimates;
    for (size_t h = 0; h < index.NumSources(); ++h) {
      estimates.push_back(index.Source(h).Estimates());
    }
    return estimates;
  };

  auto across = run(IndexPushMode::kAcrossSources);
  auto intra = run(IndexPushMode::kIntraSource);
  ASSERT_EQ(across.size(), intra.size());
  for (size_t h = 0; h < across.size(); ++h) {
    EXPECT_LE(MaxAbsError(across[h], intra[h]), 2e-6) << "source " << h;
  }
}

TEST(PprIndexTest, AcrossSourcePushCorrectUnderOversubscribedThreads) {
  // Forces the across-source schedule with a team larger than the
  // physical core count, so the work-stealing region, per-worker engine
  // leases, and concurrent per-slot publishes all run with genuinely
  // concurrent threads — then validates every source against the oracle.
  ScopedNumThreads guard(4);
  auto edges = GenerateRmat({.scale = 7, .avg_degree = 6, .seed = 41});
  EdgeStream stream = EdgeStream::RandomPermutation(std::move(edges), 42);
  std::vector<Edge> initial;
  auto batches = RecordWindowBatches(&stream, 0.3, 0.02, 8, &initial);
  ASSERT_FALSE(batches.empty());

  DynamicGraph graph =
      DynamicGraph::FromEdges(initial, stream.NumVertices());
  auto hubs = TopOutDegreeVertices(graph, 8);
  IndexOptions options;
  options.ppr.eps = 1e-6;
  options.push_mode = IndexPushMode::kAcrossSources;
  PprIndex index(&graph, hubs, options);
  EXPECT_GE(index.NumPooledEngines(), 2);
  index.Initialize();
  for (const UpdateBatch& batch : batches) index.ApplyBatch(batch);
  EXPECT_TRUE(index.last_batch_stats().across_sources);

  PowerIterationOptions oracle_opt;
  for (size_t h = 0; h < index.NumSources(); ++h) {
    auto truth = PowerIterationPpr(graph, index.SourceVertex(h), oracle_opt);
    EXPECT_LE(MaxAbsError(index.Source(h).Estimates(), truth),
              options.ppr.eps * 1.0001)
        << "source " << h;
    EXPECT_EQ(index.Snapshot(h)->estimates, index.Source(h).Estimates());
  }
}

TEST(PprIndexTest, HandlesVerticesBornMidStream) {
  DynamicGraph graph(8);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  graph.AddEdge(2, 0);
  PprOptions options;
  options.eps = 1e-7;
  PprIndex index(&graph, {0, 2}, options);
  index.Initialize();

  // Vertex 100 does not exist yet: snapshot reads must answer 0.
  EXPECT_DOUBLE_EQ(index.QueryVertex(0, 100).value, 0.0);

  UpdateBatch batch = {EdgeUpdate::Insert(100, 0), EdgeUpdate::Insert(0, 100),
                       EdgeUpdate::Delete(1, 2)};
  index.ApplyBatch(batch);
  ASSERT_EQ(graph.NumVertices(), 101);

  PowerIterationOptions oracle_opt;
  for (size_t h = 0; h < index.NumSources(); ++h) {
    auto truth = PowerIterationPpr(graph, index.SourceVertex(h), oracle_opt);
    EXPECT_LE(MaxAbsError(index.Source(h).Estimates(), truth),
              options.eps * 1.0001);
    // Snapshots grew with the graph.
    EXPECT_EQ(index.Snapshot(h)->estimates.size(),
              static_cast<size_t>(graph.NumVertices()));
  }
}

// ------------------------------------------------------------ engine pool

TEST(PprIndexTest, PoolSizeIsMinOfSourcesAndConfiguredSize) {
  DynamicGraph graph = DynamicGraph::FromEdges(
      GenerateErdosRenyi(64, 512, 7), 64);
  IndexOptions options;
  options.ppr.eps = 1e-5;

  // K below any pool bound: one engine per source at most.
  PprIndex small(&graph, {0, 1}, options);
  EXPECT_LE(small.NumPooledEngines(), 2);
  EXPECT_GE(small.NumPooledEngines(), 1);

  // Explicit pool bound: K = 16 sources share 3 engines.
  options.engine_pool_size = 3;
  std::vector<VertexId> many;
  for (VertexId v = 0; v < 16; ++v) many.push_back(v);
  PprIndex pooled(&graph, many, options);
  EXPECT_EQ(pooled.NumPooledEngines(), 3);

  pooled.Initialize();
  UpdateBatch batch = {EdgeUpdate::Insert(0, 5), EdgeUpdate::Insert(7, 3)};
  pooled.ApplyBatch(batch);
  EXPECT_GT(pooled.ApproxScratchBytes(), 0u);
}

TEST(PprIndexTest, ScratchGrowsWithPoolNotWithSources) {
  // Same graph, same pool bound, 8x the sources: scratch stays in the
  // same ballpark instead of scaling 8x (per-source engines would).
  auto edges = GenerateErdosRenyi(256, 2048, 11);
  auto run = [&](VertexId num_sources) {
    DynamicGraph graph = DynamicGraph::FromEdges(edges, 256);
    IndexOptions options;
    options.ppr.eps = 1e-5;
    options.engine_pool_size = 2;
    std::vector<VertexId> sources;
    for (VertexId v = 0; v < num_sources; ++v) sources.push_back(v);
    PprIndex index(&graph, sources, options);
    index.Initialize();
    UpdateBatch batch = {EdgeUpdate::Insert(0, 9), EdgeUpdate::Insert(3, 1)};
    index.ApplyBatch(batch);
    return index.ApproxScratchBytes();
  };
  const size_t bytes_8 = run(8);
  const size_t bytes_64 = run(64);
  EXPECT_LT(bytes_64, bytes_8 * 3)
      << "scratch scaled with K: " << bytes_8 << " -> " << bytes_64;
}

// -------------------------------------------------- stats & wall clock

TEST(PprIndexTest, BatchStatsSumCountersButReportWallClock) {
  DynamicGraph graph = DynamicGraph::FromEdges(
      GenerateErdosRenyi(128, 1024, 13), 128);
  PprOptions options;
  options.eps = 1e-6;
  const size_t num_sources = 4;
  PprIndex index(&graph, {0, 1, 2, 3}, options);
  index.Initialize();

  UpdateBatch batch = {EdgeUpdate::Insert(0, 7), EdgeUpdate::Insert(9, 2),
                       EdgeUpdate::Delete(0, 7)};
  index.ApplyBatch(batch);

  const IndexBatchStats& stats = index.last_batch_stats();
  // Counters are summed across sources: every source restored every
  // update of the batch exactly once.
  EXPECT_EQ(stats.sources_total.counters.restore_ops,
            static_cast<int64_t>(num_sources * batch.size()));
  EXPECT_EQ(stats.sources_pushed, static_cast<int>(num_sources));
  // Restore work is credited per source (summed CPU time, as documented).
  EXPECT_GT(stats.sources_total.restore_seconds, 0.0);
  // Wall clock is one elapsed measurement of the call, not a per-source
  // sum; it covers the restore and push phases it brackets.
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GE(stats.wall_seconds,
            stats.restore_wall_seconds + stats.push_wall_seconds - 1e-9);
  EXPECT_EQ(index.LastBatchSeconds(), stats.wall_seconds);
}

// ------------------------------------------------------------- snapshots

TEST(PprIndexTest, SnapshotEpochAdvancesPerMaintenanceCall) {
  DynamicGraph graph = DynamicGraph::FromEdges(
      GenerateErdosRenyi(64, 512, 19), 64);
  PprOptions options;
  options.eps = 1e-6;
  PprIndex index(&graph, {0, 1}, options);
  EXPECT_EQ(index.Epoch(0), 0u);
  EXPECT_TRUE(index.Snapshot(0)->estimates.empty());

  index.Initialize();
  EXPECT_EQ(index.Epoch(0), 1u);
  EXPECT_EQ(index.Snapshot(0)->estimates, index.Source(0).Estimates());

  UpdateBatch batch = {EdgeUpdate::Insert(5, 6)};
  index.ApplyBatch(batch);
  EXPECT_EQ(index.Epoch(0), 2u);
  EXPECT_EQ(index.Epoch(1), 2u);
  EXPECT_EQ(index.Snapshot(1)->epoch, 2u);
  EXPECT_EQ(index.Snapshot(1)->estimates, index.Source(1).Estimates());
}

TEST(PprIndexTest, HeldSnapshotSurvivesLaterPublishes) {
  DynamicGraph graph = DynamicGraph::FromEdges(
      GenerateErdosRenyi(64, 512, 23), 64);
  PprOptions options;
  options.eps = 1e-6;
  PprIndex index(&graph, {0}, options);
  index.Initialize();

  auto held = index.Snapshot(0);
  const std::vector<double> copy = held->estimates;
  for (int i = 0; i < 5; ++i) {
    UpdateBatch batch = {EdgeUpdate::Insert(i, i + 1)};
    index.ApplyBatch(batch);
  }
  // The old snapshot is immutable no matter how many publishes happened.
  EXPECT_EQ(held->epoch, 1u);
  EXPECT_EQ(held->estimates, copy);
  EXPECT_EQ(index.Epoch(0), 6u);
}

TEST(PprIndexTest, ConcurrentQueriesSeeEpochConsistentSnapshots) {
  // A reader hammers the snapshot API while the writer applies batches.
  // Every snapshot the reader observes must be complete and epoch
  // consistent: its content equals exactly what the writer published for
  // that epoch — never a torn mix of two batches.
  auto edges = GenerateErdosRenyi(128, 1024, 31);
  EdgeStream stream = EdgeStream::RandomPermutation(std::move(edges), 32);
  std::vector<Edge> initial;
  auto batches = RecordWindowBatches(&stream, 0.5, 0.01, 40, &initial);
  ASSERT_GE(batches.size(), 10u);

  DynamicGraph graph = DynamicGraph::FromEdges(initial, 128);
  PprOptions options;
  options.eps = 1e-5;
  PprIndex index(&graph, {0}, options);
  index.Initialize();

  // expected[e] = the vector published at epoch e (filled by the writer).
  std::vector<std::vector<double>> expected(batches.size() + 2);
  expected[1] = index.Snapshot(0)->estimates;

  std::atomic<bool> done{false};
  std::vector<std::shared_ptr<const IndexSnapshot>> seen;
  bool reader_monotonic = true;
  bool reader_values_sane = true;
  int64_t reads = 0;
  std::thread reader([&] {
    uint64_t last_epoch = 0;
    while (!done.load(std::memory_order_acquire)) {
      auto snap = index.Snapshot(0);
      ++reads;
      if (snap->epoch < last_epoch) reader_monotonic = false;
      if (snap->epoch != last_epoch) {
        last_epoch = snap->epoch;
        seen.push_back(std::move(snap));  // keep one snapshot per epoch
      }
      // Point queries ride the same snapshot path and must always return
      // a sane probability-ish value, mid-batch included.
      PointEstimate est = index.QueryVertex(0, 0);
      if (est.value < 0.0 || est.value > 1.0 + 1e-6) {
        reader_values_sane = false;
        break;
      }
    }
  });

  for (size_t t = 0; t < batches.size(); ++t) {
    index.ApplyBatch(batches[t]);
    expected[t + 2] = index.Snapshot(0)->estimates;
  }
  done.store(true, std::memory_order_release);
  reader.join();

  ASSERT_FALSE(seen.empty());
  EXPECT_TRUE(reader_monotonic) << "snapshot epochs moved backwards";
  EXPECT_TRUE(reader_values_sane) << "point query returned a torn value";
  EXPECT_GT(reads, 0);
  for (size_t i = 0; i < seen.size(); ++i) {
    const auto& snap = seen[i];
    ASSERT_GE(snap->epoch, 1u);
    ASSERT_LT(snap->epoch, expected.size());
    // The snapshot content is exactly the published vector of its epoch.
    EXPECT_EQ(snap->estimates, expected[snap->epoch])
        << "torn or stale snapshot at reader step " << i;
  }
}

// ------------------------------------------------------- dynamic sources

TEST(PprIndexDynamicTest, AddSourceBitMatchesFreshIndex) {
  // An incrementally added source is a from-scratch push on the current
  // graph — with the deterministic sequential variant it must bit-match a
  // fresh single-source PprIndex built over an identically evolved graph,
  // both right after AddSource and after further shared batches.
  auto edges = GenerateErdosRenyi(128, 1024, 41);
  EdgeStream stream = EdgeStream::RandomPermutation(std::move(edges), 42);
  std::vector<Edge> initial;
  auto batches = RecordWindowBatches(&stream, 0.5, 0.02, 8, &initial);
  ASSERT_GE(batches.size(), 4u);

  PprOptions options;
  options.eps = 1e-6;
  options.variant = PushVariant::kSequential;

  DynamicGraph graph = DynamicGraph::FromEdges(initial, 128);
  PprIndex index(&graph, {0, 1}, options);
  index.Initialize();
  const size_t half = batches.size() / 2;
  for (size_t i = 0; i < half; ++i) index.ApplyBatch(batches[i]);

  ASSERT_FALSE(index.HasSource(5));
  ASSERT_TRUE(index.AddSource(5));
  EXPECT_FALSE(index.AddSource(5)) << "duplicate AddSource must be refused";
  EXPECT_FALSE(index.AddSource(100000)) << "non-vertex must be refused";
  ASSERT_EQ(index.NumSources(), 3u);
  EXPECT_EQ(index.SnapshotForSource(5)->epoch, half + 1);

  // Evolve a second graph identically and build the reference index on it.
  DynamicGraph ref_graph = DynamicGraph::FromEdges(initial, 128);
  for (size_t i = 0; i < half; ++i) {
    for (const EdgeUpdate& update : batches[i]) ref_graph.Apply(update);
  }
  PprIndex fresh(&ref_graph, {5}, options);
  fresh.Initialize();
  EXPECT_EQ(index.Source(2).Estimates(), fresh.Source(0).Estimates());
  EXPECT_EQ(index.Source(2).Residuals(), fresh.Source(0).Residuals());

  // The newcomer is maintained like any other source from now on.
  for (size_t i = half; i < batches.size(); ++i) {
    index.ApplyBatch(batches[i]);
    fresh.ApplyBatch(batches[i]);
  }
  EXPECT_EQ(index.Source(2).Estimates(), fresh.Source(0).Estimates());
  EXPECT_EQ(index.Source(2).Residuals(), fresh.Source(0).Residuals());

  PowerIterationOptions oracle_opt;
  auto truth = PowerIterationPpr(graph, 5, oracle_opt);
  EXPECT_LE(MaxAbsError(index.Source(2).Estimates(), truth),
            options.eps * 1.0001);
}

TEST(PprIndexDynamicTest, RemoveThenReAddRoundTrips) {
  DynamicGraph graph = DynamicGraph::FromEdges(
      GenerateErdosRenyi(64, 512, 7), 64);
  PprOptions options;
  options.eps = 1e-6;
  options.variant = PushVariant::kSequential;
  PprIndex index(&graph, {0, 1, 2}, options);
  index.Initialize();

  const std::vector<double> before = index.Source(2).Estimates();
  const std::vector<double> other = index.Source(1).Estimates();

  ASSERT_TRUE(index.RemoveSource(2));
  EXPECT_FALSE(index.RemoveSource(2)) << "double remove must be refused";
  EXPECT_FALSE(index.HasSource(2));
  ASSERT_EQ(index.NumSources(), 2u);
  EXPECT_EQ(index.QueryVertexForSource(2, 0).status,
            SourceReadResult::Status::kUnknownSource);
  // Remaining sources keep serving through the compacted table.
  EXPECT_EQ(index.Source(1).Estimates(), other);
  EXPECT_EQ(index.SnapshotForSource(1)->estimates, other);

  // Re-adding on the unchanged graph reproduces the exact state.
  ASSERT_TRUE(index.AddSource(2));
  EXPECT_TRUE(index.HasSource(2));
  EXPECT_EQ(index.Source(2).Estimates(), before);
  EXPECT_EQ(index.SnapshotForSource(2)->epoch, 1u)
      << "a re-added source is a fresh slot: epochs restart at 1";
}

TEST(PprIndexDynamicTest, ExportImportMovesSourceWithEpochIntact) {
  // The migration primitive of the sharded router: a source lifted out of
  // one index and installed into another (over an identical graph) keeps
  // its estimates bit-for-bit and continues its epoch sequence.
  auto edges = GenerateErdosRenyi(64, 512, 21);
  DynamicGraph g1 = DynamicGraph::FromEdges(edges, 64);
  DynamicGraph g2 = DynamicGraph::FromEdges(edges, 64);
  PprOptions options;
  options.eps = 1e-6;
  PprIndex from(&g1, {0, 1, 2}, options);
  PprIndex to(&g2, {5}, options);
  from.Initialize();
  to.Initialize();

  // Advance source 1 past epoch 1 so continuity is observable.
  const UpdateBatch batch = {EdgeUpdate::Insert(9, 1),
                             EdgeUpdate::Insert(1, 9)};
  from.ApplyBatch(batch);
  to.ApplyBatch(batch);  // replicas consume the same feed
  const std::vector<double> before = from.SnapshotForSource(1)->estimates;
  const uint64_t epoch_before = from.SnapshotForSource(1)->epoch;
  ASSERT_EQ(epoch_before, 2u);

  ExportedSource exported;
  ASSERT_TRUE(from.ExportSource(1, &exported));
  EXPECT_EQ(exported.source, 1);
  EXPECT_EQ(exported.epoch, epoch_before);
  EXPECT_TRUE(exported.materialized);
  EXPECT_FALSE(from.HasSource(1));
  EXPECT_FALSE(from.ExportSource(1, &exported)) << "already exported";

  ASSERT_TRUE(to.ImportSource(std::move(exported)));
  EXPECT_TRUE(to.HasSource(1));
  auto snap = to.SnapshotForSource(1);
  EXPECT_EQ(snap->epoch, epoch_before)
      << "an imported source re-publishes at exactly the exported epoch";
  EXPECT_EQ(snap->estimates, before);

  // Maintenance continues seamlessly on the new index.
  const UpdateBatch more = {EdgeUpdate::Delete(9, 1)};
  to.ApplyBatch(more);
  EXPECT_EQ(to.SnapshotForSource(1)->epoch, epoch_before + 1);
  auto truth = PowerIterationPpr(g2, 1, PowerIterationOptions{});
  EXPECT_LE(MaxAbsError(to.SnapshotForSource(1)->estimates, truth),
            options.eps * 1.0001);
}

TEST(PprIndexDynamicTest, ExportImportOfEvictedSourceStaysEvicted) {
  auto edges = GenerateErdosRenyi(64, 512, 22);
  DynamicGraph g1 = DynamicGraph::FromEdges(edges, 64);
  DynamicGraph g2 = DynamicGraph::FromEdges(edges, 64);
  IndexOptions options;
  options.ppr.eps = 1e-6;
  PprIndex from(&g1, {0, 1, 2}, options);
  PprIndex to(&g2, {}, options);
  from.Initialize();
  to.Initialize();
  ASSERT_EQ(from.EvictColdSources(2), 1u);
  // Table order ties break toward earlier slots, so source 0 is evicted.
  ASSERT_FALSE(from.IsMaterializedSource(0));

  ExportedSource exported;
  ASSERT_TRUE(from.ExportSource(0, &exported));
  EXPECT_FALSE(exported.materialized);
  EXPECT_EQ(exported.epoch, 1u);

  ASSERT_TRUE(to.ImportSource(std::move(exported)));
  EXPECT_TRUE(to.HasSource(0));
  EXPECT_FALSE(to.IsMaterializedSource(0));
  EXPECT_EQ(to.QueryVertexForSource(0, 0).status,
            SourceReadResult::Status::kNotMaterialized);
  // On-demand materialization publishes at the index's epoch.
  ASSERT_TRUE(to.MaterializeSource(0));
  EXPECT_EQ(to.SnapshotForSource(0)->epoch, 1u);
  auto truth = PowerIterationPpr(g2, 0, PowerIterationOptions{});
  EXPECT_LE(MaxAbsError(to.SnapshotForSource(0)->estimates, truth),
            options.ppr.eps * 1.0001);
}

TEST(PprIndexDynamicTest, ImportRejectsDuplicatesAndInvalidVertices) {
  DynamicGraph graph = DynamicGraph::FromEdges(
      GenerateErdosRenyi(32, 128, 23), 32);
  PprIndex index(&graph, {3}, PprOptions{});
  index.Initialize();
  ExportedSource dup;
  dup.source = 3;
  dup.epoch = 1;
  dup.materialized = false;
  EXPECT_FALSE(index.ImportSource(std::move(dup)));
  ExportedSource invalid;
  invalid.source = 1000;  // not a vertex
  invalid.epoch = 1;
  invalid.materialized = false;
  EXPECT_FALSE(index.ImportSource(std::move(invalid)));
  EXPECT_EQ(index.NumSources(), 1u);
}

TEST(PprIndexDynamicTest, LruEvictionAndOnDemandMaterialization) {
  DynamicGraph graph = DynamicGraph::FromEdges(
      GenerateErdosRenyi(96, 768, 11), 96);
  IndexOptions options;
  options.ppr.eps = 1e-6;
  options.max_materialized_sources = 2;
  PprIndex index(&graph, {0, 1, 2, 3}, options);
  index.Initialize();

  // Under the cap only the first two sources materialize.
  EXPECT_EQ(index.NumMaterializedSources(), 2u);
  EXPECT_TRUE(index.IsMaterializedSource(0));
  EXPECT_TRUE(index.IsMaterializedSource(1));
  EXPECT_FALSE(index.IsMaterializedSource(2));
  auto miss = index.QueryVertexForSource(2, 0);
  EXPECT_EQ(miss.status, SourceReadResult::Status::kNotMaterialized);
  EXPECT_EQ(miss.epoch, 0u);

  // Warm source 1, then materialize 2: the cold source 0 is the victim.
  (void)index.QueryVertexForSource(1, 5);
  ASSERT_TRUE(index.MaterializeSource(2));
  EXPECT_EQ(index.NumMaterializedSources(), 2u);
  EXPECT_FALSE(index.IsMaterializedSource(0));
  EXPECT_TRUE(index.IsMaterializedSource(1));
  EXPECT_TRUE(index.IsMaterializedSource(2));

  // The rematerialized source answers correctly at its next epoch.
  PowerIterationOptions oracle_opt;
  auto truth = PowerIterationPpr(graph, 2, oracle_opt);
  auto hit = index.QueryVertexForSource(2, 5);
  ASSERT_EQ(hit.status, SourceReadResult::Status::kOk);
  EXPECT_NEAR(hit.estimate.value, truth[5], options.ppr.eps * 1.0001);

  // Maintenance skips evicted sources and says so.
  UpdateBatch batch = {EdgeUpdate::Insert(4, 9), EdgeUpdate::Insert(7, 3)};
  index.ApplyBatch(batch);
  EXPECT_EQ(index.last_batch_stats().sources_pushed, 2);
  EXPECT_EQ(index.last_batch_stats().sources_skipped, 2);

  // An eviction freezes the epoch; re-materialization publishes at the
  // index's epoch (2 here: Initialize + one batch).
  ASSERT_TRUE(index.MaterializeSource(0));
  EXPECT_EQ(index.SnapshotForSource(0)->epoch, 2u);
  auto truth0 = PowerIterationPpr(graph, 0, oracle_opt);
  EXPECT_LE(MaxAbsError(index.SnapshotForSource(0)->estimates, truth0),
            options.ppr.eps * 1.0001)
      << "re-materialization must compute against the CURRENT graph";
}

TEST(PprIndexDynamicTest, ConcurrentReadsDuringEvictionStaySane) {
  // Readers hammer the by-source snapshot API while the maintainer
  // evicts, re-materializes, adds, removes, and applies batches. Every
  // response a reader sees must be a complete single-epoch snapshot:
  // status coherent, value within the mathematically possible range, and
  // epochs never moving backwards per source (evictions keep the epoch).
  DynamicGraph graph = DynamicGraph::FromEdges(
      GenerateErdosRenyi(128, 1024, 13), 128);
  IndexOptions options;
  options.ppr.eps = 1e-5;
  options.max_materialized_sources = 2;
  const std::vector<VertexId> stable = {0, 1, 2};
  PprIndex index(&graph, stable, options);
  index.Initialize();

  std::atomic<bool> done{false};
  std::atomic<bool> sane{true};
  std::atomic<int64_t> ok_reads{0};
  auto reader = [&] {
    std::vector<uint64_t> last_epoch(stable.size(), 0);
    while (!done.load(std::memory_order_acquire)) {
      for (size_t i = 0; i < stable.size(); ++i) {
        const VertexId s = stable[i];
        auto res = index.QueryVertexForSource(s, s);
        if (res.status == SourceReadResult::Status::kOk) {
          ok_reads.fetch_add(1, std::memory_order_relaxed);
          // pi(s) >= alpha always; the estimate is eps-accurate.
          if (res.estimate.value < options.ppr.alpha - 2 * options.ppr.eps ||
              res.estimate.value > 1.0 + 2 * options.ppr.eps) {
            sane.store(false);
          }
        }
        if (res.epoch < last_epoch[i]) sane.store(false);
        last_epoch[i] = res.epoch;
      }
    }
  };
  std::thread r1(reader), r2(reader);

  // At least 30 churn rounds, extended until the readers have seen an OK
  // answer — kAdaptive materialization is fast enough that a fixed round
  // count can complete before the reader threads are even scheduled.
  for (int round = 0; round < 30 || ok_reads.load() == 0; ++round) {
    ASSERT_LT(round, 1000000) << "readers never got scheduled";
    index.MaterializeSource(stable[static_cast<size_t>(round) % 3]);
    if (round % 3 == 0) {
      UpdateBatch batch = {EdgeUpdate::Insert(round % 64, (round + 17) % 64)};
      index.ApplyBatch(batch);
    }
    if (round % 5 == 0) {
      index.AddSource(64 + round % 4);
      index.RemoveSource(64 + round % 4);
    }
  }
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  EXPECT_TRUE(sane.load()) << "reader observed a torn or impossible state";
  EXPECT_GT(ok_reads.load(), 0);
}

// ---------------------------------------------------- restore coalescing

TEST(PprIndexCoalesceTest, HeavyHitterReplaysCollapseIntoDirectSolves) {
  // A ring (out-degree 1 everywhere) hammered with insert/delete churn on
  // one endpoint: 40 journal entries for u=5 against a final out-degree
  // of 1 — exactly the shape where one direct Eq. 2 solve beats 40
  // replays. The estimates must stay oracle-accurate, and the stats must
  // expose the before/after pair.
  const VertexId n = 64;
  DynamicGraph graph(n);
  for (VertexId v = 0; v < n; ++v) graph.AddEdge(v, (v + 1) % n);

  IndexOptions options;
  options.ppr.eps = 1e-6;
  ASSERT_TRUE(options.coalesce_restore) << "coalescing should default on";
  PprIndex index(&graph, {0, 7}, options);
  index.Initialize();

  UpdateBatch batch;
  for (int i = 0; i < 20; ++i) {
    const VertexId v = 10 + (i % 7);
    batch.push_back(EdgeUpdate::Insert(5, v));
    batch.push_back(EdgeUpdate::Delete(5, v));
  }
  batch.push_back(EdgeUpdate::Insert(9, 30));
  batch.push_back(EdgeUpdate::Insert(9, 31));
  index.ApplyBatch(batch);

  const PushCounters& counters =
      index.last_batch_stats().sources_total.counters;
  const int64_t k = 2;  // sources
  EXPECT_EQ(counters.restore_input_updates,
            k * static_cast<int64_t>(batch.size()))
      << "'before' counter = full journal per source";
  // Per source: 2 replays (vertex 9) + 1 direct solve (vertex 5).
  EXPECT_EQ(counters.restore_ops, k * 3);
  EXPECT_EQ(counters.restore_direct_solves, k * 1);
  EXPECT_LT(counters.restore_ops, counters.restore_input_updates);

  PowerIterationOptions oracle_opt;
  for (size_t h = 0; h < index.NumSources(); ++h) {
    auto truth = PowerIterationPpr(graph, index.SourceVertex(h), oracle_opt);
    EXPECT_LE(MaxAbsError(index.Source(h).Estimates(), truth),
              options.ppr.eps * 1.0001)
        << "source " << h;
  }

  // Cross-check against the exact replay path.
  DynamicGraph ref_graph(n);
  for (VertexId v = 0; v < n; ++v) ref_graph.AddEdge(v, (v + 1) % n);
  IndexOptions exact = options;
  exact.coalesce_restore = false;
  PprIndex ref(&ref_graph, {0, 7}, exact);
  ref.Initialize();
  ref.ApplyBatch(batch);
  EXPECT_EQ(ref.last_batch_stats().sources_total.counters.restore_ops,
            ref.last_batch_stats()
                .sources_total.counters.restore_input_updates)
      << "with coalescing off the before/after counters must agree";
  for (size_t h = 0; h < index.NumSources(); ++h) {
    EXPECT_LE(MaxAbsError(index.Source(h).Estimates(),
                          ref.Source(h).Estimates()),
              2 * options.ppr.eps)
        << "source " << h;
  }
}

}  // namespace
}  // namespace dppr
