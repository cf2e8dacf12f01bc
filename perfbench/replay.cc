#include "perfbench/replay.h"

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <vector>

#include "estimator/estimator_index.h"
#include "estimator/reverse_push.h"
#include "estimator/walk_index.h"
#include "graph/dynamic_graph.h"
#include "index/ppr_index.h"
#include "perfbench/stats.h"
#include "storage/durable_store.h"
#include "util/macros.h"
#include "util/parallel.h"
#include "util/random.h"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/// Checkpoint cadence of the replay's log: a few checkpoints per replay.
constexpr uint64_t kReplayCheckpointEvery = 50;

/// Runs `body` as a span named `name` under `parent`; returns its
/// milliseconds.
template <typename Body>
double Timed(SpanLog* log, const char* name, uint64_t parent,
             uint64_t request, Body&& body) {
  Span span;
  span.name = name;
  span.id = log->NextId();
  span.parent = parent;
  span.request = request;
  span.start_ns = SpanLog::Now();
  body();
  span.end_ns = SpanLog::Now();
  log->Add(span);
  return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }


/// The spill path of the durable tier: a second index whose LRU keeps a
/// quarter of the hubs and spills to its own store. After each batch the
/// next hub in turn is read, so every cold hub comes back through
/// restore-and-catch-up from its spill.
void ReplaySpill(const Inputs& inputs, size_t num_batches,
                 const dppr::IndexOptions& base,
                 const dppr::storage::DurableStoreOptions& store_options,
                 const std::string& dir, SpanLog* spans, MetricMap* m) {
  dppr::IndexOptions options = base;
  options.max_materialized_sources =
      std::max<size_t>(1, inputs.hubs.size() / 4);
  dppr::DynamicGraph graph =
      dppr::DynamicGraph::FromEdges(inputs.initial, inputs.num_vertices);
  dppr::PprIndex index(&graph, inputs.hubs, options);
  dppr::storage::DurableStore store(dir, store_options);
  DPPR_CHECK(store.Open().ok());
  index.SetSpillHooks(store.MakeSpillHooks());
  index.Initialize();
  std::vector<double> materialize_ms;
  for (size_t b = 0; b < num_batches; ++b) {
    DPPR_CHECK(store.LogBatch(inputs.batches[b], 1).ok());
    index.ApplyBatch(inputs.batches[b]);
    const VertexId hub = inputs.hubs[b % inputs.hubs.size()];
    if (index.IsMaterializedSource(hub)) continue;
    materialize_ms.push_back(
        Timed(spans, "index.materialize", 0, b + 1,
              [&] { DPPR_CHECK(index.MaterializeSource(hub)); }));
  }
  const Summary materialize = Summarize(materialize_ms);
  const auto n = static_cast<double>(materialize_ms.size());
  (*m)["index.materialize_p50_ms"] = materialize.p50.value;
  (*m)["index.materialize_p99_ms"] = materialize.tail.value;
  (*m)["index.materializations"] = n;
  // Every eviction writes its victim's spill.
  (*m)["index.evictions"] = static_cast<double>(store.spills_written());
  (*m)["storage.spills_written"] =
      static_cast<double>(store.spills_written());
  (*m)["storage.remat_from_spill_frac"] =
      Ratio(static_cast<double>(index.SpillRematerializations()), n);
}

}  // namespace

MetricMap ReplayMaintenance(const WorkloadConfig& config,
                            const Inputs& inputs, size_t num_batches,
                            const std::string& dir, SpanLog* spans) {
  // The live stack has stopped: the replay has every core.
  dppr::ScopedNumThreads all(dppr::HardwareThreads());
  MetricMap m;
  num_batches = std::min(num_batches, inputs.batches.size());
  const size_t warm =
      std::min(static_cast<size_t>(kWarmupBatches), num_batches);
  dppr::IndexOptions options;
  options.ppr.eps = kEps;

  dppr::DynamicGraph graph =
      dppr::DynamicGraph::FromEdges(inputs.initial, inputs.num_vertices);
  dppr::DynamicGraph plain =
      dppr::DynamicGraph::FromEdges(inputs.initial, inputs.num_vertices);
  dppr::PprIndex index(&graph, inputs.hubs, options);
  m["index.init_s"] =
      Timed(spans, "index.initialize", 0, 0, [&] { index.Initialize(); }) /
      1e3;
  m["index.scratch_mb"] =
      static_cast<double>(index.ApproxScratchBytes()) / kMiB;

  // The durable tier on every workload, so the storage layer is timed
  // even where the live stack runs without it.
  dppr::storage::DurableStoreOptions store_options;
  store_options.fsync_on_commit = true;
  store_options.checkpoint_every = kReplayCheckpointEvery;
  auto store = std::make_unique<dppr::storage::DurableStore>(dir, store_options);
  DPPR_CHECK(store->Open().ok());
  std::vector<double> checkpoint_ms;
  checkpoint_ms.push_back(Timed(spans, "storage.checkpoint", 0, 0, [&] {
    DPPR_CHECK(store->WriteCheckpoint(index).ok());
  }));

  // The estimator twice: its public composite, and its parts driven the
  // way EstimatorIndex::ApplyBatch drives them, so each part has a span.
  std::unique_ptr<dppr::EstimatorIndex> estimator;
  std::unique_ptr<dppr::DynamicGraph> walk_graph;
  std::unique_ptr<dppr::WalkIndex> walks;
  std::vector<std::unique_ptr<dppr::ReverseTargetState>> reverse;
  if (config.estimator) {
    dppr::EstimatorOptions est_options;
    est_options.enabled = true;
    est_options.alpha = options.ppr.alpha;
    est_options.eps = kEstimatorEps;
    est_options.walks_per_vertex = kWalksPerVertex;
    m["estimator.setup_s"] =
        Timed(spans, "estimator.setup", 0, 0, [&] {
          estimator =
              std::make_unique<dppr::EstimatorIndex>(graph, est_options);
          for (const VertexId t : inputs.targets) {
            DPPR_CHECK(estimator->AddTarget(t));
          }
        }) /
        1e3;
    walk_graph = std::make_unique<dppr::DynamicGraph>(
        dppr::DynamicGraph::FromEdges(inputs.initial, inputs.num_vertices));
    walks = std::make_unique<dppr::WalkIndex>(dppr::WalkIndexOptions{
        est_options.alpha, est_options.walks_per_vertex, est_options.seed});
    walks->Initialize(*walk_graph);
    for (const VertexId t : inputs.targets) {
      reverse.push_back(std::make_unique<dppr::ReverseTargetState>(
          walk_graph.get(), t,
          dppr::ReverseOptions{est_options.alpha, est_options.eps}));
    }
    m["estimator.walk_index_mb"] =
        static_cast<double>(walks->ApproxMemoryBytes()) / kMiB;
  }

  std::vector<double> warm_apply_ms;
  std::vector<double> apply_ms;
  std::vector<double> wal_ms;
  std::vector<double> est_apply_ms;
  std::vector<double> reverse_ms;
  double restore_wall = 0.0;
  double total_wall = 0.0;
  double push_wall = 0.0;
  int64_t across = 0;
  int64_t pushed = 0;
  int64_t skipped = 0;
  dppr::PushCounters counters;
  int64_t updates = 0;
  double graph_ns = 0.0;
  double repair_us = 0.0;
  int64_t wal_bytes = 0;
  uint64_t update_seq = 0;
  const int64_t walks_repaired_before = walks ? walks->walks_repaired() : 0;

  for (size_t b = 0; b < num_batches; ++b) {
    const UpdateBatch& batch = inputs.batches[b];
    const uint64_t request = b + 1;
    Span parent;
    parent.name = "replay.batch";
    parent.id = spans->NextId();
    parent.request = request;
    parent.start_ns = SpanLog::Now();
    updates += static_cast<int64_t>(batch.size());

    const uint64_t log_before = store->log_end_offset();
    wal_ms.push_back(
        Timed(spans, "storage.log_batch", parent.id, request,
              [&] { DPPR_CHECK(store->LogBatch(batch, 1).ok()); }));
    wal_bytes += static_cast<int64_t>(store->log_end_offset() - log_before);

    const double ms = Timed(spans, "index.apply_batch", parent.id, request,
                            [&] { index.ApplyBatch(batch); });
    if (b < warm) {
      warm_apply_ms.push_back(ms);
    } else {
      const dppr::IndexBatchStats& stats = index.last_batch_stats();
      apply_ms.push_back(ms);
      restore_wall += stats.restore_wall_seconds;
      total_wall += stats.wall_seconds;
      push_wall += stats.push_wall_seconds;
      across += stats.across_sources ? 1 : 0;
      pushed += stats.sources_pushed;
      skipped += stats.sources_skipped;
      counters.Add(stats.sources_total.counters);
    }

    graph_ns += 1e6 * Timed(spans, "graph.apply", parent.id, request, [&] {
      for (const dppr::EdgeUpdate& update : batch) plain.Apply(update);
    });

    if (estimator) {
      Timed(spans, "mc.walk_repair", parent.id, request, [&] {
        for (const dppr::EdgeUpdate& update : batch) {
          walk_graph->Apply(update);
          const Clock::time_point t0 = Clock::now();
          walks->ApplyUpdate(*walk_graph, update, ++update_seq);
          repair_us += std::chrono::duration<double, std::micro>(
                           Clock::now() - t0)
                           .count();
        }
      });
      const double reverse_one =
          Timed(spans, "estimator.reverse_push", parent.id, request, [&] {
            std::unordered_set<VertexId> touched;
            for (const dppr::EdgeUpdate& update : batch) {
              touched.insert(update.u);
            }
            for (auto& state : reverse) {
              state->EnsureCapacity(walk_graph->NumVertices());
              for (const VertexId u : touched) state->RestoreVertex(u);
              state->Push();
            }
          });
      const double est_one =
          Timed(spans, "estimator.apply_batch", parent.id, request,
                [&] { estimator->ApplyBatch(batch, 1); });
      if (b >= warm) {
        reverse_ms.push_back(reverse_one);
        est_apply_ms.push_back(est_one);
      }
    }

    if (store->ShouldCheckpoint()) {
      checkpoint_ms.push_back(
          Timed(spans, "storage.checkpoint", parent.id, request,
                [&] { DPPR_CHECK(store->WriteCheckpoint(index).ok()); }));
    }
    parent.end_ns = SpanLog::Now();
    spans->Add(parent);
  }

  const Summary apply = Summarize(apply_ms);
  m["index.apply_p50_ms"] = apply.p50.value;
  m["index.apply_p99_ms"] = apply.tail.value;
  m["index.restore_frac"] = Ratio(restore_wall, total_wall);
  const auto steady = static_cast<double>(apply_ms.size());
  m["index.across_sources_frac"] = Ratio(static_cast<double>(across), steady);
  m["index.sources_pushed_per_batch"] =
      Ratio(static_cast<double>(pushed), steady);
  m["index.sources_skipped_per_batch"] =
      Ratio(static_cast<double>(skipped), steady);
  m["index.warmup_apply_ms"] = Mean(warm_apply_ms);

  m["core.push_ops_per_batch"] =
      Ratio(static_cast<double>(counters.push_ops), steady);
  m["core.push_mops_per_s"] =
      Ratio(static_cast<double>(counters.push_ops), push_wall) / 1e6;
  m["core.dense_round_frac"] =
      Ratio(static_cast<double>(counters.dense_rounds),
            static_cast<double>(counters.iterations));
  m["core.restore_saved_frac"] =
      counters.restore_input_updates > 0
          ? 1.0 - static_cast<double>(counters.restore_ops) /
                      static_cast<double>(counters.restore_input_updates)
          : 0.0;
  m["graph.apply_ns_per_update"] =
      Ratio(graph_ns, static_cast<double>(updates));

  ReplaySpill(inputs, num_batches, options, store_options, dir + "-spill",
              spans, &m);
  const Summary wal = Summarize(wal_ms);
  m["storage.wal_append_p50_ms"] = wal.p50.value;
  m["storage.wal_append_p99_ms"] = wal.tail.value;
  m["storage.wal_bytes_per_edge"] =
      Ratio(static_cast<double>(wal_bytes), static_cast<double>(updates));
  m["storage.checkpoint_ms"] = Summarize(checkpoint_ms).p50.value;

  if (estimator) {
    const Summary est = Summarize(est_apply_ms);
    m["estimator.apply_p50_ms"] = est.p50.value;
    m["estimator.apply_p99_ms"] = est.tail.value;
    m["estimator.reverse_push_ms_per_batch"] = Mean(reverse_ms);
    m["mc.repair_us_per_update"] =
        Ratio(repair_us, static_cast<double>(updates));
    m["mc.walks_repaired_per_update"] =
        Ratio(static_cast<double>(walks->walks_repaired() -
                                  walks_repaired_before),
              static_cast<double>(updates));

    // Direct reads on the replayed index, after the replay.
    dppr::Rng rng(0x5EED);
    std::vector<double> pair_us;
    std::vector<double> hybrid_us;
    std::vector<double> topk_us;
    const auto micros = [](Clock::time_point t0) {
      return std::chrono::duration<double, std::micro>(Clock::now() - t0)
          .count();
    };
    for (int i = 0; i < 300; ++i) {
      const VertexId t = inputs.targets[static_cast<size_t>(i) %
                                        inputs.targets.size()];
      const auto s = static_cast<VertexId>(
          rng.NextBounded(static_cast<uint64_t>(inputs.num_vertices)));
      Clock::time_point t0 = Clock::now();
      DPPR_CHECK(estimator->QueryPair(s, t).known);
      pair_us.push_back(micros(t0));
      t0 = Clock::now();
      DPPR_CHECK(estimator->HybridPair(s, t).known);
      hybrid_us.push_back(micros(t0));
      t0 = Clock::now();
      DPPR_CHECK(estimator->ReverseTopK(t, kTopK).known);
      topk_us.push_back(micros(t0));
    }
    m["estimator.pair_read_us"] = Summarize(pair_us).p50.value;
    m["estimator.hybrid_read_us"] = Summarize(hybrid_us).p50.value;
    m["estimator.reverse_topk_read_us"] = Summarize(topk_us).p50.value;
  }

  // The paper's single-thread baseline: the same steady batches through
  // a fresh index at one OpenMP thread.
  double single_ms = 0.0;
  double multi_ms = 0.0;
  for (const double x : apply_ms) multi_ms += x;
  {
    dppr::ScopedNumThreads one(1);
    dppr::DynamicGraph g1 =
        dppr::DynamicGraph::FromEdges(inputs.initial, inputs.num_vertices);
    dppr::PprIndex i1(&g1, inputs.hubs, options);
    i1.Initialize();
    for (size_t b = 0; b < num_batches; ++b) {
      const double ms =
          Timed(spans, "index.apply_batch_1t", 0, b + 1,
                [&] { i1.ApplyBatch(inputs.batches[b]); });
      if (b >= warm) single_ms += ms;
    }
  }
  m["core.push_speedup_vs_1t"] = Ratio(single_ms, multi_ms);
  return m;
}

}  // namespace perfbench
