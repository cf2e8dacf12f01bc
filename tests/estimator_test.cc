// Estimator subsystem tests (src/estimator/).
//
// Four layers, matching the subsystem's contracts:
//  * ReversePushTest — the maintained target-side invariant against the
//    forward power-iteration oracle: pi_s(t) read from target t's reverse
//    state must match the forward PPR of s evaluated at t, within eps,
//    across a sliding-window feed (insertions AND deletions, including
//    vertices that go dangling mid-stream).
//  * WalkIndexTest — the determinism contract (two replicas fed the same
//    update sequence hold bitwise-identical indexes, which is what lets
//    hybrid queries route purely by target) and the repair-vs-regenerate
//    equivalence (a repaired index is as unbiased as one resampled from
//    scratch on the final graph).
//  * HybridTest — the BiPPR combination: always inside the deterministic
//    ±eps interval, and on average strictly closer to the truth than the
//    push-only point; reads during maintenance included.
//  * EstimatorFleetTest — the serving path: a sharded fleet with a shard
//    joined OVER THE WIRE answers kQueryPair / kHybridQuery / kReverseTopK
//    in lockstep equivalence with an unsharded reference stack.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "analysis/power_iteration.h"
#include "estimator/estimator_index.h"
#include "estimator/walk_index.h"
#include "gen/generators.h"
#include "graph/dynamic_graph.h"
#include "graph/graph_stats.h"
#include "index/ppr_index.h"
#include "net/ppr_server.h"
#include "net/remote_client.h"
#include "router/sharded_service.h"
#include "server/ppr_service.h"
#include "stream/edge_stream.h"
#include "stream/sliding_window.h"

namespace dppr {
namespace {

/// Sliding-window workload, the same harness shape as the router and
/// storage equivalence suites: deletions are half the feed, so reverse
/// states see residuals of both signs and walks get severed mid-trace.
struct EstimatorWorkload {
  std::vector<Edge> initial;
  VertexId num_vertices = 0;
  std::vector<UpdateBatch> batches;
  std::vector<VertexId> hubs;

  EstimatorWorkload(VertexId n, EdgeCount m, uint64_t seed, int num_hubs,
                    int max_batches) {
    auto edges = GenerateErdosRenyi(n, m, seed);
    EdgeStream stream =
        EdgeStream::RandomPermutation(std::move(edges), seed + 1);
    SlidingWindow window(&stream, 0.5);
    initial = window.InitialEdges();
    num_vertices = stream.NumVertices();
    const EdgeCount batch_size = window.BatchForRatio(0.02);
    while (static_cast<int>(batches.size()) < max_batches &&
           window.CanSlide(batch_size)) {
      batches.push_back(window.NextBatch(batch_size));
    }
    DynamicGraph ranking = DynamicGraph::FromEdges(initial, num_vertices);
    hubs = TopOutDegreeVertices(ranking, num_hubs);
  }
};

/// pi_s(t) to oracle precision on the current graph.
double OracleValue(const DynamicGraph& g, VertexId s, VertexId t) {
  PowerIterationOptions opt;
  const auto truth = ForwardPowerIterationPpr(g, s, opt);
  return truth[static_cast<size_t>(t)];
}

// ---------------------------------------------------------- reverse push

TEST(ReversePushTest, TracksForwardOracleUnderChurn) {
  constexpr double kEps = 1e-4;
  EstimatorWorkload workload(96, 700, 61, /*num_hubs=*/4, /*max_batches=*/8);
  ASSERT_GE(workload.batches.size(), 4u);

  DynamicGraph oracle_graph =
      DynamicGraph::FromEdges(workload.initial, workload.num_vertices);
  EstimatorOptions options;
  options.enabled = true;
  options.eps = kEps;
  EstimatorIndex index(oracle_graph, options);

  // A hub, a mid-degree vertex, and (when one exists) a vertex that is
  // dangling on the initial graph — its stop mass b(t) = 1, the branch
  // the restore identity must keep right as edges churn around it.
  std::vector<VertexId> targets = {workload.hubs[0],
                                   workload.num_vertices / 2};
  for (VertexId v = 0; v < workload.num_vertices; ++v) {
    if (oracle_graph.OutDegree(v) == 0) {
      targets.push_back(v);
      break;
    }
  }
  for (VertexId t : targets) ASSERT_TRUE(index.AddTarget(t));

  auto check_against_oracle = [&](const std::string& when) {
    for (VertexId t : targets) {
      for (VertexId s = 0; s < workload.num_vertices; s += 7) {
        const double truth = OracleValue(oracle_graph, s, t);
        const PairResult got = index.QueryPair(s, t);
        ASSERT_TRUE(got.known);
        EXPECT_NEAR(got.estimate.value, truth, kEps * 1.0001)
            << when << ": s=" << s << " t=" << t;
        EXPECT_LE(got.estimate.lower, truth + 1e-12) << when;
        EXPECT_GE(got.estimate.upper, truth - 1e-12) << when;
      }
    }
  };
  check_against_oracle("initial");

  for (size_t b = 0; b < workload.batches.size(); ++b) {
    for (const EdgeUpdate& update : workload.batches[b]) {
      oracle_graph.Apply(update);
    }
    index.ApplyBatch(workload.batches[b], b + 1);
    EXPECT_EQ(index.epoch(), b + 1);
    EXPECT_EQ(index.GraphChecksum(), oracle_graph.Checksum())
        << "the private replica must track the applied feed exactly";
  }
  check_against_oracle("after the full feed");
}

TEST(ReversePushTest, ReverseTopKAgreesWithPairReads) {
  constexpr double kEps = 1e-4;
  EstimatorWorkload workload(96, 700, 67, 4, 6);
  DynamicGraph graph =
      DynamicGraph::FromEdges(workload.initial, workload.num_vertices);
  EstimatorOptions options;
  options.enabled = true;
  options.eps = kEps;
  EstimatorIndex index(graph, options);
  const VertexId t = workload.hubs[0];
  ASSERT_TRUE(index.AddTarget(t));
  for (const UpdateBatch& batch : workload.batches) {
    for (const EdgeUpdate& update : batch) graph.Apply(update);
    index.ApplyBatch(batch, 1);
  }

  const ReverseTopKResult top = index.ReverseTopK(t, 5);
  ASSERT_TRUE(top.known);
  ASSERT_EQ(top.topk.entries.size(), 5u);
  double prev = 2.0;
  for (const ScoredVertex& entry : top.topk.entries) {
    EXPECT_LE(entry.score, prev) << "scores must be sorted descending";
    prev = entry.score;
    // Each reported score IS the pair read for that source...
    const PairResult pair = index.QueryPair(entry.id, t);
    ASSERT_TRUE(pair.known);
    EXPECT_EQ(entry.score, pair.estimate.value);
    // ...and carries the same ±eps contract against the oracle.
    EXPECT_NEAR(entry.score, OracleValue(graph, entry.id, t), kEps * 1.0001);
  }

  EXPECT_FALSE(index.ReverseTopK(t + 1 == workload.num_vertices ? 0 : t + 1,
                                 5)
                   .known)
      << "an unregistered target must be reported unknown, not zero";
}

// ------------------------------------------------------------ walk index

TEST(WalkIndexTest, ReplicasRepairToBitwiseIdenticalIndexes) {
  EstimatorWorkload workload(80, 520, 71, 3, 8);
  DynamicGraph graph =
      DynamicGraph::FromEdges(workload.initial, workload.num_vertices);
  WalkIndexOptions options;
  options.walks_per_vertex = 4;
  options.seed = 1234;
  WalkIndex a(options);
  WalkIndex b(options);
  a.Initialize(graph);
  b.Initialize(graph);

  // Two "shards" fed the identical update sequence — the routing
  // precondition: hybrid answers must not depend on which replica serves
  // them, so the indexes must agree EXACTLY, not just statistically.
  uint64_t seq = 0;
  for (const UpdateBatch& batch : workload.batches) {
    for (const EdgeUpdate& update : batch) {
      graph.Apply(update);
      ++seq;
      a.ApplyUpdate(graph, update, seq);
      b.ApplyUpdate(graph, update, seq);
    }
  }
  ASSERT_EQ(a.NumWalks(), b.NumWalks());
  EXPECT_GT(a.walks_repaired(), 0) << "the feed must have exercised repair";

  std::mt19937 rng(5);
  std::vector<double> residuals(
      static_cast<size_t>(graph.NumVertices()));
  for (double& r : residuals) {
    r = std::uniform_real_distribution<double>(-1.0, 1.0)(rng);
  }
  for (VertexId s = 0; s < graph.NumVertices(); ++s) {
    EXPECT_EQ(a.TraceSumMean(s, residuals), b.TraceSumMean(s, residuals))
        << "replica divergence at source " << s;
  }
}

TEST(WalkIndexTest, RepairedIndexIsAsUnbiasedAsRegenerated) {
  // Repair correctness, phrased as the property the hybrid estimator
  // actually needs: after the feed, the repaired index must estimate the
  // residual correction with no more bias than an index freshly sampled
  // on the final graph. eps is set coarse so the push point is crude and
  // the walk correction carries real weight.
  constexpr double kEps = 2e-3;
  EstimatorWorkload workload(80, 520, 73, 3, 8);
  DynamicGraph graph =
      DynamicGraph::FromEdges(workload.initial, workload.num_vertices);
  EstimatorOptions options;
  options.enabled = true;
  options.eps = kEps;
  options.walks_per_vertex = 16;
  options.seed = 99;
  EstimatorIndex repaired(graph, options);
  const VertexId t = workload.hubs[0];
  ASSERT_TRUE(repaired.AddTarget(t));
  for (const UpdateBatch& batch : workload.batches) {
    for (const EdgeUpdate& update : batch) graph.Apply(update);
    repaired.ApplyBatch(batch, 1);
  }

  // The regenerate oracle: same options, constructed directly on the
  // final graph, so its walks are a from-scratch sample.
  EstimatorIndex regenerated(graph, options);
  ASSERT_TRUE(regenerated.AddTarget(t));

  double bias_repaired = 0.0;
  double bias_regenerated = 0.0;
  for (VertexId s = 0; s < workload.num_vertices; ++s) {
    const double truth = OracleValue(graph, s, t);
    bias_repaired += repaired.HybridPair(s, t).estimate.value - truth;
    bias_regenerated += regenerated.HybridPair(s, t).estimate.value - truth;
  }
  bias_repaired /= workload.num_vertices;
  bias_regenerated /= workload.num_vertices;
  // Both are means of per-source unbiased estimators clamped into ±eps;
  // their average bias must be far inside the deterministic bound (the
  // push-only point is allowed to sit a full eps off).
  EXPECT_LT(std::fabs(bias_repaired), kEps / 4)
      << "repaired walks are biased — repair is not distribution-preserving";
  EXPECT_LT(std::fabs(bias_regenerated), kEps / 4);
}

// ---------------------------------------------------------------- hybrid

TEST(HybridTest, StaysInsideTheIntervalAndBeatsPushAlone) {
  constexpr double kEps = 2e-3;
  EstimatorWorkload workload(96, 700, 79, 4, 8);
  DynamicGraph graph =
      DynamicGraph::FromEdges(workload.initial, workload.num_vertices);
  EstimatorOptions options;
  options.enabled = true;
  options.eps = kEps;
  options.walks_per_vertex = 16;
  EstimatorIndex index(graph, options);
  std::vector<VertexId> targets(workload.hubs.begin(),
                                workload.hubs.begin() + 3);
  for (VertexId t : targets) ASSERT_TRUE(index.AddTarget(t));
  for (const UpdateBatch& batch : workload.batches) {
    for (const EdgeUpdate& update : batch) graph.Apply(update);
    index.ApplyBatch(batch, 1);
  }

  double push_err = 0.0;
  double hybrid_err = 0.0;
  int pairs = 0;
  for (VertexId t : targets) {
    for (VertexId s = 0; s < workload.num_vertices; s += 2) {
      const double truth = OracleValue(graph, s, t);
      const PairResult push = index.QueryPair(s, t);
      const PairResult hybrid = index.HybridPair(s, t);
      ASSERT_TRUE(push.known && hybrid.known);
      // The hybrid point never leaves the deterministic certificate: the
      // same ±eps interval the pure push read reports.
      EXPECT_GE(hybrid.estimate.value, push.estimate.lower - 1e-15);
      EXPECT_LE(hybrid.estimate.value, push.estimate.upper + 1e-15);
      push_err += std::fabs(push.estimate.value - truth);
      hybrid_err += std::fabs(hybrid.estimate.value - truth);
      ++pairs;
    }
  }
  push_err /= pairs;
  hybrid_err /= pairs;
  // The unbiased correction must buy real accuracy, not just not hurt:
  // on average the hybrid point lands well inside the push-only error.
  EXPECT_LT(hybrid_err, push_err * 0.9)
      << "walk correction is not improving on the push point "
      << "(push " << push_err << ", hybrid " << hybrid_err << ")";
}

// Reads run while another thread applies the feed. Every answer carries
// the epoch of the state it was read from, a target's epochs never go
// back, the hybrid point stays inside the interval it reports, and once
// the feed is done the index answers exactly like one that never had a
// reader. Under ThreadSanitizer this checks the index's lock discipline.
TEST(HybridTest, ReadsDuringMaintenanceStayInsideTheirInterval) {
  EstimatorWorkload workload(96, 700, 83, 4, 12);
  const DynamicGraph graph =
      DynamicGraph::FromEdges(workload.initial, workload.num_vertices);
  EstimatorOptions options;
  options.enabled = true;
  options.eps = 1e-3;
  EstimatorIndex index(graph, options);
  EstimatorIndex reference(graph, options);
  for (VertexId t : workload.hubs) {
    ASSERT_TRUE(index.AddTarget(t));
    ASSERT_TRUE(reference.AddTarget(t));
  }

  std::atomic<bool> done{false};
  int64_t reads = 0;
  std::thread reader([&] {
    std::vector<uint64_t> last_epoch(workload.hubs.size(), 0);
    VertexId s = 0;
    while (!done.load(std::memory_order_acquire)) {
      for (size_t i = 0; i < workload.hubs.size(); ++i) {
        const VertexId t = workload.hubs[i];
        const PairResult pair = index.QueryPair(s, t);
        const PairResult hybrid = index.HybridPair(s, t);
        const ReverseTopKResult top = index.ReverseTopK(t, 3);
        EXPECT_TRUE(pair.known && hybrid.known && top.known);
        EXPECT_GE(hybrid.estimate.value, hybrid.estimate.lower);
        EXPECT_LE(hybrid.estimate.value, hybrid.estimate.upper);
        for (const uint64_t epoch : {pair.epoch, hybrid.epoch, top.epoch}) {
          EXPECT_GE(epoch, last_epoch[i]) << "target " << t;
          last_epoch[i] = epoch;
        }
        ++reads;
      }
      s = (s + 1) % workload.num_vertices;
    }
  });
  for (const UpdateBatch& batch : workload.batches) {
    index.ApplyBatch(batch, &batch - workload.batches.data() + 1);
  }
  done.store(true, std::memory_order_release);
  reader.join();
  for (const UpdateBatch& batch : workload.batches) {
    reference.ApplyBatch(batch, &batch - workload.batches.data() + 1);
  }

  EXPECT_GT(reads, 0);
  EXPECT_EQ(index.epoch(), workload.batches.size());
  EXPECT_EQ(index.GraphChecksum(), reference.GraphChecksum());
  for (VertexId t : workload.hubs) {
    for (VertexId s = 0; s < workload.num_vertices; ++s) {
      const PairResult pair = index.QueryPair(s, t);
      const PairResult hybrid = index.HybridPair(s, t);
      EXPECT_EQ(pair.epoch, workload.batches.size());
      EXPECT_EQ(hybrid.epoch, workload.batches.size());
      EXPECT_EQ(pair.estimate.value, reference.QueryPair(s, t).estimate.value);
      EXPECT_EQ(hybrid.estimate.value,
                reference.HybridPair(s, t).estimate.value);
    }
  }
}

// ------------------------------------------------------- fleet lockstep

/// One estimator-enabled shard behind a real socket, the same harness
/// shape as net_test's ShardProcess.
struct EstimatorShardProcess {
  DynamicGraph graph;
  PprIndex index;
  PprService service;
  net::PprServer server;

  EstimatorShardProcess(const std::vector<Edge>& edges, VertexId num_vertices,
                        std::vector<VertexId> sources,
                        const IndexOptions& iopt, const ServiceOptions& sopt)
      : graph(DynamicGraph::FromEdges(edges, num_vertices)),
        index(&graph, std::move(sources), iopt),
        service(&index, sopt),
        server(&service, net::PprServerOptions{}) {
    index.Initialize();
    service.Start();
    const Status st = server.Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  ~EstimatorShardProcess() {
    server.Stop();
    service.Stop();
  }
};

TEST(EstimatorFleetTest, ShardedFleetMatchesUnshardedOverTheWire) {
  constexpr double kEps = 1e-4;
  EstimatorWorkload workload(96, 700, 83, 5, 8);
  ASSERT_GE(workload.batches.size(), 4u);

  IndexOptions iopt;
  iopt.ppr.eps = 1e-6;
  ServiceOptions sopt;
  sopt.num_workers = 2;
  sopt.estimator.enabled = true;
  sopt.estimator.eps = kEps;
  sopt.estimator.walks_per_vertex = 4;
  sopt.estimator.seed = 7;

  // The reference: one unsharded estimator-enabled stack.
  DynamicGraph ref_graph =
      DynamicGraph::FromEdges(workload.initial, workload.num_vertices);
  PprIndex ref_index(&ref_graph, workload.hubs, iopt);
  ref_index.Initialize();
  PprService reference(&ref_index, sopt);
  reference.Start();

  // The subject: two local shards plus one EMPTY shard joined over a
  // real loopback socket before the feed starts — estimator traffic to
  // targets it owns crosses the wire as kQueryPair / kHybridQuery /
  // kReverseTopK frames.
  EstimatorShardProcess remote(workload.initial, workload.num_vertices, {},
                               iopt, sopt);
  ShardedServiceOptions ropt;
  ropt.num_shards = 2;
  ropt.vnodes_per_shard = 32;
  ropt.index = iopt;
  ropt.service = sopt;
  ShardedPprService router(workload.initial, workload.num_vertices,
                           workload.hubs, ropt);
  router.Start();
  ASSERT_GE(router.AddRemoteShard("127.0.0.1", remote.server.port()), 0);

  // Targets registered fleet-wide before the feed; every estimator
  // answer below is then a maintained read, never a fresh build.
  const std::vector<VertexId> targets(workload.hubs.begin(),
                                      workload.hubs.end());
  for (VertexId t : targets) {
    ASSERT_EQ(reference.AddTargetAsync(t).get().status, RequestStatus::kOk);
    ASSERT_EQ(router.AddTarget(t).status, RequestStatus::kOk);
  }
  EXPECT_EQ(router.Targets().size(), targets.size());

  std::mt19937 rng(4242);
  size_t next_batch = 0;
  for (int step = 0; step < 120; ++step) {
    const uint32_t dice = rng() % 100;
    const VertexId t = targets[rng() % targets.size()];
    const VertexId s =
        static_cast<VertexId>(rng() % workload.num_vertices);
    if (dice < 15 && next_batch < workload.batches.size()) {
      const UpdateBatch& batch = workload.batches[next_batch++];
      ASSERT_EQ(reference.ApplyUpdatesAsync(batch).get().status,
                RequestStatus::kOk);
      ASSERT_EQ(router.ApplyUpdates(batch).status, RequestStatus::kOk);
    } else if (dice < 40) {
      const QueryResponse ref_q = reference.QueryPairAsync(s, t).get();
      const QueryResponse got = router.QueryPair(s, t);
      ASSERT_EQ(got.status, ref_q.status);
      ASSERT_EQ(ref_q.status, RequestStatus::kOk);
      EXPECT_EQ(got.epoch, ref_q.epoch);
      // Reverse push and the walk index are both deterministic functions
      // of (options, update sequence): the fleet must agree with the
      // reference to within the two ±eps certificates.
      EXPECT_NEAR(got.estimate.value, ref_q.estimate.value, 2 * kEps);
    } else if (dice < 65) {
      const QueryResponse ref_q = reference.HybridPairAsync(s, t).get();
      const QueryResponse got = router.HybridPair(s, t);
      ASSERT_EQ(got.status, ref_q.status);
      ASSERT_EQ(ref_q.status, RequestStatus::kOk);
      EXPECT_EQ(got.epoch, ref_q.epoch);
      EXPECT_NEAR(got.estimate.value, ref_q.estimate.value, 2 * kEps);
    } else {
      const QueryResponse ref_q = reference.ReverseTopKAsync(t, 5).get();
      const QueryResponse got = router.ReverseTopK(t, 5);
      ASSERT_EQ(got.status, ref_q.status);
      ASSERT_EQ(ref_q.status, RequestStatus::kOk);
      EXPECT_EQ(got.epoch, ref_q.epoch);
      ASSERT_EQ(got.topk.entries.size(), ref_q.topk.entries.size());
      for (size_t e = 0; e < ref_q.topk.entries.size(); ++e) {
        EXPECT_NEAR(got.topk.entries[e].score,
                    ref_q.topk.entries[e].score, 2 * kEps)
            << "rank " << e;
      }
    }
  }
  ASSERT_GT(next_batch, 0u) << "the interleaving never applied a batch";

  // Cross-validate the final state against ground truth through BOTH
  // stacks: pair reads must sit within eps of the power-iteration value.
  const VertexId t_check = targets[0];
  for (VertexId s = 0; s < workload.num_vertices; s += 9) {
    const double truth = OracleValue(ref_graph, s, t_check);
    EXPECT_NEAR(reference.QueryPairAsync(s, t_check).get().estimate.value,
                truth, kEps * 1.0001);
    EXPECT_NEAR(router.QueryPair(s, t_check).estimate.value, truth,
                kEps * 1.0001);
  }

  // Target removal is fleet-wide too: afterwards every stack reports the
  // target unknown (kUnknownSource doubles as unknown-target).
  ASSERT_EQ(reference.RemoveTargetAsync(t_check).get().status,
            RequestStatus::kOk);
  ASSERT_EQ(router.RemoveTarget(t_check).status, RequestStatus::kOk);
  EXPECT_EQ(reference.QueryPairAsync(0, t_check).get().status,
            RequestStatus::kUnknownSource);
  EXPECT_EQ(router.QueryPair(0, t_check).status,
            RequestStatus::kUnknownSource);

  router.Stop();
  reference.Stop();
}

TEST(EstimatorFleetTest, DisabledEstimatorRejectsEveryVerb) {
  EstimatorWorkload workload(64, 400, 89, 3, 2);
  DynamicGraph graph =
      DynamicGraph::FromEdges(workload.initial, workload.num_vertices);
  IndexOptions iopt;
  PprIndex index(&graph, workload.hubs, iopt);
  index.Initialize();
  ServiceOptions sopt;  // estimator.enabled defaults to false
  PprService service(&index, sopt);
  service.Start();
  EXPECT_EQ(service.AddTargetAsync(workload.hubs[0]).get().status,
            RequestStatus::kRejected);
  EXPECT_EQ(service.QueryPairAsync(0, workload.hubs[0]).get().status,
            RequestStatus::kRejected);
  EXPECT_EQ(service.HybridPairAsync(0, workload.hubs[0]).get().status,
            RequestStatus::kRejected);
  EXPECT_EQ(service.ReverseTopKAsync(workload.hubs[0], 5).get().status,
            RequestStatus::kRejected);
  EXPECT_TRUE(service.Targets().empty());
  service.Stop();
}

}  // namespace
}  // namespace dppr
