#include "perfbench/inputs.h"

#include <algorithm>
#include <cmath>

#include "gen/datasets.h"
#include "graph/dynamic_graph.h"
#include "graph/graph_stats.h"
#include "stream/edge_stream.h"
#include "stream/sliding_window.h"
#include "util/macros.h"
#include "util/random.h"

namespace perfbench {

namespace {

// Why each workload exists is recorded in BENCHMARK.json; the comments
// here say why its numbers are what they are. README.md gives the basis
// of every traffic value.
std::vector<WorkloadConfig> MakeTable() {
  std::vector<WorkloadConfig> table;

  // Reads dominate: 2 slots x 2 replicas, each replica a PprServer on
  // loopback, reads spread over standbys within a 2-epoch lag. The feed
  // is a trickle, so push, storage and estimator do almost nothing. With
  // 8 hubs the replicas' applies are under half of a batch's
  // acknowledgement time; with 16 they were two thirds of it, and
  // freshness followed the host's speed.
  WorkloadConfig fleet;
  fleet.name = "fleet_read_mostly";
  fleet.slots = 2;
  fleet.replicas = 2;
  fleet.over_tcp = true;
  fleet.hubs = 8;
  fleet.max_epoch_lag = 2;
  fleet.service_workers = 1;
  fleet.server_handlers = 2;
  fleet.read_threads = 3;
  fleet.read_rate = 600.0;
  fleet.feed_rate = 10.0;
  fleet.mix = {45, 45, 10, 0, 0, 0};
  fleet.latency_limit_ms = 50.0;
  table.push_back(fleet);

  // Estimator reads over Zipf-popular targets on two slots, each a
  // PprServer on loopback, with 2 forward hubs against 128 targets so
  // walk repair and reverse push take the larger share of maintenance.
  // In process, every figure of this workload is CPU time and followed
  // the host's speed (README.md); over TCP it keeps fleet_read_mostly's
  // 150 reads/s per connection.
  WorkloadConfig est;
  est.name = "estimator_mix";
  est.slots = 2;
  est.over_tcp = true;
  est.estimator = true;
  est.hubs = 2;
  est.targets = 128;
  est.service_workers = 1;
  est.server_handlers = 2;
  est.read_threads = 3;
  est.read_rate = 300.0;
  est.feed_rate = 20.0;
  est.mix = {5, 5, 0, 30, 30, 30};
  est.latency_limit_ms = 50.0;
  table.push_back(est);
  return table;
}

const std::vector<WorkloadConfig>& Table() {
  static const std::vector<WorkloadConfig> table = MakeTable();
  return table;
}

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(dppr::Rng* rng) const {
    const double u = rng->NextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                            cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& config : Table()) {
    if (config.name == name) return &config;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadConfig& config : Table()) names.push_back(config.name);
  return names;
}

Inputs MakeInputs(const WorkloadConfig& config) {
  // The pokec stand-in in one fixed stream order: every seed maintains
  // the same graph under the same feed, so runs of different seeds
  // differ only in their request schedules and in the system's own noise.
  dppr::DatasetSpec spec;
  DPPR_CHECK(dppr::FindDataset("pokec", &spec).ok());
  dppr::EdgeStream stream = dppr::EdgeStream::RandomPermutation(
      dppr::GenerateDataset(spec), /*seed=*/17);
  dppr::SlidingWindow window(&stream, 0.1);

  Inputs inputs;
  inputs.num_vertices = stream.NumVertices();
  inputs.initial = window.InitialEdges();
  const dppr::EdgeCount k = window.BatchForRatio(0.001);
  while (window.CanSlide(k)) inputs.batches.push_back(window.NextBatch(k));

  const dppr::DynamicGraph graph =
      dppr::DynamicGraph::FromEdges(inputs.initial, inputs.num_vertices);
  inputs.hubs = dppr::TopOutDegreeVertices(graph, config.hubs);
  if (config.targets > 0) {
    inputs.targets = dppr::TopInDegreeVertices(graph, config.targets);
  }
  return inputs;
}

std::vector<Request> MakeSchedule(const WorkloadConfig& config,
                                  const Inputs& inputs, double rate,
                                  double seconds, uint64_t seed) {
  dppr::Rng rng(seed);
  const Zipf hub_zipf(inputs.hubs.size(), kZipfTheta);
  const Zipf target_zipf(std::max<size_t>(inputs.targets.size(), 1),
                         kZipfTheta);
  const auto any_vertex = [&] {
    return static_cast<VertexId>(
        rng.NextBounded(static_cast<uint64_t>(inputs.num_vertices)));
  };
  std::vector<Request> schedule;
  schedule.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= seconds) break;
    Request r;
    r.due_s = t;
    int pick = static_cast<int>(rng.NextBounded(100));
    int op = 0;
    while (op + 1 < kNumOps && pick >= config.mix[static_cast<size_t>(op)]) {
      pick -= config.mix[static_cast<size_t>(op)];
      ++op;
    }
    r.op = static_cast<Op>(op);
    if (IsEstimatorOp(r.op)) {
      r.key = inputs.targets[target_zipf.Draw(&rng)];
      r.other = any_vertex();
    } else {
      r.key = inputs.hubs[hub_zipf.Draw(&rng)];
      r.other = any_vertex();
    }
    if (r.op == Op::kMulti) {
      for (size_t i = 0; i < r.multi.size(); ++i) {
        r.multi[i] = inputs.hubs[hub_zipf.Draw(&rng)];
      }
    }
    schedule.push_back(r);
  }
  return schedule;
}

}  // namespace perfbench
