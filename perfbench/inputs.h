// Workload definitions and the inputs generated from a seed: the graph,
// the update feed, the hub and target sets, and open-loop request
// schedules. Everything here runs before the stack is built, outside
// every timed region.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.h"

namespace perfbench {

using dppr::Edge;
using dppr::UpdateBatch;
using dppr::VertexId;

/// Settings every workload shares.
inline constexpr double kEps = 1e-5;           ///< forward push eps
inline constexpr double kEstimatorEps = 1e-4;  ///< pair / reverse push eps
inline constexpr int kWalksPerVertex = 4;
inline constexpr int kTopK = 10;
inline constexpr int kMultiSources = 4;  ///< sources per MultiSourceQuery
inline constexpr int kSetupReps = 7;     ///< setup_s is their median
inline constexpr int kMeasuredStacks = 5;  ///< the last of them, untraced
inline constexpr int kWarmupBatches = 15;
inline constexpr int kWarmupReads = 300;
inline constexpr int kSearchSteps = 10;

/// Request kinds a read schedule mixes.
enum class Op : uint8_t {
  kPoint,        ///< QueryVertex(s, v)
  kTopK,         ///< TopK(s, k)
  kMulti,        ///< MultiSourceQuery(sources, v)
  kPair,         ///< QueryPair(s, t)
  kHybrid,       ///< HybridPair(s, t)
  kReverseTopK,  ///< ReverseTopK(t, k)
};
inline constexpr int kNumOps = 6;
inline bool IsEstimatorOp(Op op) { return op >= Op::kPair; }

/// One workload: the serving stack's shape, its fixed thread counts, and
/// its traffic. The table lives in inputs.cc.
struct WorkloadConfig {
  std::string name;

  // Serving stack.
  int slots = 1;
  int replicas = 1;
  bool over_tcp = false;  ///< every replica behind a PprServer on loopback
  bool estimator = false;
  int hubs = 16;
  int targets = 0;
  int64_t max_epoch_lag = -1;  ///< standby read bound; -1 = primary reads

  // Thread counts, fixed per workload. The generator also runs one feed
  // thread, so it has read_threads + 1 threads in all.
  int omp_threads = 1;  ///< the live stack's; the replay uses every core
  int service_workers = 1;
  int server_handlers = 0;  ///< per PprServer (over_tcp only)
  int read_threads = 3;     ///< one sender plus the threads taking answers

  // Traffic, open loop. The basis of each value is in README.md.
  double read_rate = 1000.0;  ///< reads per second
  double feed_rate = 1.0;     ///< update batches per second
  std::array<int, kNumOps> mix{};  ///< percent of reads by Op

  /// The latency limit the sustainable-rate search holds the read tail to.
  double latency_limit_ms = 0.0;
};

/// The workload named `name`, or null.
const WorkloadConfig* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Inputs of one run, generated by src/gen and src/stream.
struct Inputs {
  VertexId num_vertices = 0;
  std::vector<Edge> initial;  ///< the sliding window's first contents
  /// The whole feed, in order: k deletions then k insertions per batch,
  /// as the window slides once over the stream.
  std::vector<UpdateBatch> batches;
  /// Forward hubs, most popular (highest out-degree) first.
  std::vector<VertexId> hubs;
  /// Estimator targets, most popular (highest in-degree) first.
  std::vector<VertexId> targets;
};

Inputs MakeInputs(const WorkloadConfig& config);

/// One open-loop read: due `due_s` seconds after its phase starts.
struct Request {
  double due_s = 0.0;
  Op op = Op::kPoint;
  VertexId key = 0;    ///< source (forward reads) or target (estimator)
  VertexId other = 0;  ///< the vertex read, or the pair's source
  std::array<VertexId, kMultiSources> multi{};  ///< MultiSourceQuery sources
};

/// Popularity skew of hubs and targets: YCSB's Zipfian constant.
inline constexpr double kZipfTheta = 0.99;

/// Poisson arrivals at `rate` per second for `seconds`, kinds drawn from
/// the workload's mix, hubs and targets drawn Zipf(kZipfTheta)-popular,
/// all from `seed`.
std::vector<Request> MakeSchedule(const WorkloadConfig& config,
                                  const Inputs& inputs, double rate,
                                  double seconds, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
