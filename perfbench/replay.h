// The traced maintenance replay: the workload's own batch sequence run
// through a stack the benchmark owns, one call per layer, each call a
// child span of its batch's span.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstddef>
#include <map>
#include <string>

#include "perfbench/inputs.h"
#include "perfbench/load.h"

namespace perfbench {

/// Per-layer metrics of the replay, by their BENCHMARK.json names.
using MetricMap = std::map<std::string, double>;

/// Replays `inputs.batches[0, num_batches)` from the initial graph: the
/// durable log and checkpoints plus the spill path, PprIndex::ApplyBatch,
/// DynamicGraph apply, and the estimator's walk repair and reverse push
/// (estimator workloads). The first
/// kWarmupBatches are the warm-up; the rest are steady state. Runs on
/// every hardware thread, then runs the index part again at one OpenMP
/// thread. `dir` (and `dir`-spill) receive the replay's logs.
MetricMap ReplayMaintenance(const WorkloadConfig& config,
                            const Inputs& inputs, size_t num_batches,
                            const std::string& dir, SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
