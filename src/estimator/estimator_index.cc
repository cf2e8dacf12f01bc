#include "estimator/estimator_index.h"

#include <algorithm>
#include <mutex>
#include <unordered_set>

#include "util/macros.h"

namespace dppr {

EstimatorIndex::EstimatorIndex(const DynamicGraph& snapshot,
                               const EstimatorOptions& options,
                               uint64_t epoch)
    : options_(options),
      graph_(DynamicGraph::FromEdges(snapshot.ToEdgeList(),
                                     snapshot.NumVertices())),
      walks_(WalkIndexOptions{options.alpha, options.walks_per_vertex,
                              options.seed}),
      epoch_(epoch) {
  DPPR_CHECK(options.alpha > 0.0 && options.alpha < 1.0);
  DPPR_CHECK(options.eps > 0.0);
  DPPR_CHECK(graph_.Checksum() == snapshot.Checksum());
  walks_.Initialize(graph_);
}

void EstimatorIndex::ApplyBatch(const UpdateBatch& batch, uint64_t epoch) {
  std::lock_guard maint(maint_mu_);
  // Walk repair needs the intermediate graph after each single update.
  // Repairs are computed while reads go on (only this thread writes the
  // index) and committed one update at a time.
  for (const EdgeUpdate& update : batch) {
    graph_.Apply(update);
    ++update_seq_;
    WalkIndex::Repairs repairs = walks_.Repair(graph_, update, update_seq_);
    std::unique_lock lock(mu_);
    walks_.Commit(graph_, std::move(repairs), update_seq_);
  }
  // Reverse restore is path-independent, so each target catches up once
  // at the end from the set of touched out-rows, under its own lock.
  std::unordered_set<VertexId> touched;
  for (const EdgeUpdate& update : batch) touched.insert(update.u);
  for (auto& [t, target] : targets_) {
    std::unique_lock lock(target->mu);
    if (!batch.empty()) {
      target->state.EnsureCapacity(graph_.NumVertices());
      for (const VertexId u : touched) target->state.RestoreVertex(u);
      target->state.Push();
    }
    target->epoch = epoch;
  }
  std::unique_lock lock(mu_);
  epoch_ = epoch;
}

bool EstimatorIndex::AddTarget(VertexId t) {
  std::lock_guard maint(maint_mu_);
  if (!graph_.IsValid(t)) return false;
  if (targets_.count(t) > 0) return true;
  auto target = std::make_unique<Target>(
      &graph_, t, ReverseOptions{options_.alpha, options_.eps});
  target->epoch = epoch_;
  std::unique_lock lock(mu_);
  targets_.emplace(t, std::move(target));
  return true;
}

bool EstimatorIndex::RemoveTarget(VertexId t) {
  std::lock_guard maint(maint_mu_);
  std::unique_lock lock(mu_);
  return targets_.erase(t) > 0;
}

bool EstimatorIndex::HasTarget(VertexId t) const {
  std::shared_lock lock(mu_);
  return targets_.count(t) > 0;
}

std::vector<VertexId> EstimatorIndex::Targets() const {
  std::shared_lock lock(mu_);
  std::vector<VertexId> out;
  out.reserve(targets_.size());
  for (const auto& [t, target] : targets_) out.push_back(t);
  return out;
}

PointEstimate EstimatorIndex::MakeEstimate(double value) const {
  PointEstimate e;
  e.value = value;
  e.lower = std::max(value - options_.eps, 0.0);
  e.upper = value + options_.eps;
  return e;
}

PairResult EstimatorIndex::QueryPair(VertexId s, VertexId t) const {
  std::shared_lock lock(mu_);
  PairResult out;
  auto it = targets_.find(t);
  if (it == targets_.end()) return out;
  const Target& target = *it->second;
  std::shared_lock target_lock(target.mu);
  out.known = true;
  out.epoch = target.epoch;
  out.estimate = MakeEstimate(target.state.Estimate(s));
  return out;
}

PairResult EstimatorIndex::HybridPair(VertexId s, VertexId t) const {
  std::shared_lock lock(mu_);
  PairResult out;
  auto it = targets_.find(t);
  if (it == targets_.end()) return out;
  const Target& target = *it->second;
  std::shared_lock target_lock(target.mu);
  const double base = target.state.Estimate(s);
  // BiPPR identity: the residual trace-sum is an unbiased estimate of
  // pi_s(t) - x_t(s); the deterministic +/- eps interval around the push
  // value still contains the truth, so clamp the corrected point into it.
  const double corrected =
      base + walks_.TraceSumMean(s, target.state.residuals());
  out.known = true;
  out.epoch = target.epoch;
  out.estimate = MakeEstimate(base);
  out.estimate.value =
      std::clamp(corrected, out.estimate.lower, out.estimate.upper);
  return out;
}

ReverseTopKResult EstimatorIndex::ReverseTopK(VertexId t, int k) const {
  std::shared_lock lock(mu_);
  ReverseTopKResult out;
  auto it = targets_.find(t);
  if (it == targets_.end()) return out;
  const Target& target = *it->second;
  std::shared_lock target_lock(target.mu);
  out.known = true;
  out.epoch = target.epoch;
  out.topk = TopKWithGuarantee(target.state.estimates(), options_.eps, k);
  return out;
}

uint64_t EstimatorIndex::epoch() const {
  std::shared_lock lock(mu_);
  return epoch_;
}

uint64_t EstimatorIndex::GraphChecksum() const {
  std::lock_guard maint(maint_mu_);
  return graph_.Checksum();
}

}  // namespace dppr
