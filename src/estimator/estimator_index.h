// EstimatorIndex: the estimator subsystem's maintained state — reverse
// push targets + the replicated walk index — behind one object the
// service's maintenance thread drives.
//
// Query classes served (see src/estimator/README.md for contracts):
//  * QueryPair(s, t):  pi_s(t) +/- eps, deterministic (reverse push only);
//  * ReverseTopK(t,k): the sources closest to t, with certified prefix;
//  * HybridPair(s, t): push estimate + unbiased walk correction (BiPPR
//    identity) — same deterministic interval, better tail accuracy.
//
// Ownership and concurrency: the index owns a PRIVATE DynamicGraph
// replica. Walk repair is not path-independent — repairing walks for
// update k requires the graph state after exactly updates 1..k — while
// the service's PprIndex applies whole batches to its own graph; a
// private replica applied one update at a time keeps walk determinism
// exact. Forward reads through PprIndex never touch the locks below.
//
// Locking: maintenance never holds a lock that reads take for longer
// than one target's push or one update's walk commit, so a read waits
// for that much at most, never for a whole batch:
//  * maint_mu_ serializes the writers (ApplyBatch, AddTarget,
//    RemoveTarget) and guards the replica, which reads never touch;
//  * mu_ guards the target map, the walk index and the epoch — writers
//    hold it exclusively only to insert or erase a target, to commit one
//    update's walk repairs, and to record the batch's epoch;
//  * each target's own lock guards its push state and epoch while
//    maintenance restores and pushes that target.
// Epochs are the serving index's: the service hands each batch the
// index's epoch, and every target is stamped with it once pushed. A read
// during a batch sees each target before or after its push, and reports
// that target's epoch. A hybrid read there may combine walks
// repaired for the batch with a target not yet pushed: its point stays
// clamped inside the interval of the epoch it reports, and the
// correction is unbiased again once the batch is done.
//
// Durability: estimator state is VOLATILE. Targets are registered by
// clients and not written to the batch log; after crash recovery the
// subsystem restarts empty and clients (or the router's SyncReplica
// reconciliation) re-register targets. Rebuild cost is one
// InitializeFromScratch per target plus one walk-index resample.

#ifndef DPPR_ESTIMATOR_ESTIMATOR_INDEX_H_
#define DPPR_ESTIMATOR_ESTIMATOR_INDEX_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "core/query.h"
#include "estimator/reverse_push.h"
#include "estimator/walk_index.h"
#include "graph/dynamic_graph.h"
#include "graph/types.h"

namespace dppr {

struct EstimatorOptions {
  /// Master switch: when false, PprService skips construction entirely and
  /// estimator queries are rejected.
  bool enabled = false;
  /// Forced equal to the serving index's alpha at service start.
  double alpha = 0.15;
  /// Deterministic per-source error bound for pair / reverse-top-k reads.
  double eps = 1e-4;
  int walks_per_vertex = 4;
  uint64_t seed = 42;
};

/// \brief Result of a single-pair (or hybrid) estimator read.
struct PairResult {
  bool known = false;  ///< false: target not registered
  uint64_t epoch = 0;
  PointEstimate estimate;
};

/// \brief Result of a reverse top-k read.
struct ReverseTopKResult {
  bool known = false;
  uint64_t epoch = 0;
  GuaranteedTopK topk;
};

/// \brief All maintained estimator state for one shard.
class EstimatorIndex {
 public:
  /// Clones `snapshot` as the private replica and samples the walk index.
  /// `epoch` is the serving index's epoch at `snapshot`.
  EstimatorIndex(const DynamicGraph& snapshot, const EstimatorOptions& options,
                 uint64_t epoch = 1);

  /// Applies `batch` to the replica (one update at a time, repairing
  /// walks per update), then restores + pushes every registered target,
  /// one at a time, stamping each with `epoch` — the serving index's
  /// epoch after the same batch. Must mirror the exact update feed the
  /// serving index applies.
  void ApplyBatch(const UpdateBatch& batch, uint64_t epoch);

  /// Registers a target (idempotent), pushing its state from scratch
  /// before reads can see it, at the last stamped epoch. Returns false if
  /// `t` is not a valid vertex of the replica.
  bool AddTarget(VertexId t);
  /// Returns false if `t` was not registered.
  bool RemoveTarget(VertexId t);
  bool HasTarget(VertexId t) const;
  std::vector<VertexId> Targets() const;

  PairResult QueryPair(VertexId s, VertexId t) const;
  PairResult HybridPair(VertexId s, VertexId t) const;
  ReverseTopKResult ReverseTopK(VertexId t, int k) const;

  uint64_t epoch() const;
  const EstimatorOptions& options() const { return options_; }
  /// Replica fingerprint — must track the serving graph's checksum.
  uint64_t GraphChecksum() const;

 private:
  /// One registered target: its push state behind its own lock.
  struct Target {
    Target(const DynamicGraph* graph, VertexId t,
           const ReverseOptions& options)
        : state(graph, t, options) {}
    mutable std::shared_mutex mu;
    ReverseTargetState state;  ///< guarded by mu
    uint64_t epoch = 0;        ///< guarded by mu: the epoch state reflects
  };

  PointEstimate MakeEstimate(double value) const;

  mutable std::mutex maint_mu_;
  mutable std::shared_mutex mu_;
  EstimatorOptions options_;
  DynamicGraph graph_;  ///< guarded by maint_mu_
  WalkIndex walks_;     ///< written under both locks, read under either
  /// Shape written under both locks, read under either.
  std::map<VertexId, std::unique_ptr<Target>> targets_;
  uint64_t epoch_;  ///< the last epoch handed in; guarded as targets_
  uint64_t update_seq_ = 0;  ///< guarded by maint_mu_; keys walk RNGs
};

}  // namespace dppr

#endif  // DPPR_ESTIMATOR_ESTIMATOR_INDEX_H_
