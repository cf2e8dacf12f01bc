// Dynamic walk index: a few alpha-terminating walks from EVERY vertex,
// kept fresh under edge updates by per-walk repair (never bulk
// regeneration).
//
// This is the FORA-style pre-sampled walk store [Wang et al., FORA, KDD
// 2017] married to Bahmani-style incremental repair [Bahmani et al.,
// PVLDB 2010] via mc/walk_repair.h. The hybrid estimator consumes it as
// the sampling side of the BiPPR identity: for any target state with
// residuals r_t,
//
//   pi_s(t) = x_t(s) + E[ sum_{v in trace(walk from s)} r_t(v) ],
//
// because the expected visit count of v by an alpha-walk from s is
// exactly the measure mu_s(v) appearing in the push invariant. Averaging
// the trace-sum over this index's walks from s gives an unbiased
// correction on top of the deterministic push estimate.
//
// Determinism contract: walk w of vertex v has the fixed id
// v * walks_per_vertex + w; every coin it ever flips comes from
// walk_repair::MakeWalkRng(seed, update_epoch, id). The whole index is
// therefore a pure function of (seed, update sequence) — independent of
// batch coalescing and thread schedule — so every shard replicates the
// SAME index and hybrid queries route purely by target.

#ifndef DPPR_ESTIMATOR_WALK_INDEX_H_
#define DPPR_ESTIMATOR_WALK_INDEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/dynamic_graph.h"
#include "graph/types.h"
#include "mc/walk_store.h"

namespace dppr {

struct WalkIndexOptions {
  double alpha = 0.15;
  /// Walks sampled per vertex. Hybrid variance scales as 1/walks_per_vertex;
  /// memory as walks_per_vertex * |V| * E[trace length] (~1/alpha).
  int walks_per_vertex = 4;
  uint64_t seed = 42;
};

/// \brief Replicated per-vertex walk store with incremental repair.
///
/// Thread-safety: none; the owner serializes commits against reads.
class WalkIndex {
 public:
  explicit WalkIndex(const WalkIndexOptions& options);

  /// Samples walks_per_vertex walks from every vertex of `graph`
  /// (update epoch 0). Replaces any previous contents.
  void Initialize(const DynamicGraph& graph);

  /// Replacement walks by id: the repairs one update calls for.
  using Repairs = std::vector<std::pair<int64_t, Walk>>;

  /// Maintains the index for ONE update `graph` has ALREADY applied.
  /// `update_epoch` is the caller's count of updates processed so far
  /// (1-based) — it keys the repair RNG streams, so it must advance by
  /// exactly one per update regardless of batching. New vertices
  /// introduced by the update get fresh walks appended in id order.
  /// Same as Commit(graph, Repair(graph, update, update_epoch), ...).
  void ApplyUpdate(const DynamicGraph& graph, const EdgeUpdate& update,
                   uint64_t update_epoch);

  /// ApplyUpdate in two halves, so an owner can let readers use the
  /// index while an update's repairs are computed and lock them out only
  /// for the commit. Repair only reads the index; Commit writes the
  /// repairs and appends walks for new vertices. Commit each update's
  /// repairs before repairing the next update.
  Repairs Repair(const DynamicGraph& graph, const EdgeUpdate& update,
                 uint64_t update_epoch) const;
  void Commit(const DynamicGraph& graph, Repairs repairs,
              uint64_t update_epoch);

  /// Mean over s's walks of sum_{v in trace} residuals[v] — the unbiased
  /// hybrid correction term. `s` outside the indexed range returns 0.
  double TraceSumMean(VertexId s, const std::vector<double>& residuals) const;

  int walks_per_vertex() const { return options_.walks_per_vertex; }
  VertexId num_vertices() const { return num_vertices_; }
  int64_t NumWalks() const { return store_.NumWalks(); }
  int64_t ApproxMemoryBytes() const { return store_.ApproxMemoryBytes(); }
  int64_t walks_repaired() const { return walks_repaired_; }

 private:
  void AppendWalksForNewVertices(const DynamicGraph& graph,
                                 uint64_t update_epoch);

  WalkIndexOptions options_;
  WalkStore store_;
  VertexId num_vertices_ = 0;  ///< vertices that own walks
  int64_t walks_repaired_ = 0;
};

}  // namespace dppr

#endif  // DPPR_ESTIMATOR_WALK_INDEX_H_
