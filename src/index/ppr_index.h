// PprIndex — a maintained index of PPR vectors for a dynamic set of source
// vertices over one shared DynamicGraph.
//
// §2.1 of the paper notes the general (non-unit) personalization case is
// served by "maintaining multiple PPR vectors with different personalized
// unit vectors"; hub-index systems (HubPPR, Guo et al.) maintain vectors
// for a set of hub vertices. PprIndex is that building block grown into a
// serving-shaped subsystem (replacing the old serial MultiSourcePpr):
//
//  1. Pooled engines — push engines (frontier + dedup flags + scratch) are
//     leased from a pool of min(K, threads) instead of owned per source,
//     so scratch memory stops scaling with K (see engine_pool.h).
//  2. Source-parallel maintenance — per batch the graph mutates ONCE while
//     a journal records each update's post-update out-degree; every source
//     then replays the journal concurrently (invariant restoration needs
//     only the recorded degree, preserving per-update intermediate-graph
//     correctness), and dirty sources are pushed across the engine pool
//     with work-stealing. A cost heuristic picks between across-source
//     sequential pushes (many small sources) and one-source-at-a-time
//     thread-parallel pushes (few large sources). Heavy-hitter endpoints
//     (vertices updated more often than their out-degree) are coalesced:
//     their replays collapse into one direct Eq. 2 solve per source.
//  3. Snapshot reads — after each push a source publishes an immutable
//     copy of its estimates stamped with the index's epoch, 1 + the update
//     requests the graph reflects (double-buffered with RCU-style
//     reclamation; see README.md). QueryVertex and TopKWithGuarantee run
//     against the latest published snapshot and are safe to call from any
//     thread concurrently with ApplyBatch.
//  4. Dynamic sources — AddSource / RemoveSource grow and shrink the hub
//     set online. The source table itself is copy-on-write behind an
//     atomic shared_ptr, so by-source reads stay safe while the
//     maintainer mutates the set.
//  5. Lazy materialization + LRU — a source is "materialized" when it
//     holds live PprState and a published snapshot. With
//     IndexOptions::max_materialized_sources set, the coldest sources
//     (LRU by read access) are evicted down to their id + frozen epoch,
//     and MaterializeSource rebuilds them on demand with a from-scratch
//     push at the current epoch, so K can exceed scratch memory.

#ifndef DPPR_INDEX_PPR_INDEX_H_
#define DPPR_INDEX_PPR_INDEX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/dynamic_ppr.h"
#include "core/ppr_options.h"
#include "core/query.h"
#include "graph/dynamic_graph.h"
#include "graph/types.h"
#include "index/engine_pool.h"

namespace dppr {

/// How ApplyBatch distributes push work over sources and threads.
enum class IndexPushMode {
  kAuto,           ///< cost heuristic (see PprIndex class comment)
  kAcrossSources,  ///< work-stealing over sources, sequential pushes
  kIntraSource,    ///< sources in turn, each push thread-parallel
};

/// \brief Configuration of a PprIndex.
struct IndexOptions {
  PprOptions ppr;  ///< per-source maintenance parameters (shared by all)

  /// Engines in the pool; 0 means min(K, hardware threads). Clamped to K.
  int engine_pool_size = 0;

  /// Pin each pooled engine (and, by first-touch, its scratch pages) to a
  /// memory node, round-robin, and bind the across-source worker leasing
  /// engine i to that node for the duration of its pushes (see
  /// engine_pool.h). No-op on single-node machines.
  bool numa_aware_engines = false;

  IndexPushMode push_mode = IndexPushMode::kAuto;

  /// Maximum number of materialized sources; 0 means unlimited. When the
  /// cap is exceeded (Initialize over a larger K, AddSource,
  /// MaterializeSource), the least-recently-read materialized sources are
  /// evicted down to the cap.
  size_t max_materialized_sources = 0;

  /// Restore-phase coalescing: when a batch touches one endpoint u more
  /// often than u's final out-degree, replaying each update costs more
  /// than re-solving Eq. 2 at u once against the final graph (the result
  /// is path-independent; see SolveInvariantAtVertex). The saved replays
  /// show up as restore_input_updates > restore_ops in the batch stats.
  /// Off reproduces the exact per-update replay arithmetic.
  bool coalesce_restore = true;
};

/// \brief One published, immutable snapshot of a source's estimates.
struct IndexSnapshot {
  /// The index's epoch at publish: 1 + the update requests the graph
  /// reflected (so Initialize publishes 1). 0 = never published.
  uint64_t epoch = 0;
  /// False before the first publish and after an eviction: the estimates
  /// are absent (empty) and the source must be (re-)materialized before
  /// it can serve reads again.
  bool materialized = false;
  std::vector<double> estimates;
};

/// \brief Work and timing of the most recent Initialize/ApplyBatch.
struct IndexBatchStats {
  /// Wall clock of the whole call — the honest cost of the batch. Under
  /// source-parallelism this is LESS than the sum of per-source seconds.
  double wall_seconds = 0.0;
  double restore_wall_seconds = 0.0;  ///< journal-replay phase wall clock
  double push_wall_seconds = 0.0;     ///< push + publish phase wall clock
  /// Per-source PushStats summed with PushStats::Add — counters are exact
  /// totals; the *_seconds inside are summed CPU time, not wall clock.
  PushStats sources_total;
  int sources_pushed = 0;
  int sources_skipped = 0;      ///< evicted sources the batch bypassed
  bool across_sources = false;  ///< mode the heuristic chose

  void Reset() { *this = IndexBatchStats(); }
};

/// \brief A source lifted out of one index for installation into another,
/// at a definite epoch — the unit the sharded router migrates when the
/// hash ring changes. For a materialized source `state` carries the live
/// (p, r) pair at the donor's epoch; an evicted source travels as id +
/// frozen epoch only (the receiving shard re-materializes on demand,
/// exactly as the LRU path does). Both indexes must be at the same graph
/// and epoch when the state is installed — the router guarantees this by
/// quiescing the shared update feed around a migration.
struct ExportedSource {
  VertexId source = kInvalidVertex;
  uint64_t epoch = 0;
  bool materialized = false;
  PprState state;  ///< empty unless materialized
};

/// \brief Callbacks the durable-storage tier installs so LRU eviction and
/// re-materialization round-trip through disk instead of recomputing.
///
/// The index deliberately has no storage dependency — src/storage sits
/// above it in the layering — so the coupling is two std::functions:
///  * `spill` fires during EvictColdSources, just before the victim's live
///    state is dropped, with a full export (state + published epoch). The
///    store writes it to disk stamped with the current log sequence.
///  * `rematerialize` fires in MaterializeSource before the from-scratch
///    fallback. The store loads the newest spill of `source`, and — only
///    if the spilled epoch equals `slot_epoch` (the epoch the slot froze
///    at, which eviction keeps) and the batch log still covers every
///    record since the spill — adopts the state into `ppr` and restores
///    the invariant at every endpoint the source missed while cold
///    (RestoreVertexDirect per distinct endpoint; path-independent, so
///    replaying the exact updates is unnecessary). Returns true with the
///    caught-up residuals accumulated in `ppr`'s touched set, leaving the
///    index to run the (now incremental) push and publish; false with
///    `ppr` untouched, and the caller recomputes from scratch.
/// Both run on the maintainer thread; no extra synchronization needed.
struct SpillHooks {
  std::function<void(const ExportedSource&)> spill;
  std::function<bool(VertexId source, uint64_t slot_epoch, DynamicPpr* ppr)>
      rematerialize;
};

/// \brief Outcome of a by-source snapshot read (the serving-layer API).
struct SourceReadResult {
  enum class Status {
    kOk,
    kUnknownSource,    ///< no such source in the table
    kNotMaterialized,  ///< evicted (or never materialized); re-materialize
  };
  Status status = Status::kUnknownSource;
  uint64_t epoch = 0;
  PointEstimate estimate;  ///< filled by QueryVertexForSource
  GuaranteedTopK topk;     ///< filled by TopKForSource
};

namespace internal {

/// Writer-publishes / reader-consumes cell for one source's estimates.
/// Double-buffered in steady state: the writer recycles the previously
/// published buffer once no reader holds it, so a publish is one vector
/// copy and no allocation. Readers get a shared_ptr to an immutable
/// snapshot — no torn reads, no use-after-free, regardless of how long a
/// reader holds on while ApplyBatch keeps publishing.
class SnapshotSlot {
 public:
  /// Writer-only (one publisher per slot at a time; PprIndex serializes
  /// this structurally — one source is pushed by exactly one worker).
  /// Publishes `estimates` stamped with `epoch`, the index's epoch.
  void Publish(const std::vector<double>& estimates, uint64_t epoch);

  /// Writer-only: drops the published estimates (and the recycle buffer).
  /// Readers holding the old snapshot keep it; new readers observe
  /// materialized == false at `epoch`, the epoch the state froze at.
  void Evict(uint64_t epoch);

  /// Any thread, any time. Never null; before the first publish it returns
  /// an empty snapshot with epoch 0.
  std::shared_ptr<const IndexSnapshot> Read() const;

  /// Epoch of the latest snapshot (0 before the first publish).
  uint64_t Epoch() const { return Read()->epoch; }

 private:
  std::atomic<std::shared_ptr<const IndexSnapshot>> current_;
  std::shared_ptr<IndexSnapshot> retired_;  ///< writer's recycle buffer
};

}  // namespace internal

/// \brief A dynamic set of incrementally maintained PPR vectors over one
/// shared graph, with pooled push engines, concurrently readable
/// snapshots, and LRU-evictable per-source state.
///
/// Thread-safety: the maintainer API — Initialize, ApplyBatch, AddSource,
/// RemoveSource, MaterializeSource, EvictColdSources — must be externally
/// serialized (one maintainer thread; PprService owns exactly that role).
/// The snapshot read API — Epoch, Snapshot, QueryVertex,
/// TopKWithGuarantee, and the *ForSource variants — may be called from any
/// number of threads concurrently with any maintainer call. Source()
/// exposes the live writer-side state and must not be touched while a
/// maintenance call runs.
class PprIndex {
 public:
  /// `sources` may be empty (hubs can be added online); listed sources
  /// must exist in the graph and be distinct.
  PprIndex(DynamicGraph* graph, std::vector<VertexId> sources,
           const IndexOptions& options);

  /// Convenience: default IndexOptions around `ppr_options`.
  PprIndex(DynamicGraph* graph, std::vector<VertexId> sources,
           const PprOptions& ppr_options);

  /// From-scratch computation for every source (pushed through the pool),
  /// followed by the first snapshot publish at the index's epoch (1 on a
  /// fresh index). Under a max_materialized_sources cap only the first
  /// `cap` sources materialize; the rest stay evicted until demanded.
  void Initialize();

  /// Batch maintenance: mutates the graph once (journaling post-update
  /// degrees), advances the epoch by `requests`, restores every
  /// materialized source's invariant by source-parallel journal replay
  /// (heavy-hitter endpoints coalesced into direct solves), pushes those
  /// sources across the engine pool, and publishes a fresh snapshot per
  /// source. Evicted sources are skipped — re-materialization recomputes
  /// from scratch anyway.
  ///
  /// `requests` is the number of update requests folded into `batch`: a
  /// caller that merged N queued requests passes N, so every replica of
  /// this index — however its maintenance thread happened to batch the
  /// same feed — reaches the same epoch for the same prefix of requests.
  void ApplyBatch(const UpdateBatch& batch, uint64_t requests = 1);

  /// Adopts `epoch` as the feed position, before any source is
  /// materialized: a replica cloned from a donor's graph, or one recovered
  /// from a checkpoint, starts where its graph is instead of at 1.
  void SetEpoch(uint64_t epoch);

  // --- Dynamic source set (maintainer-serialized) -----------------------

  /// Adds `s` as a new source: from-scratch push on the current graph
  /// through a pooled engine, snapshot published at the index's epoch,
  /// then the source table is swapped copy-on-write. Returns false (and
  /// changes nothing) if `s` is already a source or not a vertex of the
  /// graph.
  bool AddSource(VertexId s);

  /// Removes source `s` from the table (copy-on-write; readers holding
  /// the old table or old snapshots keep them). False if unknown.
  bool RemoveSource(VertexId s);

  /// Rebuilds an evicted source's state with a from-scratch push and
  /// publishes it at the index's epoch. True if `s` is materialized on
  /// return (including "was already"); false if `s` is not a source.
  bool MaterializeSource(VertexId s);

  /// Evicts least-recently-read materialized sources until at most
  /// `keep_materialized` remain. Returns the number evicted.
  size_t EvictColdSources(size_t keep_materialized);

  /// Installs (or clears, with default-constructed hooks) the durable
  /// spill callbacks. Maintainer-serialized like the calls that fire them.
  void SetSpillHooks(SpillHooks hooks) { spill_hooks_ = std::move(hooks); }

  /// How many MaterializeSource calls were served by the spill hook
  /// (restore + catch-up) instead of a from-scratch recompute.
  int64_t SpillRematerializations() const {
    return spill_rematerializations_.load(std::memory_order_relaxed);
  }

  // --- Source migration (maintainer-serialized) -------------------------

  /// Lifts source `s` out of the index: fills *out with its state (a copy
  /// of the live (p, r) for a materialized source; id + epoch only for an
  /// evicted one) and removes it from the table. Readers holding old
  /// snapshots keep them; new reads answer kUnknownSource. False (and *out
  /// untouched) if `s` is not a source.
  bool ExportSource(VertexId s, ExportedSource* out);

  /// ExportSource without the removal: fills *out with a copy of `s`'s
  /// state at its current epoch and leaves the index untouched. This is
  /// the standby-sync read — a replica set copies a source onto a standby
  /// while the primary keeps serving it. False if `s` is not a source.
  bool PeekSource(VertexId s, ExportedSource* out) const;

  /// Installs a source exported from another index at the same graph and
  /// epoch: adds the slot, adopts the carried state without any push, and
  /// re-publishes the same bytes at the same epoch, so a source that
  /// merely changed shards never appears to regress or skip. An
  /// unmaterialized export stays evicted at its frozen epoch. False (and
  /// no change) if the source already exists or is not a graph vertex, or
  /// if a materialized state is at another epoch or has more vertices
  /// than the graph.
  bool ImportSource(ExportedSource in);

  // --- Table inspection (safe from any thread) --------------------------

  /// The graph this index maintains state over (not owned). The pointer is
  /// fixed for the index's lifetime; mutating the graph is the
  /// maintainer's privilege like every other maintenance call.
  const DynamicGraph* graph() const { return graph_; }

  size_t NumSources() const { return CurrentTable()->slots.size(); }
  VertexId SourceVertex(size_t i) const;
  std::vector<VertexId> Sources() const;
  bool HasSource(VertexId s) const;
  /// True iff `s` is a source with a live published snapshot. Safe from
  /// any thread (it consults the atomic snapshot, not writer-side state).
  bool IsMaterializedSource(VertexId s) const;
  /// Materialized-source count. Maintainer-side (walks writer state).
  size_t NumMaterializedSources() const;

  /// Writer-side state of source `i`. NOT safe concurrently with the
  /// maintainer API, and the source must be materialized — concurrent
  /// readers use the snapshot API below.
  const DynamicPpr& Source(size_t i) const;
  DynamicPpr& Source(size_t i);

  // --- Snapshot reads: safe concurrently with maintenance ---------------

  /// The index's epoch: 1 + the update requests its graph reflects. Every
  /// materialized source publishes at it; an evicted one keeps the epoch
  /// it froze at.
  uint64_t Epoch() const { return epoch_.load(std::memory_order_acquire); }
  /// Epoch of source `i`'s latest snapshot (0 before its first publish).
  uint64_t Epoch(size_t i) const;

  /// The latest published snapshot of source `i` (shared, immutable).
  std::shared_ptr<const IndexSnapshot> Snapshot(size_t i) const;

  /// p[v] ± eps from the latest snapshot. Vertices newer than the snapshot
  /// read as 0 (their estimate at snapshot time).
  PointEstimate QueryVertex(size_t i, VertexId v) const;

  /// Certified top-k over the latest snapshot.
  GuaranteedTopK TopKWithGuarantee(size_t i, int k) const;

  /// By-source reads for the serving layer: resolve the source in the
  /// current table and read its snapshot in one consistent step (an index
  /// obtained separately could be remapped by a concurrent
  /// AddSource/RemoveSource). Null iff `s` is not a source.
  std::shared_ptr<const IndexSnapshot> SnapshotForSource(VertexId s) const;
  SourceReadResult QueryVertexForSource(VertexId s, VertexId v) const;
  SourceReadResult TopKForSource(VertexId s, int k) const;

  // --- Accounting -------------------------------------------------------

  /// Wall clock of the last Initialize/ApplyBatch. This is the elapsed
  /// time of the call, NOT the sum of per-source seconds (which overstates
  /// cost under source-parallelism; the summed view lives in
  /// last_batch_stats().sources_total).
  double LastBatchSeconds() const { return last_batch_stats_.wall_seconds; }

  const IndexBatchStats& last_batch_stats() const {
    return last_batch_stats_;
  }

  /// Engines actually pooled: min(K, pool size); 0 for the sequential
  /// variant, which needs no engine state.
  int NumPooledEngines() const { return pool_.size(); }

  /// Reusable scratch held by the index (engine pool + journal). Grows
  /// with min(K, pool size), not with K — per-source memory is only the
  /// O(V) estimate/residual state itself.
  size_t ApproxScratchBytes() const;

  const IndexOptions& options() const { return options_; }

 private:
  struct SourceSlot {
    explicit SourceSlot(VertexId s) : source(s) {}
    const VertexId source;
    std::unique_ptr<DynamicPpr> ppr;  ///< null while evicted
    internal::SnapshotSlot snapshot;
    /// LRU tick of the last read; mutable because reads bump it through
    /// const accessors.
    mutable std::atomic<uint64_t> last_used{0};
  };
  using SlotList = std::vector<std::shared_ptr<SourceSlot>>;
  /// The source table: immutable once published; mutations swap in a
  /// copy (PublishTable). Carries a by-source hash index so the serving
  /// path resolves source → slot in O(1) instead of scanning K slots.
  struct SourceTable {
    SlotList slots;
    std::unordered_map<VertexId, std::shared_ptr<SourceSlot>> by_source;
  };

  /// One journaled graph mutation: the update plus u's post-update
  /// out-degree — everything RestoreInvariant needs from the graph.
  struct JournaledUpdate {
    EdgeUpdate update;
    VertexId dout_after = 0;
  };

  std::shared_ptr<const SourceTable> CurrentTable() const {
    return table_.load(std::memory_order_acquire);
  }
  /// Builds the by-source index and atomically publishes the new table.
  void PublishTable(SlotList slots);
  std::shared_ptr<SourceSlot> FindSlot(VertexId s) const;
  void Touch(const SourceSlot& slot) const;
  void EnsurePpr(SourceSlot* slot);
  void BuildCoalescePlan();
  void ReplayJournal(DynamicPpr* ppr) const;
  void EnforceLruCap();
  bool ChooseAcrossSources(int64_t est_work_per_source) const;
  void PushAll(const std::vector<SourceSlot*>& slots,
               int64_t est_work_per_source, bool initialize);
  void PushSource(SourceSlot* slot, ParallelPushEngine* engine,
                  bool initialize);

  DynamicGraph* graph_;
  IndexOptions options_;
  /// 1 + the update requests applied; written by the maintainer only.
  std::atomic<uint64_t> epoch_{1};
  std::atomic<std::shared_ptr<const SourceTable>> table_;
  EnginePool pool_;
  std::vector<JournaledUpdate> journal_;
  /// Restore-coalescing plan for the current journal (source-independent:
  /// update counts and final degrees are graph facts shared by every
  /// source). journal_skip_[j] marks entries absorbed by a direct solve
  /// of their endpoint, listed once in coalesced_endpoints_.
  std::vector<uint8_t> journal_skip_;
  std::vector<VertexId> coalesced_endpoints_;
  int64_t coalesced_entries_ = 0;
  mutable std::atomic<uint64_t> lru_clock_{1};
  IndexBatchStats last_batch_stats_;
  SpillHooks spill_hooks_;
  std::atomic<int64_t> spill_rematerializations_{0};
};

}  // namespace dppr

#endif  // DPPR_INDEX_PPR_INDEX_H_
