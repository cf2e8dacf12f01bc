// DurableStore — the storage tier's front door: one object per data
// directory tying the batch log, checkpoints, and state spill together.
//
// Write path (all on the maintenance thread, which already serializes
// every mutation): PprService calls LogBatch / LogAddSource /
// LogRemoveSource / LogInjectSource BEFORE applying the corresponding
// mutation — classic WAL discipline, so after a crash the log is always
// at or ahead of the applied state and replay can only move forward.
// Every `checkpoint_every` batch records the service asks for a
// checkpoint (ShouldCheckpoint/WriteCheckpoint), which captures graph +
// sources + feed sequence and advances the manifest's replay offset.
//
// Recovery path: Open() scans the log (truncating a torn tail) and loads
// the newest checkpoint via the manifest; RestoreGraph() swaps the
// checkpointed graph in; Replay() sets the index's epoch from the
// checkpoint, imports the checkpointed sources and re-applies every log
// record at or past the manifest offset, in order. The feed sequence is
// the index's epoch minus one, and batch records carry the exact
// coalesced request count, so replay reproduces the exact epoch the
// pre-crash process published — restart can never answer with a
// regressed epoch.
//
// Spill path: MakeSpillHooks() returns the PprIndex callbacks. Eviction
// writes the state to disk stamped with the current feed sequence;
// rematerialization restores it and catches up by re-solving the
// invariant at every endpoint that appeared in batch records since the
// spill (the Eq. 2 solve is path-independent, see SolveInvariantAtVertex)
// — turning a from-scratch push into an incremental one. The store keeps
// a bounded in-memory endpoint history for this; a spill older than the
// history floor falls back to recompute.

#ifndef DPPR_STORAGE_DURABLE_STORE_H_
#define DPPR_STORAGE_DURABLE_STORE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "graph/dynamic_graph.h"
#include "graph/types.h"
#include "index/ppr_index.h"
#include "storage/batch_log.h"
#include "storage/checkpoint.h"
#include "storage/state_spill.h"
#include "util/status.h"

namespace dppr {
namespace storage {

struct DurableStoreOptions {
  /// fsync the log on every append (the durability contract). Tests and
  /// benches may trade it away.
  bool fsync_on_commit = true;

  /// Take a checkpoint every N batch records (0 = only when the caller
  /// asks explicitly).
  uint64_t checkpoint_every = 0;

  /// Batch records of endpoint history kept in memory for spill catch-up.
  /// Older spills fall back to a from-scratch recompute.
  size_t max_catchup_records = 4096;
};

class DurableStore {
 public:
  /// `feed_seq` is where an empty directory's log starts: the seed
  /// state's feed sequence, so a replica cloned mid-feed logs from its
  /// donor's position rather than from 0.
  explicit DurableStore(std::string dir, DurableStoreOptions options = {},
                        uint64_t feed_seq = 0);

  /// Creates the directory if needed, recovers the log (torn-tail
  /// truncation), loads the manifest + newest checkpoint when present.
  Status Open();

  bool has_checkpoint() const { return has_checkpoint_; }
  const CheckpointData& checkpoint() const { return checkpoint_; }

  /// Feed sequence: cumulative update requests applied (advanced by
  /// LogBatch and by Replay) — the index's epoch minus one.
  uint64_t feed_seq() const { return feed_seq_; }
  uint64_t log_end_offset() const { return log_.end_offset(); }
  uint64_t log_truncated_bytes() const { return log_.truncated_bytes(); }
  /// Records the opening scan recovered (0 after Replay releases them —
  /// sample between Open and Replay to decide whether to recover).
  size_t recovered_log_records() const { return log_.records().size(); }

  /// Replaces *graph with the checkpointed graph (no-op without a
  /// checkpoint — the caller's seed graph then IS the replay base, so it
  /// must match what the original process started from).
  Status RestoreGraph(DynamicGraph* graph) const;

  /// Rebuilds `index` (which must be empty-sourced over the graph
  /// RestoreGraph produced): sets its epoch to the checkpoint's feed
  /// position (without a checkpoint the index's seed epoch is the replay
  /// base), imports the checkpointed sources, then re-applies every log
  /// record from the manifest offset on. Also rebuilds the spill catch-up
  /// history from the full log and releases the recovered record
  /// payloads. Corruption if the index does not end at the log's feed
  /// sequence.
  Status Replay(PprIndex* index);

  // --- WAL (call BEFORE applying the mutation; maintenance thread) ------
  Status LogBatch(const UpdateBatch& batch, uint32_t increment);
  Status LogAddSource(VertexId s);
  Status LogRemoveSource(VertexId s);
  Status LogInjectSource(const ExportedSource& src);

  // --- Checkpoint cadence ----------------------------------------------
  bool ShouldCheckpoint() const;
  /// Captures graph + every source of `index` at the current feed
  /// sequence (Corruption if the index's epoch is not that sequence + 1)
  /// and publishes it through the manifest. The manifest swap is
  /// the commit point; once it lands, the previous checkpoint generation
  /// and any spill blob whose source has left the index are unreachable,
  /// so both are garbage-collected (best-effort — a failed unlink costs
  /// disk, never correctness).
  Status WriteCheckpoint(const PprIndex& index);

  // --- Spill ------------------------------------------------------------
  /// Callbacks for PprIndex::SetSpillHooks. The returned hooks reference
  /// this store; it must outlive the index they're installed on.
  SpillHooks MakeSpillHooks();

  int64_t spills_written() const { return spills_written_; }
  int64_t spill_restores() const { return spill_restores_; }
  uint64_t checkpoints_written() const { return checkpoints_written_; }
  uint64_t checkpoints_deleted() const { return checkpoints_deleted_; }
  uint64_t spills_deleted() const { return spills_deleted_; }

 private:
  /// One batch record's contribution to catch-up: the feed sequence it
  /// started at and the distinct endpoints whose invariant it re-solved.
  struct BatchEndpoints {
    uint64_t seq = 0;
    std::vector<VertexId> endpoints;  ///< distinct update.u values
  };

  Status AppendRecord(LogRecordType type, uint32_t increment,
                      std::string payload);
  void RememberEndpoints(uint64_t seq, const UpdateBatch& batch);
  /// OK iff `index`'s epoch is this store's feed sequence + 1.
  Status CheckInStep(const PprIndex& index) const;
  bool Rematerialize(VertexId source, uint64_t slot_epoch, DynamicPpr* ppr);
  void CollectGarbage(std::vector<VertexId> live_sources);

  const std::string dir_;
  const DurableStoreOptions options_;
  BatchLog log_;
  StateSpill spill_;
  bool opened_ = false;
  bool has_checkpoint_ = false;
  CheckpointData checkpoint_;
  Manifest manifest_;
  uint64_t feed_seq_;
  uint64_t batches_since_checkpoint_ = 0;
  uint64_t checkpoints_written_ = 0;
  uint64_t checkpoints_deleted_ = 0;
  uint64_t spills_deleted_ = 0;
  int64_t spills_written_ = 0;
  int64_t spill_restores_ = 0;

  /// Catch-up history, oldest first, bounded by max_catchup_records.
  std::deque<BatchEndpoints> history_;
  /// Lowest feed sequence the history still covers: a spill taken at
  /// seq >= floor can catch up; older ones recompute. 0 until a record
  /// was ever dropped (then it is the oldest retained record's seq).
  uint64_t history_floor_seq_ = 0;
};

}  // namespace storage
}  // namespace dppr

#endif  // DPPR_STORAGE_DURABLE_STORE_H_
