#include "index/ppr_index.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/macros.h"
#include "util/numa.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace dppr {
namespace internal {

void SnapshotSlot::Publish(const std::vector<double>& estimates,
                           uint64_t epoch) {
  std::shared_ptr<IndexSnapshot> buf;
#if !DPPR_TSAN_BUILD
  // Double-buffer steady state: the previously displaced snapshot has no
  // readers left, so its vector is reused — no allocation per publish.
  // The fence pairs with the release-decrement of the last reader's
  // shared_ptr destruction, making its final reads happen-before the
  // writes below (the use_count load alone does not synchronize). TSan
  // cannot model fence synchronization (and GCC rejects the fence under
  // -fsanitize=thread), so TSan builds always take the allocating path —
  // merely slower, and free of modeled-race false positives.
  if (retired_ != nullptr && retired_.use_count() == 1) {
    std::atomic_thread_fence(std::memory_order_acquire);
    buf = std::move(retired_);
    buf->estimates.assign(estimates.begin(), estimates.end());
  }
#endif
  if (buf == nullptr) {
    buf = std::make_shared<IndexSnapshot>();
    buf->estimates = estimates;
  }
  buf->epoch = epoch;
  buf->materialized = true;
  std::shared_ptr<const IndexSnapshot> old = current_.exchange(
      std::shared_ptr<const IndexSnapshot>(std::move(buf)),
      std::memory_order_acq_rel);
  retired_ = std::const_pointer_cast<IndexSnapshot>(old);
}

void SnapshotSlot::Evict(uint64_t epoch) {
  auto empty = std::make_shared<IndexSnapshot>();
  empty->epoch = epoch;
  empty->materialized = false;
  current_.store(std::shared_ptr<const IndexSnapshot>(std::move(empty)),
                 std::memory_order_release);
  retired_.reset();  // the recycle buffer is the memory being reclaimed
}

std::shared_ptr<const IndexSnapshot> SnapshotSlot::Read() const {
  std::shared_ptr<const IndexSnapshot> snap =
      current_.load(std::memory_order_acquire);
  if (snap == nullptr) {
    static const std::shared_ptr<const IndexSnapshot> kEmpty =
        std::make_shared<IndexSnapshot>();
    return kEmpty;
  }
  return snap;
}

}  // namespace internal

namespace {

int ComputePoolSize(const IndexOptions& options, size_t num_sources) {
  int size = options.engine_pool_size > 0 ? options.engine_pool_size
                                          : NumThreads();
  size = std::min(size, static_cast<int>(num_sources));
  return std::max(size, 1);
}

/// Work-stealing loop over source indices: `fn(i)` runs exactly once per i,
/// claimed dynamically by up to `max_workers` threads. Sources are coarse,
/// uneven tasks (frontier sizes differ wildly between hubs), which is
/// exactly what stealing over a shared counter load-balances.
template <typename Fn>
void ForEachSourceStealing(size_t n, int max_workers, Fn&& fn) {
  if (n == 0) return;
  if (max_workers <= 1 || n < 2 || NumThreads() == 1) {
    for (size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  std::atomic<size_t> next{0};
  ParallelRegion([&](int tid, int /*num_threads*/) {
    if (tid >= max_workers) return;
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      fn(i, tid);
    }
  });
}

}  // namespace

PprIndex::PprIndex(DynamicGraph* graph, std::vector<VertexId> sources,
                   const IndexOptions& options)
    : graph_(graph),
      options_(options),
      pool_(options.ppr, ComputePoolSize(options, sources.size()),
            options.numa_aware_engines) {
  DPPR_CHECK(graph != nullptr);
  DPPR_CHECK(options.ppr.Validate().ok());
  SlotList list;
  list.reserve(sources.size());
  std::unordered_set<VertexId> seen;
  for (VertexId s : sources) {
    DPPR_CHECK_MSG(graph->IsValid(s), "source must exist in the graph");
    DPPR_CHECK_MSG(seen.insert(s).second, "duplicate source vertex");
    list.push_back(std::make_shared<SourceSlot>(s));
  }
  PublishTable(std::move(list));
}

PprIndex::PprIndex(DynamicGraph* graph, std::vector<VertexId> sources,
                   const PprOptions& ppr_options)
    : PprIndex(graph, std::move(sources),
               IndexOptions{.ppr = ppr_options}) {}

void PprIndex::EnsurePpr(SourceSlot* slot) {
  if (slot->ppr == nullptr) {
    slot->ppr =
        std::make_unique<DynamicPpr>(graph_, slot->source, options_.ppr);
  }
}

void PprIndex::Initialize() {
  WallTimer wall;
  last_batch_stats_.Reset();
  auto table = CurrentTable();
  const size_t cap = options_.max_materialized_sources > 0
                         ? options_.max_materialized_sources
                         : table->slots.size();
  std::vector<SourceSlot*> live;
  live.reserve(std::min(cap, table->slots.size()));
  for (auto& slot : table->slots) {
    if (live.size() < cap) {
      EnsurePpr(slot.get());
      live.push_back(slot.get());
    }
  }
  // From-scratch per-source work is one full push from the unit residual —
  // on the order of the whole graph, so feed the heuristic a large
  // estimate: few sources initialize one at a time with thread-parallel
  // pushes, many sources initialize concurrently across the pool.
  const int64_t est_work =
      static_cast<int64_t>(graph_->NumVertices()) + graph_->NumEdges();
  PushAll(live, est_work, /*initialize=*/true);
  for (SourceSlot* slot : live) {
    last_batch_stats_.sources_total.Add(slot->ppr->last_stats());
  }
  last_batch_stats_.sources_pushed = static_cast<int>(live.size());
  last_batch_stats_.sources_skipped =
      static_cast<int>(table->slots.size() - live.size());
  last_batch_stats_.wall_seconds = wall.Seconds();
}

void PprIndex::BuildCoalescePlan() {
  journal_skip_.clear();
  coalesced_endpoints_.clear();
  coalesced_entries_ = 0;
  if (!options_.coalesce_restore || journal_.size() < 2) return;

  // Replay cost for endpoint u is one O(1) repair per journaled update;
  // one direct Eq. 2 solve costs O(dout_final(u)). Coalesce exactly the
  // endpoints where the solve is strictly cheaper. Counts and final
  // degrees are graph facts, so the plan is shared by every source.
  std::unordered_map<VertexId, int64_t> counts;
  for (const JournaledUpdate& entry : journal_) ++counts[entry.update.u];
  std::unordered_set<VertexId> coalesce;
  for (const auto& [u, count] : counts) {
    if (count > static_cast<int64_t>(graph_->OutDegree(u)) + 1) {
      coalesce.insert(u);
    }
  }
  if (coalesce.empty()) return;

  journal_skip_.assign(journal_.size(), 0);
  coalesced_endpoints_.reserve(coalesce.size());
  for (size_t j = 0; j < journal_.size(); ++j) {
    const VertexId u = journal_[j].update.u;
    if (coalesce.contains(u)) {
      journal_skip_[j] = 1;
      ++coalesced_entries_;
    }
  }
  coalesced_endpoints_.assign(coalesce.begin(), coalesce.end());
}

void PprIndex::ReplayJournal(DynamicPpr* ppr) const {
  if (journal_skip_.empty()) {
    for (const JournaledUpdate& entry : journal_) {
      ppr->RestoreForUpdate(entry.update, entry.dout_after);
    }
    return;
  }
  for (size_t j = 0; j < journal_.size(); ++j) {
    if (journal_skip_[j]) continue;
    ppr->RestoreForUpdate(journal_[j].update, journal_[j].dout_after);
  }
  for (VertexId u : coalesced_endpoints_) ppr->RestoreVertexDirect(u);
  ppr->NoteCoalescedRestores(coalesced_entries_);
}

void PprIndex::ApplyBatch(const UpdateBatch& batch, uint64_t requests) {
  DPPR_CHECK(requests >= 1);
  WallTimer wall;
  last_batch_stats_.Reset();
  auto table = CurrentTable();
  std::vector<SourceSlot*> live;
  live.reserve(table->slots.size());
  for (auto& slot : table->slots) {
    if (slot->ppr != nullptr) {
      slot->ppr->ResetStats();
      live.push_back(slot.get());
    }
  }

  // Phase 1 — one graph mutation pass, journaling each update's
  // post-update out-degree (the only graph fact restoration consumes).
  journal_.clear();
  journal_.reserve(batch.size());
  for (const EdgeUpdate& update : batch) {
    graph_->Apply(update);
    journal_.push_back({update, graph_->OutDegree(update.u)});
  }
  epoch_.store(Epoch() + requests, std::memory_order_release);
  BuildCoalescePlan();

  // Phase 2 — source-parallel restoration. Each source replays the whole
  // journal in update order against its own state, so every update is
  // restored against the exact intermediate graph it mutated (Algorithm
  // 1's requirement), without the sources serializing on the graph.
  // Coalesced endpoints skip replay entirely: their post-batch residual
  // is path-independent and solved directly against the final graph.
  WallTimer restore_timer;
  ForEachSourceStealing(live.size(), NumThreads(), [&](size_t i, int) {
    WallTimer source_timer;
    DynamicPpr& ppr = *live[i]->ppr;
    ReplayJournal(&ppr);
    ppr.AddRestoreSeconds(source_timer.Seconds());
  });
  last_batch_stats_.restore_wall_seconds = restore_timer.Seconds();

  // Phase 3 — push every dirty source across the engine pool, publishing
  // each source's snapshot as soon as its push converges.
  const double avg_degree = graph_->AverageDegree();
  const int64_t est_work = static_cast<int64_t>(
      static_cast<double>(batch.size()) * (1.0 + avg_degree));
  PushAll(live, est_work, /*initialize=*/false);

  for (SourceSlot* slot : live) {
    last_batch_stats_.sources_total.Add(slot->ppr->last_stats());
  }
  last_batch_stats_.sources_pushed = static_cast<int>(live.size());
  last_batch_stats_.sources_skipped =
      static_cast<int>(table->slots.size() - live.size());
  last_batch_stats_.wall_seconds = wall.Seconds();
}

void PprIndex::SetEpoch(uint64_t epoch) {
  DPPR_CHECK_MSG(epoch >= 1 && NumMaterializedSources() == 0,
                 "the epoch is set before any source is materialized");
  epoch_.store(epoch, std::memory_order_release);
}

// ---------------------------------------------------- dynamic source set

bool PprIndex::AddSource(VertexId s) {
  if (!graph_->IsValid(s) || FindSlot(s) != nullptr) return false;
  auto table = CurrentTable();
  auto slot = std::make_shared<SourceSlot>(s);
  EnsurePpr(slot.get());
  pool_.EnsureSize(ComputePoolSize(options_, table->slots.size() + 1));
  ParallelPushEngine* engine = pool_.size() > 0 ? pool_.Engine(0) : nullptr;
  PushSource(slot.get(), engine, /*initialize=*/true);
  Touch(*slot);  // newborn sources start warm, not as instant LRU victims

  SlotList next = table->slots;
  next.push_back(std::move(slot));
  PublishTable(std::move(next));
  EnforceLruCap();
  return true;
}

bool PprIndex::RemoveSource(VertexId s) {
  auto table = CurrentTable();
  SlotList next;
  next.reserve(table->slots.size());
  bool found = false;
  for (const auto& slot : table->slots) {
    if (slot->source == s) {
      found = true;
    } else {
      next.push_back(slot);
    }
  }
  if (!found) return false;
  PublishTable(std::move(next));
  return true;
}

bool PprIndex::MaterializeSource(VertexId s) {
  auto slot = FindSlot(s);
  if (slot == nullptr) return false;
  if (slot->ppr != nullptr) return true;
  EnsurePpr(slot.get());
  ParallelPushEngine* engine = pool_.size() > 0 ? pool_.Engine(0) : nullptr;
  // Restore-then-catch-up beats recompute when a spill exists: the hook
  // adopts the spilled (p, r) and re-solves the invariant at the endpoints
  // the source missed while cold, so the push below is incremental (the
  // residual mass of the missed updates) instead of from the unit residual.
  bool restored = false;
  if (spill_hooks_.rematerialize != nullptr) {
    restored = spill_hooks_.rematerialize(s, slot->snapshot.Epoch(),
                                          slot->ppr.get());
    if (restored) {
      spill_rematerializations_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // The hook contract says a false return leaves `ppr` untouched, but
      // a fresh state is cheap insurance against a buggy store.
      slot->ppr.reset();
      EnsurePpr(slot.get());
    }
  }
  PushSource(slot.get(), engine, /*initialize=*/!restored);
  Touch(*slot);
  EnforceLruCap();
  return true;
}

size_t PprIndex::EvictColdSources(size_t keep_materialized) {
  auto table = CurrentTable();
  // Sample each slot's LRU tick ONCE into an immutable pair: readers keep
  // bumping last_used concurrently, and a comparator that re-loaded the
  // live atomic could observe inconsistent orderings mid-sort (undefined
  // behavior for std::sort). A stale sample merely picks a slightly
  // different victim.
  std::vector<std::pair<uint64_t, SourceSlot*>> live;
  for (const auto& slot : table->slots) {
    if (slot->ppr != nullptr) {
      live.emplace_back(slot->last_used.load(std::memory_order_relaxed),
                        slot.get());
    }
  }
  if (live.size() <= keep_materialized) return 0;
  // Coldest first (smallest tick); ties keep table order.
  std::stable_sort(
      live.begin(), live.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  const size_t evict = live.size() - keep_materialized;
  for (size_t i = 0; i < evict; ++i) {
    if (spill_hooks_.spill != nullptr) {
      // Hand the store the full export before the state is dropped. The
      // published epoch and the live (p, r) agree here: every maintenance
      // path ends in a publish, and eviction runs between batches.
      ExportedSource out;
      out.source = live[i].second->source;
      out.epoch = live[i].second->snapshot.Epoch();
      out.materialized = true;
      out.state = live[i].second->ppr->state();
      spill_hooks_.spill(out);
    }
    live[i].second->ppr.reset();
    live[i].second->snapshot.Evict(live[i].second->snapshot.Epoch());
  }
  return evict;
}

// ---------------------------------------------------- source migration

bool PprIndex::ExportSource(VertexId s, ExportedSource* out) {
  if (!PeekSource(s, out)) return false;
  RemoveSource(s);
  return true;
}

bool PprIndex::PeekSource(VertexId s, ExportedSource* out) const {
  DPPR_CHECK(out != nullptr);
  auto slot = FindSlot(s);
  if (slot == nullptr) return false;
  out->source = s;
  out->epoch = slot->snapshot.Epoch();
  out->materialized = slot->ppr != nullptr;
  out->state = out->materialized ? slot->ppr->state() : PprState();
  return true;
}

bool PprIndex::ImportSource(ExportedSource in) {
  if (!graph_->IsValid(in.source) || FindSlot(in.source) != nullptr) {
    return false;
  }
  // A live state describes one graph at one feed position: it installs
  // only here, at the same epoch, over a graph at least as large.
  if (in.materialized &&
      (in.epoch != Epoch() ||
       in.state.NumVertices() > graph_->NumVertices())) {
    return false;
  }
  auto table = CurrentTable();
  auto slot = std::make_shared<SourceSlot>(in.source);
  if (in.materialized) {
    EnsurePpr(slot.get());
    slot->ppr->RestoreFromState(std::move(in.state));
    pool_.EnsureSize(ComputePoolSize(options_, table->slots.size() + 1));
    slot->snapshot.Publish(slot->ppr->Estimates(), in.epoch);
    Touch(*slot);
  } else {
    slot->snapshot.Evict(in.epoch);
  }
  SlotList next = table->slots;
  next.push_back(std::move(slot));
  PublishTable(std::move(next));
  EnforceLruCap();
  return true;
}

void PprIndex::EnforceLruCap() {
  if (options_.max_materialized_sources > 0) {
    EvictColdSources(options_.max_materialized_sources);
  }
}

// ------------------------------------------------------ table inspection

void PprIndex::PublishTable(SlotList slots) {
  auto table = std::make_shared<SourceTable>();
  table->by_source.reserve(slots.size());
  for (const auto& slot : slots) {
    table->by_source.emplace(slot->source, slot);
  }
  table->slots = std::move(slots);
  table_.store(std::shared_ptr<const SourceTable>(std::move(table)),
               std::memory_order_release);
}

std::shared_ptr<PprIndex::SourceSlot> PprIndex::FindSlot(VertexId s) const {
  auto table = CurrentTable();
  auto it = table->by_source.find(s);
  return it == table->by_source.end() ? nullptr : it->second;
}

void PprIndex::Touch(const SourceSlot& slot) const {
  slot.last_used.store(lru_clock_.fetch_add(1, std::memory_order_relaxed),
                       std::memory_order_relaxed);
}

VertexId PprIndex::SourceVertex(size_t i) const {
  auto table = CurrentTable();
  DPPR_DCHECK(i < table->slots.size());
  return table->slots[i]->source;
}

std::vector<VertexId> PprIndex::Sources() const {
  auto table = CurrentTable();
  std::vector<VertexId> out;
  out.reserve(table->slots.size());
  for (const auto& slot : table->slots) out.push_back(slot->source);
  return out;
}

bool PprIndex::HasSource(VertexId s) const { return FindSlot(s) != nullptr; }

bool PprIndex::IsMaterializedSource(VertexId s) const {
  // Reads the published snapshot, NOT slot->ppr: this is called from
  // reader threads (e.g. a server worker waiting out a rematerialization)
  // concurrently with the maintainer mutating the writer-side pointer.
  // Every materialization ends in a publish, so the snapshot flag is the
  // authoritative reader-visible state.
  auto slot = FindSlot(s);
  return slot != nullptr && slot->snapshot.Read()->materialized;
}

size_t PprIndex::NumMaterializedSources() const {
  auto table = CurrentTable();
  size_t n = 0;
  for (const auto& slot : table->slots) {
    if (slot->ppr != nullptr) ++n;
  }
  return n;
}

const DynamicPpr& PprIndex::Source(size_t i) const {
  auto table = CurrentTable();
  DPPR_DCHECK(i < table->slots.size());
  DPPR_CHECK_MSG(table->slots[i]->ppr != nullptr,
                 "Source() requires a materialized source");
  return *table->slots[i]->ppr;
}

DynamicPpr& PprIndex::Source(size_t i) {
  auto table = CurrentTable();
  DPPR_DCHECK(i < table->slots.size());
  DPPR_CHECK_MSG(table->slots[i]->ppr != nullptr,
                 "Source() requires a materialized source");
  return *table->slots[i]->ppr;
}

// ----------------------------------------------------------- maintenance

bool PprIndex::ChooseAcrossSources(int64_t est_work_per_source) const {
  switch (options_.push_mode) {
    case IndexPushMode::kAcrossSources:
      return true;
    case IndexPushMode::kIntraSource:
      return false;
    case IndexPushMode::kAuto:
      break;
  }
  const size_t num_live = NumMaterializedSources();
  const int threads = NumThreads();
  if (num_live < 2 || threads == 1) return false;
  // Sequential pushes cannot use a thread team, so spreading sources over
  // threads is the only parallelism available to that variant.
  if (options_.ppr.variant == PushVariant::kSequential) return true;
  // Enough sources to keep every thread on its own source: across-source
  // wins — no fork/join or atomics inside any push.
  if (num_live >= static_cast<size_t>(threads)) return true;
  // Few sources: split by expected push size. Small pushes cannot feed a
  // whole team anyway (the §3.1 small-frontier observation), so run them
  // concurrently one-per-thread; large pushes get the full team each.
  return est_work_per_source < options_.ppr.parallel_round_min_work;
}

void PprIndex::PushAll(const std::vector<SourceSlot*>& slots,
                       int64_t est_work_per_source, bool initialize) {
  const bool across = ChooseAcrossSources(est_work_per_source);
  last_batch_stats_.across_sources = across;
  WallTimer push_timer;
  if (across) {
    // Work-stealing over sources; each worker leases the pool engine
    // matching its slot. Inside the parallel region every push runs its
    // sequential code path (see ShouldParallelizeRound), so an engine
    // serves exactly one source at a time. The sequential variant needs no
    // engines, so every thread may work a source.
    const int workers = pool_.size() > 0 ? pool_.size() : NumThreads();
    if (workers > 1 && slots.size() >= 2 && NumThreads() > 1) {
      std::atomic<size_t> next{0};
      ParallelRegion([&](int tid, int /*num_threads*/) {
        if (tid >= workers) return;
        ParallelPushEngine* engine =
            pool_.size() > 0 ? pool_.Engine(tid) : nullptr;
        // Worker-scoped node binding: engine tid's lazily grown scratch
        // first-touches onto its assigned node, and every later lease of
        // that engine runs on the same node's cores. Restored on scope
        // exit so the OpenMP team returns to the whole machine.
        numa::ScopedNodeBinding bind(
            engine != nullptr ? pool_.NodeForEngine(tid) : -1);
        for (;;) {
          const size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= slots.size()) break;
          PushSource(slots[i], engine, initialize);
        }
      });
    } else {
      ParallelPushEngine* engine =
          pool_.size() > 0 ? pool_.Engine(0) : nullptr;
      for (SourceSlot* slot : slots) {
        PushSource(slot, engine, initialize);
      }
    }
  } else {
    // One source at a time, each push parallelized across all threads
    // (for the engine-less sequential variant the pushes just run in turn).
    ParallelPushEngine* engine = pool_.size() > 0 ? pool_.Engine(0) : nullptr;
    for (SourceSlot* slot : slots) {
      PushSource(slot, engine, initialize);
    }
  }
  last_batch_stats_.push_wall_seconds = push_timer.Seconds();
}

void PprIndex::PushSource(SourceSlot* slot, ParallelPushEngine* engine,
                          bool initialize) {
  slot->ppr->SetEngine(engine);
  if (initialize) {
    slot->ppr->Initialize();
  } else {
    slot->ppr->RunPushOnTouched(/*accumulate=*/true);
  }
  slot->ppr->SetEngine(nullptr);
  slot->snapshot.Publish(slot->ppr->Estimates(), Epoch());
}

// -------------------------------------------------------- snapshot reads

uint64_t PprIndex::Epoch(size_t i) const {
  auto table = CurrentTable();
  DPPR_DCHECK(i < table->slots.size());
  return table->slots[i]->snapshot.Epoch();
}

std::shared_ptr<const IndexSnapshot> PprIndex::Snapshot(size_t i) const {
  auto table = CurrentTable();
  DPPR_DCHECK(i < table->slots.size());
  Touch(*table->slots[i]);
  return table->slots[i]->snapshot.Read();
}

PointEstimate PprIndex::QueryVertex(size_t i, VertexId v) const {
  DPPR_CHECK(v >= 0);
  std::shared_ptr<const IndexSnapshot> snap = Snapshot(i);
  const double value = static_cast<size_t>(v) < snap->estimates.size()
                           ? snap->estimates[static_cast<size_t>(v)]
                           : 0.0;
  PointEstimate est;
  est.value = value;
  est.lower = std::max(value - options_.ppr.eps, 0.0);
  est.upper = value + options_.ppr.eps;
  return est;
}

GuaranteedTopK PprIndex::TopKWithGuarantee(size_t i, int k) const {
  std::shared_ptr<const IndexSnapshot> snap = Snapshot(i);
  return dppr::TopKWithGuarantee(snap->estimates, options_.ppr.eps, k);
}

std::shared_ptr<const IndexSnapshot> PprIndex::SnapshotForSource(
    VertexId s) const {
  auto slot = FindSlot(s);
  if (slot == nullptr) return nullptr;
  Touch(*slot);
  return slot->snapshot.Read();
}

SourceReadResult PprIndex::QueryVertexForSource(VertexId s, VertexId v) const {
  SourceReadResult result;
  auto snap = SnapshotForSource(s);
  if (snap == nullptr) return result;  // kUnknownSource
  result.epoch = snap->epoch;
  if (!snap->materialized) {
    result.status = SourceReadResult::Status::kNotMaterialized;
    return result;
  }
  result.status = SourceReadResult::Status::kOk;
  const double value =
      v >= 0 && static_cast<size_t>(v) < snap->estimates.size()
          ? snap->estimates[static_cast<size_t>(v)]
          : 0.0;
  result.estimate.value = value;
  result.estimate.lower = std::max(value - options_.ppr.eps, 0.0);
  result.estimate.upper = value + options_.ppr.eps;
  return result;
}

SourceReadResult PprIndex::TopKForSource(VertexId s, int k) const {
  SourceReadResult result;
  auto snap = SnapshotForSource(s);
  if (snap == nullptr) return result;  // kUnknownSource
  result.epoch = snap->epoch;
  if (!snap->materialized) {
    result.status = SourceReadResult::Status::kNotMaterialized;
    return result;
  }
  result.status = SourceReadResult::Status::kOk;
  result.topk = dppr::TopKWithGuarantee(snap->estimates, options_.ppr.eps, k);
  return result;
}

size_t PprIndex::ApproxScratchBytes() const {
  return pool_.ApproxScratchBytes() +
         journal_.capacity() * sizeof(JournaledUpdate) +
         journal_skip_.capacity() +
         coalesced_endpoints_.capacity() * sizeof(VertexId);
}

}  // namespace dppr
