// Hub index server — the end-to-end serving demo: maintain PPR vectors
// for many hub vertices and serve certified top-k queries while the
// graph streams, the use-case the paper names in §6 ("our approach is
// helpful for [HubPPR, Guo et al.] to maintain the indexed PPR vectors on
// dynamic graphs").
//
//   ./hub_server [--hubs=8] [--workers=3] [--clients=2] [--slides=12]
//                [--k=5] [--seed=33] [--lru_cap=0] [--shards=1]
//                [--replicas=1] [--read_policy=primary|round_robin]
//                [--max_epoch_lag=-1] [--client_qps=0] [--affinity]
//                [--listen=PORT] [--join=host:p1+host:p2,host:p3]
//                [--data_dir=PATH] [--checkpoint_every=N]
//                [--adopt=host:p1,host:p2] [--verify_recovery]
//                [--estimator] [--walk_count=4]
//
// With --shards=1 (default) this drives a single PprService, exactly as
// in PR 2. With --shards=N it stands up a ShardedPprService instead: N
// full serving stacks behind the consistent-hash router, the same update
// stream fanned out to every shard, queries routed by source — and, to
// show elasticity, a shard is ADDED mid-run (migrating ~1/(N+1) of the
// hubs onto it) right after the usual hub churn. Every reported number
// then aggregates across shards, with latency percentiles computed from
// the merged per-shard samples.
//
// --replicas=R puts R replicas (1 primary + R-1 standbys, each a full
// serving stack) behind every in-process ring slot. The demo then also
// KILLS a primary mid-run — severing it under live load — and the slot
// keeps answering through the promoted standby; the failover counter in
// the final report proves it happened.
//
// The demo fronts either stack with a FrontDoor (below): a hot-source
// result cache keyed (source, query) that a feed-generation advance
// invalidates, per-client admission quotas (--client_qps, 0 = open),
// and optional session affinity (--affinity) for monotonic reads.
// --read_policy=round_robin distributes reads across the live replicas
// of each slot under the bounded-staleness contract (--max_epoch_lag
// epochs, negative = unenforced); see src/router/README.md.
//
// Fleet mode turns those N simulated shards into N processes:
//
//   hub_server --listen=0 [--seed=33]       # one SHARD process: builds
//       the same initial graph (same seed => identical replica), starts
//       an EMPTY PprService behind a PprServer, prints
//       "LISTENING <port>" and serves until SIGINT/SIGTERM;
//   hub_server --join=host:p1+host:p2,host:p3 [--shards=1]   # the
//       ROUTER process: builds its local shards as usual, then joins
//       each comma-separated GROUP as one ring slot — the first
//       host:port of a group is the slot's primary (hubs migrate onto it
//       OVER THE WIRE at unchanged epochs), every '+'-joined address
//       after it a standby synced from the primary — and runs the exact
//       demo the in-process sharded mode runs. A group with a standby
//       gets the same kill-the-primary treatment (the router severs its
//       connection; the process itself keeps running). --shards=0 makes
//       it a pure routing front-end (hubs are then added through the
//       ring after joining).
//
// The ring lives client-side (in the router process): shard processes
// know nothing about each other, exactly as in the paper-adjacent
// distributed PPR serving systems the README cites.
//
// Durability (src/storage/README.md): --data_dir attaches a durable
// store. A shard process (--listen) roots its WAL + checkpoints there
// directly; a router process gives each LOCAL backend its own
// subdirectory. On restart with the same --data_dir the process
// RECOVERS — checkpoint + log replay reproduce the exact pre-crash
// epochs — and prints a machine-readable
// "RECOVERED seq=<n> sources=<k> max_epoch=<e>" line (the cold-restart
// CI step parses it). --verify_recovery (--listen mode only) additionally
// rebuilds every recovered source from scratch on the recovered graph and
// fails the process if any estimate disagrees beyond the eps contract.
// --adopt=host:port re-admits such a RECOVERED (non-empty) shard into a
// router's ring: unlike --join, the joiner's sources survive — the ring
// is grown around them (ShardedPprService::AdoptRemoteShard).
//
// --estimator attaches the estimator subsystem (src/estimator/) to every
// serving stack: each hub is also registered as a reverse-push TARGET,
// and after the feed the demo serves reverse top-k ("who cares about this
// hub?") and single-pair queries — routed by TARGET in sharded mode, the
// mirror image of the by-source routing above. --walk_count sets the
// walks per vertex of the hybrid estimator's walk index (seeded from
// --seed, so every replica's index is bit-identical).
//
// The stream permutation seed defaults to a fixed value so the printed
// tables are reproducible run-to-run; pass --seed to vary it.

#include <csignal>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/batch_validation.h"
#include "gen/datasets.h"
#include "graph/graph_stats.h"
#include "index/ppr_index.h"
#include "net/ppr_server.h"
#include "router/shard_backend.h"
#include "router/sharded_service.h"
#include "server/ppr_service.h"
#include "stream/edge_stream.h"
#include "stream/sliding_window.h"
#include "util/args.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

std::atomic<bool> g_shutdown{false};

void HandleSignal(int) { g_shutdown.store(true, std::memory_order_release); }

using Endpoint = std::pair<std::string, int>;
/// One ring slot's worth of remote addresses: [primary, standbys...].
using EndpointGroup = std::vector<Endpoint>;

/// Splits "host:p1+host:p2,host:p3" into replica groups (',' separates
/// slots, '+' separates a slot's primary from its standbys); false on a
/// malformed token.
bool ParseEndpointGroups(const std::string& csv,
                         std::vector<EndpointGroup>* out) {
  size_t begin = 0;
  while (begin <= csv.size()) {
    size_t end = csv.find(',', begin);
    if (end == std::string::npos) end = csv.size();
    const std::string group_token = csv.substr(begin, end - begin);
    EndpointGroup group;
    size_t member_begin = 0;
    while (member_begin <= group_token.size()) {
      size_t member_end = group_token.find('+', member_begin);
      if (member_end == std::string::npos) member_end = group_token.size();
      const std::string token =
          group_token.substr(member_begin, member_end - member_begin);
      const size_t colon = token.rfind(':');
      if (colon == 0 || colon == std::string::npos ||
          colon + 1 >= token.size()) {
        return false;
      }
      try {
        group.emplace_back(token.substr(0, colon),
                           std::stoi(token.substr(colon + 1)));
      } catch (const std::exception&) {
        return false;
      }
      member_begin = member_end + 1;
    }
    if (group.empty()) return false;
    out->push_back(std::move(group));
    begin = end + 1;
  }
  return !out->empty();
}

/// The demo logic is identical for the unsharded and the sharded stack;
/// this facade is the few calls it needs from either. Reads take an
/// affinity token (0 = none; the unsharded stack ignores it).
struct ServiceFacade {
  std::function<dppr::QueryResponse(dppr::VertexId, dppr::VertexId,
                                    uint64_t)>
      query;
  std::function<dppr::QueryResponse(dppr::VertexId, int, uint64_t)> topk;
  std::function<dppr::MaintResponse(dppr::UpdateBatch)> apply;
  std::function<dppr::MaintResponse(dppr::VertexId)> add_source;
  std::function<dppr::MaintResponse(dppr::VertexId)> remove_source;
  std::function<std::vector<dppr::VertexId>()> sources;
  std::function<bool(dppr::VertexId)> has_source;
  std::function<dppr::MetricsReport()> metrics;
  // Estimator surface (wired only with --estimator; routed by TARGET in
  // sharded mode).
  std::function<dppr::MaintResponse(dppr::VertexId)> add_target;
  std::function<dppr::QueryResponse(dppr::VertexId, dppr::VertexId)>
      query_pair;
  std::function<dppr::QueryResponse(dppr::VertexId, dppr::VertexId)>
      hybrid_pair;
  std::function<dppr::QueryResponse(dppr::VertexId, int)> reverse_topk;
};

/// \brief The demo's front door: what a real serving tier puts between
/// untrusted clients and the router.
///
///   * Hot-source result cache, keyed (source, query). An entry is valid
///     for exactly one FEED GENERATION — every applied batch or hub
///     churn advances the generation and thereby drops every cached
///     answer. Epochs only move when the feed does, so within a
///     generation a cached response is indistinguishable from a fresh
///     one.
///   * Per-client admission: a token bucket per client id (--client_qps
///     tokens/s, burst of one second's worth; 0 disables). Work above
///     the quota is refused kRejected BEFORE it reaches the service —
///     the cheapest shed there is.
///   * Session affinity (--affinity): client c reads with token c+1,
///     pinning its session to one replica for monotonic epochs.
///     Affinity reads BYPASS the cache: a cache line shared across
///     sessions could serve a client an answer older than one it
///     already saw, which is exactly what affinity promises away.
class FrontDoor {
 public:
  FrontDoor(const ServiceFacade* facade, double client_qps, int clients,
            bool affinity)
      : facade_(facade),
        client_qps_(client_qps),
        affinity_(affinity),
        buckets_(static_cast<size_t>(clients)) {
    for (Bucket& bucket : buckets_) bucket.tokens = client_qps;
  }

  /// The feed moved (batch applied / hub churned): every cached answer
  /// is now a generation behind and will be re-fetched on next touch.
  void AdvanceGeneration() {
    generation_.fetch_add(1, std::memory_order_release);
  }

  dppr::QueryResponse Query(int client, dppr::VertexId s,
                            dppr::VertexId v) {
    const uint64_t key =
        (static_cast<uint64_t>(static_cast<uint32_t>(s)) << 33) |
        static_cast<uint32_t>(v);
    return Serve(client, key, [&](uint64_t token) {
      return facade_->query(s, v, token);
    });
  }

  dppr::QueryResponse TopK(int client, dppr::VertexId s, int k) {
    const uint64_t key =
        (static_cast<uint64_t>(static_cast<uint32_t>(s)) << 33) |
        (uint64_t{1} << 32) | static_cast<uint32_t>(k);
    return Serve(client, key,
                 [&](uint64_t token) { return facade_->topk(s, k, token); });
  }

  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  int64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  struct Bucket {
    double tokens = 0.0;
    dppr::WallTimer since_refill;
  };

  struct Entry {
    uint64_t generation = 0;
    dppr::QueryResponse response;
  };

  /// Refill-on-demand token bucket. Each client thread owns its bucket,
  /// so no lock: admission never contends with other clients.
  bool Admit(int client) {
    if (client_qps_ <= 0) return true;
    Bucket& bucket = buckets_[static_cast<size_t>(client)];
    bucket.tokens = std::min(
        client_qps_,
        bucket.tokens + bucket.since_refill.Seconds() * client_qps_);
    bucket.since_refill.Restart();
    if (bucket.tokens < 1.0) return false;
    bucket.tokens -= 1.0;
    return true;
  }

  template <typename Issue>
  dppr::QueryResponse Serve(int client, uint64_t key, Issue issue) {
    if (!Admit(client)) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      dppr::QueryResponse refused;
      refused.status = dppr::RequestStatus::kRejected;
      return refused;
    }
    const uint64_t token =
        affinity_ ? static_cast<uint64_t>(client) + 1 : 0;
    const uint64_t gen = generation_.load(std::memory_order_acquire);
    if (token == 0) {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = cache_.find(key);
      if (it != cache_.end() && it->second.generation == gen) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second.response;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    dppr::QueryResponse response = issue(token);
    if (token == 0 && response.status == dppr::RequestStatus::kOk) {
      std::lock_guard<std::mutex> lock(mu_);
      cache_[key] = Entry{gen, response};
    }
    return response;
  }

  const ServiceFacade* facade_;
  const double client_qps_;
  const bool affinity_;
  std::vector<Bucket> buckets_;
  std::atomic<uint64_t> generation_{0};
  std::mutex mu_;
  std::unordered_map<uint64_t, Entry> cache_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> rejected_{0};
};

}  // namespace

int main(int argc, char** argv) {
  dppr::ArgParser args;
  if (auto st = args.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const auto num_hubs = static_cast<dppr::VertexId>(args.GetInt("hubs", 8));
  const int workers = static_cast<int>(args.GetInt("workers", 3));
  const int num_clients = static_cast<int>(args.GetInt("clients", 2));
  const int slides = static_cast<int>(args.GetInt("slides", 12));
  const int k = static_cast<int>(args.GetInt("k", 5));
  const auto seed = static_cast<uint64_t>(args.GetInt("seed", 33));
  const auto lru_cap = static_cast<size_t>(args.GetInt("lru_cap", 0));
  const bool listen_mode = args.Has("listen");
  const int listen_port = static_cast<int>(args.GetInt("listen", 0));
  const std::string join_csv = args.GetString("join", "");
  const std::string adopt_csv = args.GetString("adopt", "");
  const std::string data_dir = args.GetString("data_dir", "");
  const bool verify_recovery = args.GetBool("verify_recovery", false);
  dppr::storage::DurableStoreOptions durability;
  durability.checkpoint_every =
      static_cast<uint64_t>(args.GetInt("checkpoint_every", 0));
  const int num_shards = static_cast<int>(args.GetInt("shards", 1));
  const int replicas = static_cast<int>(args.GetInt("replicas", 1));
  const std::string variant_name = args.GetString("variant", "adaptive");
  const bool numa = args.GetBool("numa", false);
  const auto max_epoch_lag =
      static_cast<int64_t>(args.GetInt("max_epoch_lag", -1));
  const double client_qps = args.GetDouble("client_qps", 0.0);
  const bool affinity = args.GetBool("affinity", false);
  const bool estimator = args.GetBool("estimator", false);
  const int walk_count = static_cast<int>(args.GetInt("walk_count", 4));
  dppr::ReadPolicy read_policy = dppr::ReadPolicy::kPrimaryOnly;
  if (!dppr::ParseReadPolicy(args.GetString("read_policy", "primary"),
                             &read_policy)) {
    std::fprintf(stderr, "unknown --read_policy value\n");
    return 1;
  }
  if (replicas < 1) {
    std::fprintf(stderr, "--replicas must be >= 1\n");
    return 1;
  }
  std::vector<EndpointGroup> join_groups;
  if (!join_csv.empty() && !ParseEndpointGroups(join_csv, &join_groups)) {
    std::fprintf(stderr,
                 "malformed --join (want host:port groups, ',' between "
                 "slots, '+' before standbys)\n");
    return 1;
  }
  std::vector<EndpointGroup> adopt_groups;
  if (!adopt_csv.empty() && !ParseEndpointGroups(adopt_csv, &adopt_groups)) {
    std::fprintf(stderr, "malformed --adopt (want host:port, ',' between "
                         "shards)\n");
    return 1;
  }
  for (const EndpointGroup& group : adopt_groups) {
    if (group.size() != 1) {
      std::fprintf(stderr, "--adopt takes single endpoints (a recovered "
                           "shard re-joins alone; attach standbys after "
                           "with --join semantics)\n");
      return 1;
    }
  }
  if (listen_mode && (!join_groups.empty() || !adopt_groups.empty())) {
    std::fprintf(stderr, "--listen and --join/--adopt are different "
                         "processes\n");
    return 1;
  }

  // Stream a pokec-like graph. The deterministic seed fixes the timestamp
  // permutation, so every run slides the same batches.
  dppr::DatasetSpec spec;
  (void)dppr::FindDataset("pokec", &spec);
  auto edges = dppr::GenerateDataset(spec, /*scale_shift=*/1);
  dppr::EdgeStream stream =
      dppr::EdgeStream::RandomPermutation(std::move(edges), seed);
  dppr::SlidingWindow window(&stream, 0.1);
  const std::vector<dppr::Edge> initial = window.InitialEdges();
  const dppr::VertexId num_vertices = stream.NumVertices();
  dppr::DynamicGraph graph =
      dppr::DynamicGraph::FromEdges(initial, num_vertices);

  // ONE options block for every mode — a fleet where shard processes and
  // the router disagree on eps would serve answers with different
  // accuracy bounds than the equivalence checks assume.
  dppr::IndexOptions options;
  options.ppr.eps = 1e-7;
  options.max_materialized_sources = lru_cap;
  if (auto st = dppr::ParsePushVariant(variant_name, &options.ppr.variant);
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  options.numa_aware_engines = numa;
  dppr::ServiceOptions service_options;
  service_options.num_workers = workers;
  service_options.materialize_wait = std::chrono::milliseconds(500);
  // Part of the ONE shared options block above: a fleet where the router
  // and the shard processes disagreed on walk seeding would break the
  // cross-replica determinism the estimator's placement relies on.
  service_options.estimator.enabled = estimator;
  service_options.estimator.walks_per_vertex = walk_count;
  service_options.estimator.seed = seed;

  if (listen_mode) {
    // SHARD PROCESS: the same graph replica (same seed => same bytes),
    // an empty source set (the router migrates or adds hubs through the
    // ring), one serving stack, and the network skin in front of it.
    // With --data_dir the stack is durable — and if the directory holds
    // a prior incarnation's state, that state WINS over the seed:
    // checkpoint restore + log replay reproduce the exact pre-crash
    // graph, source set, and epochs (LocalShardBackend recovery).
    dppr::LocalShardBackend backend(initial, num_vertices, {}, options,
                                    service_options, data_dir, durability);
    backend.Start();
    if (backend.recovered()) {
      // Machine-readable recovery line (the cold-restart CI step parses
      // it and asserts the epoch never regresses across a SIGKILL).
      std::printf("RECOVERED seq=%llu sources=%zu max_epoch=%llu\n",
                  static_cast<unsigned long long>(
                      backend.store()->feed_seq()),
                  backend.NumSources(),
                  static_cast<unsigned long long>(backend.MaxEpoch()));
      std::fflush(stdout);
    }
    if (verify_recovery && backend.recovered()) {
      // Oracle equivalence from disk: rebuild every recovered source
      // FROM SCRATCH on the recovered graph and require the replayed
      // estimates to agree within the eps contract (two eps-accurate
      // approximations of the same vector differ by at most 2*eps).
      const dppr::PprIndex* live = backend.service()->index();
      dppr::DynamicGraph oracle_graph = dppr::DynamicGraph::FromEdges(
          live->graph()->ToEdgeList(), live->graph()->NumVertices());
      dppr::PprIndex oracle(&oracle_graph, live->Sources(), options);
      oracle.Initialize();
      int64_t mismatches = 0;
      for (size_t i = 0; i < oracle.NumSources(); ++i) {
        const dppr::VertexId s = oracle.SourceVertex(i);
        const dppr::GuaranteedTopK fresh = oracle.TopKWithGuarantee(i, k);
        for (const dppr::ScoredVertex& entry : fresh.entries) {
          const dppr::SourceReadResult got =
              live->QueryVertexForSource(s, entry.id);
          if (got.status != dppr::SourceReadResult::Status::kOk ||
              std::fabs(got.estimate.value - entry.score) >
                  2 * options.ppr.eps) {
            ++mismatches;
          }
        }
      }
      std::printf("RECOVERY_VERIFIED sources=%zu mismatches=%lld\n",
                  oracle.NumSources(),
                  static_cast<long long>(mismatches));
      std::fflush(stdout);
      if (mismatches != 0) return 1;
    }
    dppr::net::PprServerOptions server_options;
    server_options.port = listen_port;
    dppr::net::PprServer server(backend.service(), server_options);
    if (auto st = server.Start(); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::signal(SIGINT, HandleSignal);
    std::signal(SIGTERM, HandleSignal);
    // Machine-readable readiness line (the fleet tests parse it).
    std::printf("LISTENING %d\n", server.port());
    std::fflush(stdout);
    while (!g_shutdown.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    server.Stop();  // before the service, so in-flight handlers resolve
    const dppr::MetricsReport report = backend.service()->Metrics();
    backend.Stop();
    std::printf("%s\n", report.ToString().c_str());
    std::printf("shard served %lld queries, %lld protocol errors\n",
                static_cast<long long>(report.queries_completed),
                static_cast<long long>(server.protocol_errors()));
    return 0;
  }

  // Hubs = the highest-out-degree vertices (the HubPPR recipe). The next
  // vertex in that ranking is the "rising hub" promoted mid-run.
  std::vector<dppr::VertexId> ranked =
      dppr::TopOutDegreeVertices(graph, num_hubs + 1);
  const dppr::VertexId rising_hub = ranked.back();
  std::vector<dppr::VertexId> hubs(ranked.begin(), ranked.end() - 1);

  // Pre-flight the whole stream before serving starts: a production feed
  // is untrusted, and validating against the live graph would race the
  // maintenance thread. Validation interleaves with a scratch graph.
  const dppr::EdgeCount batch_size = window.BatchForRatio(0.001);
  std::vector<dppr::UpdateBatch> batches;
  {
    dppr::DynamicGraph preflight = dppr::DynamicGraph::FromEdges(
        graph.ToEdgeList(), graph.NumVertices());
    for (int s = 0; s < slides && window.CanSlide(batch_size); ++s) {
      dppr::UpdateBatch batch = window.NextBatch(batch_size);
      if (auto st = dppr::ValidateBatch(preflight, batch); !st.ok()) {
        std::fprintf(stderr, "rejecting batch %d: %s\n", s,
                     st.ToString().c_str());
        continue;
      }
      for (const dppr::EdgeUpdate& update : batch) preflight.Apply(update);
      batches.push_back(std::move(batch));
    }
  }

  // Stand up either serving stack behind the facade (options were built
  // once, above the --listen branch, so every process of a fleet agrees).
  // The unsharded stack is a LocalShardBackend — the same graph + index +
  // service triple as before, but with the durable tier (and its recovery
  // path) attached when --data_dir is set.
  std::unique_ptr<dppr::LocalShardBackend> local;
  dppr::PprService* service = nullptr;
  dppr::PprIndex* index = nullptr;
  std::unique_ptr<dppr::ShardedPprService> sharded;
  ServiceFacade facade;
  dppr::WallTimer init_timer;
  if (num_shards <= 1 && replicas <= 1 && join_groups.empty() &&
      adopt_groups.empty()) {
    local = std::make_unique<dppr::LocalShardBackend>(
        initial, num_vertices, hubs, options, service_options, data_dir,
        durability);
    local->Start();
    service = local->service();
    index = service->index();
    if (local->recovered()) {
      std::printf("RECOVERED seq=%llu sources=%zu max_epoch=%llu\n",
                  static_cast<unsigned long long>(
                      local->store()->feed_seq()),
                  local->NumSources(),
                  static_cast<unsigned long long>(local->MaxEpoch()));
    }
    std::printf("hub index over %zu sources built in %.1f ms (|V|=%d, "
                "|E|=%lld, %zu materialized, %d pooled engines)\n\n",
                index->NumSources(), init_timer.Millis(),
                graph.NumVertices(),
                static_cast<long long>(graph.NumEdges()),
                index->NumMaterializedSources(), index->NumPooledEngines());
    facade = {
        [&](dppr::VertexId s, dppr::VertexId v, uint64_t) {
          return service->Query(s, v);
        },
        [&](dppr::VertexId s, int kk, uint64_t) {
          return service->TopK(s, kk);
        },
        [&](dppr::UpdateBatch b) {
          return service->ApplyUpdatesAsync(std::move(b)).get();
        },
        [&](dppr::VertexId s) { return service->AddSourceAsync(s).get(); },
        [&](dppr::VertexId s) {
          return service->RemoveSourceAsync(s).get();
        },
        [&] { return index->Sources(); },
        [&](dppr::VertexId s) { return index->HasSource(s); },
        [&] { return service->Metrics(); },
        [&](dppr::VertexId t) { return service->AddTargetAsync(t).get(); },
        [&](dppr::VertexId s, dppr::VertexId t) {
          return service->QueryPairAsync(s, t).get();
        },
        [&](dppr::VertexId s, dppr::VertexId t) {
          return service->HybridPairAsync(s, t).get();
        },
        [&](dppr::VertexId t, int kk) {
          return service->ReverseTopKAsync(t, kk).get();
        },
    };
  } else {
    dppr::ShardedServiceOptions sharded_options;
    sharded_options.num_shards = num_shards;
    sharded_options.replicas = replicas;
    sharded_options.index = options;
    sharded_options.service = service_options;
    sharded_options.read_policy = read_policy;
    sharded_options.max_epoch_lag = max_epoch_lag;
    sharded_options.data_dir = data_dir;  // per-backend subdirs inside
    sharded_options.durability = durability;
    // Periodic drift repair for standbys: cheap (a probe per slot) and
    // inert with single-replica slots.
    sharded_options.anti_entropy_interval = std::chrono::milliseconds(250);
    // A pure routing front-end (--shards=0) owns no shard to place the
    // initial hubs on; they are added through the ring after the joins.
    const bool hubs_at_construction = num_shards > 0;
    sharded = std::make_unique<dppr::ShardedPprService>(
        initial, num_vertices,
        hubs_at_construction ? hubs : std::vector<dppr::VertexId>{},
        sharded_options);
    sharded->Start();
    for (const EndpointGroup& group : join_groups) {
      const auto& [host, port] = group.front();
      const int joined = sharded->AddRemoteShard(host, port);
      if (joined < 0) {
        std::fprintf(stderr,
                     "could not join remote shard %s:%d (unreachable, "
                     "non-empty, or serving a different graph)\n",
                     host.c_str(), port);
        return 1;
      }
      std::printf("joined remote shard %s:%d as shard %d\n", host.c_str(),
                  port, joined);
      for (size_t standby = 1; standby < group.size(); ++standby) {
        const auto& [sb_host, sb_port] = group[standby];
        const int replica =
            sharded->AddRemoteReplica(joined, sb_host, sb_port);
        if (replica < 0) {
          std::fprintf(stderr,
                       "could not attach standby %s:%d to shard %d\n",
                       sb_host.c_str(), sb_port, joined);
          return 1;
        }
        std::printf("attached standby %s:%d to shard %d (replica %d)\n",
                    sb_host.c_str(), sb_port, joined, replica);
      }
    }
    // Re-admit recovered shards. Their sources SURVIVE the join (the
    // ring grows around them), so the hub-add loop below skips anything
    // an adoptee already serves.
    for (const EndpointGroup& group : adopt_groups) {
      const auto& [host, port] = group.front();
      const int adopted = sharded->AdoptRemoteShard(host, port);
      if (adopted < 0) {
        std::fprintf(stderr,
                     "could not adopt recovered shard %s:%d (unreachable, "
                     "different graph, or a live slot still serves one of "
                     "its sources)\n",
                     host.c_str(), port);
        return 1;
      }
      std::printf("ADOPTED %s:%d as shard %d sources=%zu\n", host.c_str(),
                  port, adopted,
                  sharded->SourcesOnShard(adopted).size());
      std::fflush(stdout);
    }
    if (!hubs_at_construction) {
      for (dppr::VertexId hub : hubs) {
        if (sharded->HasSource(hub)) continue;  // adopted shard owns it
        if (sharded->AddSource(hub).status != dppr::RequestStatus::kOk) {
          std::fprintf(stderr, "could not add hub %d\n", hub);
          return 1;
        }
      }
    }
    std::printf("sharded hub index over %zu sources across %zu shards "
                "built in %.1f ms (|V|=%d)\n",
                sharded->NumSources(), sharded->NumShards(),
                init_timer.Millis(), num_vertices);
    for (int shard_id : sharded->ShardIds()) {
      std::printf("  shard %d owns %zu hubs (%zu replicas)\n", shard_id,
                  sharded->SourcesOnShard(shard_id).size(),
                  sharded->NumReplicas(shard_id));
    }
    std::printf("\n");
    facade = {
        [&](dppr::VertexId s, dppr::VertexId v, uint64_t token) {
          return sharded->Query(s, v, /*deadline_ms=*/0, token);
        },
        [&](dppr::VertexId s, int kk, uint64_t token) {
          return sharded->TopK(s, kk, /*deadline_ms=*/0, token);
        },
        [&](dppr::UpdateBatch b) {
          return sharded->ApplyUpdates(std::move(b));
        },
        [&](dppr::VertexId s) { return sharded->AddSource(s); },
        [&](dppr::VertexId s) { return sharded->RemoveSource(s); },
        [&] { return sharded->Sources(); },
        [&](dppr::VertexId s) { return sharded->HasSource(s); },
        [&] { return sharded->Metrics(); },
        [&](dppr::VertexId t) { return sharded->AddTarget(t); },
        [&](dppr::VertexId s, dppr::VertexId t) {
          return sharded->QueryPair(s, t);
        },
        [&](dppr::VertexId s, dppr::VertexId t) {
          return sharded->HybridPair(s, t);
        },
        [&](dppr::VertexId t, int kk) {
          return sharded->ReverseTopK(t, kk);
        },
    };
  }

  // Every hub doubles as a reverse-push target: the estimator then
  // answers "who cares about this hub?" (reverse top-k) next to the
  // forward "what does this hub care about?" the index already serves.
  if (estimator) {
    for (dppr::VertexId hub : hubs) {
      const dppr::MaintResponse added = facade.add_target(hub);
      if (added.status != dppr::RequestStatus::kOk) {
        std::fprintf(stderr, "could not register target %d: %s\n", hub,
                     dppr::RequestStatusName(added.status));
        return 1;
      }
    }
    std::printf("estimator on: %zu targets registered, %d walks/vertex\n\n",
                hubs.size(), walk_count);
  }

  // Clients: closed-loop point + top-k queries over the hub set while
  // the stream applies, all THROUGH the front door — cache, admission,
  // affinity. Sanity-checked on the fly: a hub's own estimate can never
  // drop below alpha - eps, and an affinity client's epochs must never
  // regress per source.
  FrontDoor front_door(&facade, client_qps, num_clients, affinity);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> bad_responses{0};
  std::atomic<int64_t> epoch_regressions{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      std::unordered_map<dppr::VertexId, uint64_t> last_epoch;
      int64_t i = c;
      while (!stop.load(std::memory_order_acquire)) {
        const dppr::VertexId hub =
            hubs[static_cast<size_t>(i) % hubs.size()];
        dppr::QueryResponse response =
            i % 3 == 0 ? front_door.TopK(c, hub, k)
                       : front_door.Query(c, hub, hub);
        if (response.status == dppr::RequestStatus::kRejected) {
          // Over quota: back off instead of hammering the door.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        if (response.status == dppr::RequestStatus::kOk) {
          if (i % 3 != 0 &&
              response.estimate.value <
                  options.ppr.alpha - 2 * options.ppr.eps) {
            bad_responses.fetch_add(1);
          }
          if (affinity) {
            uint64_t& seen = last_epoch[hub];
            if (response.epoch < seen) epoch_regressions.fetch_add(1);
            seen = std::max(seen, response.epoch);
          }
        }
        ++i;
      }
    });
  }

  // Feeder: the maintenance stream, plus a hub-set change mid-run —
  // promote the rising hub, retire the coldest original one — and, in
  // sharded mode, a topology change: grow the fleet by one shard. The
  // churn is a lambda so a read-only run (--slides=0 — the shape the
  // adopt demo needs, because re-feeding seeded batches to a RECOVERED
  // shard would replay deletions its graph already applied) still
  // exercises it once, after the empty feed.
  const auto run_hub_churn = [&] {
    {
      const dppr::MaintResponse risen = facade.add_source(rising_hub);
      const dppr::MaintResponse retired = facade.remove_source(hubs.back());
      front_door.AdvanceGeneration();  // the hub set changed too
      std::printf("mid-run hub churn: +%d (rising, %s), -%d (retired, %s)\n",
                  rising_hub, dppr::RequestStatusName(risen.status),
                  hubs.back(), dppr::RequestStatusName(retired.status));
      if (sharded != nullptr) {
        // Local growth needs a local graph replica to clone; a pure
        // routing front-end (--shards=0 --join=...) has none and skips
        // the demo growth.
        const int grown = sharded->AddShard();
        if (grown >= 0) {
          const dppr::RouterReport report = sharded->Report();
          std::printf("mid-run shard growth: +shard %d (%lld sources "
                      "migrated, %lld blob bytes, %lld targets re-homed)\n",
                      grown,
                      static_cast<long long>(report.sources_migrated),
                      static_cast<long long>(report.migration_bytes),
                      static_cast<long long>(report.targets_migrated));
        }
        // Kill-the-primary demo: sever the first replicated slot's
        // primary UNDER LIVE LOAD (clients keep querying). The standby
        // is promoted on the first kUnavailable answer; nobody above the
        // replica set notices except the failover counter.
        for (int slot : sharded->ShardIds()) {
          if (sharded->NumReplicas(slot) < 2) continue;
          const int primary = sharded->PrimaryOf(slot);
          if (sharded->SeverReplica(slot, primary)) {
            std::printf("mid-run primary kill: severed shard %d's "
                        "replica %d; standby takes over\n",
                        slot, primary);
          }
          break;
        }
      }
      std::printf("\n");
    }
  };
  for (size_t b = 0; b < batches.size(); ++b) {
    dppr::MaintResponse applied = facade.apply(batches[b]);
    if (applied.status != dppr::RequestStatus::kOk) {
      std::fprintf(stderr, "batch %zu not applied: %s\n", b,
                   dppr::RequestStatusName(applied.status));
    }
    // The feed moved: every cached front-door answer is now stale.
    front_door.AdvanceGeneration();
    if (b == batches.size() / 2) run_hub_churn();
  }
  if (batches.empty()) run_hub_churn();
  stop.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();

  // Serve one certified top-k per current hub through the service — the
  // same snapshot path the client threads used.
  dppr::TablePrinter table(
      {"hub", "epoch", "top-1", "score",
       "certified_of_top" + std::to_string(k)});
  uint64_t fleet_max_epoch = 0;
  for (dppr::VertexId hub : facade.sources()) {
    dppr::QueryResponse top = facade.topk(hub, k, /*affinity=*/0);
    if (top.status != dppr::RequestStatus::kOk) {
      std::fprintf(stderr, "top-k for hub %d: %s\n", hub,
                   dppr::RequestStatusName(top.status));
      continue;
    }
    fleet_max_epoch = std::max(fleet_max_epoch, top.epoch);
    table.AddRow({dppr::TablePrinter::FmtInt(hub),
                  dppr::TablePrinter::FmtInt(
                      static_cast<int64_t>(top.epoch)),
                  dppr::TablePrinter::FmtInt(top.topk.entries[0].id),
                  dppr::TablePrinter::FmtSci(top.topk.entries[0].score, 3),
                  dppr::TablePrinter::FmtInt(top.topk.certain_members)});
  }
  table.Print();
  // Machine-readable feed frontier (the cold-restart CI step compares a
  // shard's post-restart RECOVERED epoch against this — WAL-before-apply
  // means recovery may land AT or AHEAD of it, never behind).
  std::printf("FLEET max_epoch=%llu\n",
              static_cast<unsigned long long>(fleet_max_epoch));

  // The estimator's read side: reverse top-k per hub ("who cares about
  // this hub?"), then one deterministic + one hybrid single-pair estimate
  // between the two hottest hubs. The hybrid answer must land inside the
  // deterministic answer's +/- eps interval by construction — counted as
  // an error otherwise.
  int64_t estimator_errors = 0;
  if (estimator) {
    dppr::TablePrinter reverse_table(
        {"target", "epoch", "top-1 source", "score"});
    for (dppr::VertexId hub : hubs) {
      const dppr::QueryResponse reverse = facade.reverse_topk(hub, k);
      if (reverse.status != dppr::RequestStatus::kOk) {
        std::fprintf(stderr, "reverse top-k for target %d: %s\n", hub,
                     dppr::RequestStatusName(reverse.status));
        ++estimator_errors;
        continue;
      }
      const bool any = !reverse.topk.entries.empty();
      reverse_table.AddRow(
          {dppr::TablePrinter::FmtInt(hub),
           dppr::TablePrinter::FmtInt(static_cast<int64_t>(reverse.epoch)),
           any ? dppr::TablePrinter::FmtInt(reverse.topk.entries[0].id)
               : "-",
           any ? dppr::TablePrinter::FmtSci(reverse.topk.entries[0].score, 3)
               : "-"});
    }
    std::printf("\nreverse top-%d (who cares about each hub):\n", k);
    reverse_table.Print();
    if (hubs.size() >= 2) {
      const dppr::VertexId s = hubs[0];
      const dppr::VertexId t = hubs[1];
      const dppr::QueryResponse pair = facade.query_pair(s, t);
      const dppr::QueryResponse hybrid = facade.hybrid_pair(s, t);
      if (pair.status != dppr::RequestStatus::kOk ||
          hybrid.status != dppr::RequestStatus::kOk) {
        std::fprintf(stderr, "pair query %d->%d failed\n", s, t);
        ++estimator_errors;
      } else {
        if (std::fabs(hybrid.estimate.value - pair.estimate.value) >
            pair.estimate.upper - pair.estimate.value) {
          ++estimator_errors;  // hybrid escaped the deterministic interval
        }
        std::printf("pair pi_%d(%d): reverse-push %.3e (+/- %.1e), "
                    "hybrid %.3e\n",
                    s, t, pair.estimate.value,
                    pair.estimate.upper - pair.estimate.value,
                    hybrid.estimate.value);
      }
    }
  }

  if (sharded != nullptr) {
    // The scatter-gather view: the globally best (hub, vertex) scores.
    const dppr::GlobalTopKResult global = sharded->GlobalTopK(k);
    std::printf("\nglobal top-%d across all shards:", k);
    for (const dppr::GlobalTopKEntry& entry : global.entries) {
      std::printf(" %d->%d(%.2e)", entry.source, entry.entry.id,
                  entry.entry.score);
    }
    std::printf("\n");
  }
  // Gather BEFORE Stop: a stopped fleet has disconnected its remote
  // shards, and their metrics/source sets are unreachable afterwards.
  const dppr::MetricsReport report = facade.metrics();
  const bool hub_set_ok =
      facade.has_source(rising_hub) && !facade.has_source(hubs.back());
  if (sharded != nullptr) {
    const dppr::RouterReport router_report = sharded->Report();
    std::printf("\nreplication: %lld failovers, %lld standby syncs "
                "(%lld bytes), %lld update retries\n",
                static_cast<long long>(router_report.failovers),
                static_cast<long long>(router_report.standby_syncs),
                static_cast<long long>(router_report.sync_bytes),
                static_cast<long long>(router_report.update_retries));
    std::printf("read distribution (%s): %lld primary reads, %lld "
                "standby reads, %lld stale retries",
                dppr::ReadPolicyName(read_policy),
                static_cast<long long>(router_report.primary_reads),
                static_cast<long long>(router_report.standby_reads),
                static_cast<long long>(router_report.stale_retries));
    if (router_report.staleness.Count() > 0) {
      std::printf("; staleness epochs p50=%.0f p99=%.0f max=%.0f",
                  router_report.staleness.Percentile(50),
                  router_report.staleness.Percentile(99),
                  router_report.staleness.Max());
    }
    std::printf("\n");
    sharded->Stop();
  } else {
    local->Stop();
  }
  std::printf("\n%s\n", report.ToString().c_str());
  std::printf("\nfront door: %lld cache hits, %lld misses, %lld "
              "admission rejections%s\n",
              static_cast<long long>(front_door.hits()),
              static_cast<long long>(front_door.misses()),
              static_cast<long long>(front_door.rejected()),
              affinity ? " (session affinity on)" : "");
  std::printf("hub churn applied: %s; bad responses: %lld; epoch "
              "regressions: %lld\n",
              hub_set_ok ? "yes" : "NO",
              static_cast<long long>(bad_responses.load()),
              static_cast<long long>(epoch_regressions.load()));
  return (hub_set_ok && bad_responses.load() == 0 &&
          epoch_regressions.load() == 0 && estimator_errors == 0 &&
          report.queries_completed > 0)
             ? 0
             : 1;
}
