// perfbench — one run of one workload against the PPR serving stack.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             [--out_dir=DIR]
//
// Builds the workload's inputs and, from the seed, its request
// schedules; sets the stack up kSetupReps times (setup_s is the median),
// then measures for S seconds with reads at the workload's fixed rate
// and the feed running. The oracle checks every measured stack after its
// window. Traced (--trace=1), the second half of those S seconds carries
// read-path spans; then the sustainable-rate search runs for S/2 more
// seconds, and the maintenance replay after the stack has stopped.
//
// Prints one "metric" line per metric (value, unit, percentile and
// sample count) and, last, one JSON line with every metric of the mode.
// run.py builds this binary and checks that line against BENCHMARK.json.
// Exit status: 0 on a correct run, 1 when the oracle check or the feed
// failed, 2 on bad arguments.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/power_iteration.h"
#include "net/remote_client.h"
#include "net/wire.h"
#include "perfbench/inputs.h"
#include "perfbench/load.h"
#include "perfbench/replay.h"
#include "perfbench/stack.h"
#include "perfbench/stats.h"
#include "util/args.h"
#include "util/macros.h"
#include "util/random.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using dppr::RequestStatus;

// Every metric the two modes print, with its unit. run.py checks these
// against BENCHMARK.json.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},
    {"query_p50_ms", "ms"},
    {"query_p99_ms", "ms"},
    {"freshness_p50_ms", "ms"},
    {"freshness_p99_ms", "ms"},
    {"feed_edges_per_s", "edges/s"},
    {"ops_ok_frac", "ratio"},
    {"peak_rss_mb", "MB"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"router.read_self_p50_us", "us"},
    {"router.fanout_p50_ms", "ms"},
    {"router.fanout_p99_ms", "ms"},
    {"router.standby_read_frac", "ratio"},
    {"router.stale_retries", "count"},
    {"router.reroutes", "count"},
    {"router.update_retries", "count"},
    {"net.read_self_p50_us", "us"},
    {"net.read_self_p99_us", "us"},
    {"net.codec_ns_per_read", "ns"},
    {"net.bytes_per_read", "B"},
    {"net.bytes_per_update_edge", "B"},
    {"net.stats_frame_bytes", "B"},
    {"net.protocol_errors", "count"},
    {"net.deadline_sheds", "count"},
    {"server.read_p50_us", "us"},
    {"server.read_p99_us", "us"},
    {"server.read_self_p50_us", "us"},
    {"server.batch_p50_ms", "ms"},
    {"server.batch_p99_ms", "ms"},
    {"server.coalesce_ratio", "ratio"},
    {"server.read_in_maint_frac", "ratio"},
    {"server.shed", "count"},
    {"server.failed", "count"},
    {"server.samples_retained", "count"},
    {"index.point_read_us", "us"},
    {"index.topk_read_us", "us"},
    {"index.apply_p50_ms", "ms"},
    {"index.apply_p99_ms", "ms"},
    {"index.restore_frac", "ratio"},
    {"index.across_sources_frac", "ratio"},
    {"index.sources_pushed_per_batch", "count"},
    {"index.sources_skipped_per_batch", "count"},
    {"index.materialize_p50_ms", "ms"},
    {"index.materialize_p99_ms", "ms"},
    {"index.materializations", "count"},
    {"index.evictions", "count"},
    {"index.init_s", "s"},
    {"index.warmup_apply_ms", "ms"},
    {"index.scratch_mb", "MB"},
    {"core.push_ops_per_batch", "count"},
    {"core.push_mops_per_s", "Mops/s"},
    {"core.dense_round_frac", "ratio"},
    {"core.restore_saved_frac", "ratio"},
    {"core.push_speedup_vs_1t", "x"},
    {"graph.apply_ns_per_update", "ns"},
    {"estimator.apply_p50_ms", "ms"},
    {"estimator.apply_p99_ms", "ms"},
    {"estimator.reverse_push_ms_per_batch", "ms"},
    {"estimator.pair_read_us", "us"},
    {"estimator.hybrid_read_us", "us"},
    {"estimator.reverse_topk_read_us", "us"},
    {"estimator.read_p50_ms", "ms"},
    {"estimator.read_p99_ms", "ms"},
    {"estimator.read_p99_in_maint_ms", "ms"},
    {"estimator.setup_s", "s"},
    {"estimator.walk_index_mb", "MB"},
    {"mc.repair_us_per_update", "us"},
    {"mc.walks_repaired_per_update", "count"},
    {"storage.wal_append_p50_ms", "ms"},
    {"storage.wal_append_p99_ms", "ms"},
    {"storage.wal_bytes_per_edge", "B"},
    {"storage.checkpoint_ms", "ms"},
    {"storage.remat_from_spill_frac", "ratio"},
    {"storage.spills_written", "count"},
    {"bench.gen_lag_p99_ms", "ms"},
    {"bench.trace_overhead_frac", "ratio"},
    {"bench.sustainable_qps", "req/s"},
};

/// Latency metrics print the percentile they were taken at and the
/// sample count; everything else prints its value and unit.
struct Reported {
  double value = 0.0;
  double percentile = 0.0;  ///< 0 = not a percentile
  int64_t count = 0;
};
using Report = std::map<std::string, Reported>;

void Put(Report* report, const std::string& name, double value) {
  (*report)[name] = {value, 0.0, 0};
}
void PutTail(Report* report, const std::string& name, const Tail& tail) {
  (*report)[name] = {tail.value, tail.percentile, tail.count};
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB to MiB
}

// ------------------------------------------------------------ reads

/// Everything a read needs, for plain and traced issue.
struct ReadContext {
  const WorkloadConfig* config = nullptr;
  Stack* stack = nullptr;
  bool traced = false;
  size_t sample_every = 1;   ///< traced: every n-th forward read probes
  uint64_t request_base = 0;  ///< traced: request ids of this phase
  SpanLog* spans = nullptr;
  /// One client per slot primary, for the net layer of traced reads.
  std::vector<std::unique_ptr<dppr::net::RemoteShardClient>>* clients =
      nullptr;
};

RequestStatus Combine(const std::vector<dppr::QueryResponse>& responses) {
  for (const auto& r : responses) {
    if (r.status != RequestStatus::kOk) return r.status;
  }
  return RequestStatus::kOk;
}

/// Sends `r` through the router's asynchronous call for its kind.
/// MultiSourceQuery has none, so it runs when its answer is taken.
std::future<dppr::QueryResponse> Send(dppr::ShardedPprService& router,
                                      const Request& r) {
  switch (r.op) {
    case Op::kPoint: return router.QueryVertexAsync(r.key, r.other);
    case Op::kTopK: return router.TopKAsync(r.key, kTopK);
    case Op::kMulti:
      return std::async(std::launch::deferred, [&router, r] {
        dppr::QueryResponse combined;
        combined.status = Combine(router.MultiSourceQuery(
            std::vector<VertexId>(r.multi.begin(), r.multi.end()), r.other));
        return combined;
      });
    case Op::kPair: return router.QueryPairAsync(r.other, r.key);
    case Op::kHybrid: return router.HybridPairAsync(r.other, r.key);
    case Op::kReverseTopK: return router.ReverseTopKAsync(r.key, kTopK);
  }
  DPPR_CHECK_MSG(false, "unknown read kind");
  return {};
}

/// Sends the same point read into each layer on the owning slot's
/// primary, in turn: the router, its RemoteShardClient (fleet only), its
/// PprService and its PprIndex. The later calls are child spans of the
/// router's. A top-k read probes only the index, where its cost differs
/// from a point read's.
void ProbeLayers(const ReadContext& ctx, const Request& r, uint64_t request,
                 std::vector<Span>* out) {
  const int slot = ctx.stack->SlotOf(r.key);
  const Stack::Replica& primary =
      ctx.stack->slots()[static_cast<size_t>(slot)][0];
  const auto span = [&](const char* name, uint64_t parent, auto&& body) {
    Span s;
    s.name = name;
    s.id = ctx.spans->NextId();
    s.parent = parent;
    s.request = request;
    s.start_ns = SpanLog::Now();
    body();
    s.end_ns = SpanLog::Now();
    out->push_back(s);
    return s.id;
  };
  const dppr::PprIndex* index = primary.service->index();
  if (r.op == Op::kTopK) {
    span("index.topk_read", 0,
         [&] { (void)index->TopKForSource(r.key, kTopK); });
    return;
  }
  const uint64_t router_span = span("router.read", 0, [&] {
    (void)ctx.stack->router().QueryVertexAsync(r.key, r.other).get();
  });
  if (primary.server != nullptr) {
    dppr::net::RemoteShardClient& client =
        *(*ctx.clients)[static_cast<size_t>(slot)];
    span("net.read", router_span,
         [&] { (void)client.QueryVertexAsync(r.key, r.other, 0).get(); });
  }
  span("server.read", router_span, [&] {
    (void)primary.service->QueryVertexAsync(r.key, r.other).get();
  });
  span("index.read", router_span,
       [&] { (void)index->QueryVertexForSource(r.key, r.other); });
}

/// Runs `schedule` from `start` and appends the traced spans to the log.
std::vector<ReadRecord> RunPhase(const ReadContext& ctx,
                                 const std::vector<Request>& schedule,
                                 Clock::time_point start) {
  std::vector<std::vector<Span>> per_taker(
      static_cast<size_t>(ctx.config->read_threads));
  const IssueFn issue = [&](const Request& r) {
    Issued issued;
    if (ctx.traced && IsEstimatorOp(r.op)) {
      const int slot = ctx.stack->SlotOf(r.key);
      issued.in_maintenance = ctx.stack->slots()[static_cast<size_t>(slot)][0]
                                  .service->InMaintenance();
    }
    issued.answer = Send(ctx.stack->router(), r);
    return issued;
  };
  AnsweredFn answered;
  if (ctx.traced) {
    answered = [&](const Request& r, size_t i, int taker) {
      if ((r.op == Op::kPoint || r.op == Op::kTopK) &&
          i % ctx.sample_every == 0) {
        ProbeLayers(ctx, r, ctx.request_base + i,
                    &per_taker[static_cast<size_t>(taker)]);
      }
    };
  }
  std::vector<ReadRecord> records = RunReads(
      schedule, start, ctx.config->read_threads, issue, answered);
  for (const auto& spans : per_taker) ctx.spans->Append(spans);
  return records;
}

// ------------------------------------------------------------ tallies

/// Request outcomes by terminal status.
struct Outcomes {
  std::map<RequestStatus, int64_t> by_status;
  int64_t attempted = 0;
  int64_t failed = 0;
  void Add(RequestStatus status) {
    ++by_status[status];
    ++attempted;
    if (status != RequestStatus::kOk) ++failed;
  }
  void AddReads(const std::vector<ReadRecord>& records) {
    for (const ReadRecord& r : records) Add(r.status);
  }
  void AddFeed(const std::vector<FeedRecord>& records) {
    for (const FeedRecord& r : records) Add(r.status);
  }
  void Print(const char* label) const {
    std::printf("%s: %lld attempted, %lld failed (ops_failed_frac %.6g)",
                label, static_cast<long long>(attempted),
                static_cast<long long>(failed),
                attempted > 0 ? static_cast<double>(failed) /
                                    static_cast<double>(attempted)
                              : 0.0);
    for (const auto& [status, n] : by_status) {
      std::printf(" %s=%lld", dppr::RequestStatusName(status),
                  static_cast<long long>(n));
    }
    std::printf("\n");
  }
};

std::vector<double> Latencies(const std::vector<ReadRecord>& records) {
  std::vector<double> out;
  for (const ReadRecord& r : records) out.push_back(r.latency_ms);
  return out;
}

std::vector<TimedSample> TimedLatencies(
    const std::vector<ReadRecord>& records, bool estimator_only = false) {
  std::vector<TimedSample> out;
  for (const ReadRecord& r : records) {
    if (!estimator_only || IsEstimatorOp(r.op)) {
      out.push_back({r.due_s, r.latency_ms});
    }
  }
  return out;
}

std::vector<double> Lateness(const std::vector<ReadRecord>& records) {
  std::vector<double> out;
  for (const ReadRecord& r : records) out.push_back(r.lateness_ms);
  return out;
}

/// Median due-time latency of the last quarter of a step minus that of
/// its first: the growth of the backlog, wherever it queues. Medians, so
/// a few reads held by the wire do not read as a growing backlog.
double LatencyGrowth(const std::vector<ReadRecord>& records) {
  const size_t q = records.size() / 4;
  if (q == 0) return 0.0;
  std::vector<double> first;
  std::vector<double> last;
  for (size_t i = 0; i < q; ++i) {
    first.push_back(records[i].latency_ms);
    last.push_back(records[records.size() - 1 - i].latency_ms);
  }
  std::sort(first.begin(), first.end());
  std::sort(last.begin(), last.end());
  return Median(last) - Median(first);
}

/// WindowedSummary(), printing each window's median and tail, so a
/// reader can see how far the windows of one run agree.
Summary Windowed(const char* name, std::vector<TimedSample> samples) {
  std::vector<Summary> windows;
  const Summary s = WindowedSummary(std::move(samples), 99.0, &windows);
  std::printf("windows %s (p50/p%g ms):", name, s.tail.percentile);
  for (const Summary& w : windows) {
    std::printf(" %.4g/%.4g", w.p50.value, w.tail.value);
  }
  std::printf("\n");
  return s;
}

// ------------------------------------------------------------ oracle

/// Compares served answers with power iteration on the final graph.
/// Returns the number of violations; prints each.
int64_t CheckOracle(const Inputs& inputs, size_t applied_end, Stack* stack,
                    uint64_t seed) {
  int64_t violations = 0;
  const auto violation = [&](const std::string& what) {
    ++violations;
    std::printf("oracle: VIOLATION %s\n", what.c_str());
  };
  dppr::DynamicGraph final_graph =
      dppr::DynamicGraph::FromEdges(inputs.initial, inputs.num_vertices);
  for (size_t b = 0; b < applied_end; ++b) {
    for (const dppr::EdgeUpdate& u : inputs.batches[b]) final_graph.Apply(u);
  }

  // Every replica serves the final graph, at one epoch per source.
  for (size_t slot = 0; slot < stack->slots().size(); ++slot) {
    const auto& replicas = stack->slots()[slot];
    const dppr::PprIndex* lead = replicas[0].service->index();
    for (size_t r = 0; r < replicas.size(); ++r) {
      const dppr::PprIndex* index = replicas[r].service->index();
      if (index->graph()->Checksum() != final_graph.Checksum()) {
        violation("slot " + std::to_string(slot) + " replica " +
                  std::to_string(r) + " graph differs from the feed");
      }
      for (const VertexId s : lead->Sources()) {
        const auto mine = index->SnapshotForSource(s);
        const auto theirs = lead->SnapshotForSource(s);
        if (mine == nullptr || mine->epoch != theirs->epoch) {
          violation("slot " + std::to_string(slot) + " replica " +
                    std::to_string(r) + " source " + std::to_string(s) +
                    " epoch differs from replica 0");
        }
      }
    }
  }

  dppr::Rng rng(seed ^ 0x0EAC1E);
  const dppr::PowerIterationOptions oracle_options;
  const double tol = kEps * 1.0001 + 1e-10;
  const std::vector<size_t> picks = {0, 1, inputs.hubs.size() / 2,
                                     inputs.hubs.size() - 1};
  int64_t checked = 0;
  for (const size_t pick : picks) {
    const VertexId s = inputs.hubs[pick];
    const std::vector<double> truth =
        dppr::PowerIterationPpr(final_graph, s, oracle_options);
    for (int i = 0; i < 32; ++i) {
      const auto v = static_cast<VertexId>(
          rng.NextBounded(static_cast<uint64_t>(inputs.num_vertices)));
      const dppr::QueryResponse got = stack->router().Query(s, v);
      ++checked;
      if (got.status != RequestStatus::kOk ||
          std::fabs(got.estimate.value - truth[static_cast<size_t>(v)]) >
              tol) {
        violation("point read hub " + std::to_string(s) + " vertex " +
                  std::to_string(v));
      }
    }
    const dppr::QueryResponse top = stack->router().TopK(s, kTopK);
    ++checked;
    if (top.status != RequestStatus::kOk) {
      violation("top-k read hub " + std::to_string(s));
    } else {
      for (const dppr::ScoredVertex& e : top.topk.entries) {
        if (std::fabs(e.score - truth[static_cast<size_t>(e.id)]) > tol) {
          violation("top-k entry hub " + std::to_string(s) + " vertex " +
                    std::to_string(e.id));
        }
      }
    }
  }

  if (!inputs.targets.empty()) {
    const double est_tol = kEstimatorEps * 1e-4 + 1e-10;
    for (int i = 0; i < 6; ++i) {
      const auto s = static_cast<VertexId>(
          rng.NextBounded(static_cast<uint64_t>(inputs.num_vertices)));
      const std::vector<double> forward =
          dppr::ForwardPowerIterationPpr(final_graph, s, oracle_options);
      for (size_t j = 0; j < inputs.targets.size(); j += 3) {
        const VertexId t = inputs.targets[j];
        const double truth = forward[static_cast<size_t>(t)];
        for (const bool hybrid : {false, true}) {
          const dppr::QueryResponse got =
              hybrid ? stack->router().HybridPair(s, t)
                     : stack->router().QueryPair(s, t);
          ++checked;
          if (got.status != RequestStatus::kOk ||
              truth < got.estimate.lower - est_tol ||
              truth > got.estimate.upper + est_tol) {
            violation(std::string(hybrid ? "hybrid" : "pair") + " read s " +
                      std::to_string(s) + " t " + std::to_string(t));
          }
        }
      }
    }
  }
  std::printf("oracle: %lld answers checked against power iteration, "
              "%lld violations\n",
              static_cast<long long>(checked),
              static_cast<long long>(violations));
  return violations;
}

// ------------------------------------------------------------ per layer

/// Self-time and per-layer read metrics from the traced read spans: a
/// layer's self time is its span minus the span of the layer below.
void ReadSpanMetrics(const std::vector<Span>& spans, bool over_tcp,
                     Report* report) {
  std::map<uint64_t, std::map<std::string, double>> by_request;
  std::vector<double> index_topk;
  for (const Span& s : spans) {
    const std::string name = s.name;
    if (name == "index.topk_read") index_topk.push_back(s.Micros());
    by_request[s.request][name] = s.Micros();
  }
  std::vector<double> router_self, net_self, server_us, server_self,
      index_point;
  for (const auto& [id, us] : by_request) {
    if (us.count("router.read") == 0 || us.count("server.read") == 0 ||
        us.count("index.read") == 0 || (over_tcp && us.count("net.read") == 0)) {
      continue;
    }
    const double server = us.at("server.read");
    const double below_router = over_tcp ? us.at("net.read") : server;
    router_self.push_back(us.at("router.read") - below_router);
    if (over_tcp) net_self.push_back(us.at("net.read") - server);
    server_us.push_back(server);
    server_self.push_back(server - us.at("index.read"));
    index_point.push_back(us.at("index.read"));
  }
  PutTail(report, "router.read_self_p50_us", Summarize(router_self).p50);
  const Summary net = Summarize(net_self);
  PutTail(report, "net.read_self_p50_us", net.p50);
  PutTail(report, "net.read_self_p99_us", net.tail);
  const Summary server = Summarize(server_us);
  PutTail(report, "server.read_p50_us", server.p50);
  PutTail(report, "server.read_p99_us", server.tail);
  PutTail(report, "server.read_self_p50_us", Summarize(server_self).p50);
  PutTail(report, "index.point_read_us", Summarize(index_point).p50);
  PutTail(report, "index.topk_read_us", Summarize(index_topk).p50);
}

// ------------------------------------------------------------ net, server

/// Wire cost of the workload's own reads and batches through the public
/// codecs: frame bytes per read and per edge update, and decode plus
/// re-encode time of both frames of a read. The frames carry real
/// answers, taken from the owning primaries outside any timing.
void CodecMetrics(const Inputs& inputs, Stack* stack,
                  const std::vector<Request>& schedule, Report* report) {
  namespace net = dppr::net;
  struct Frames {
    Op op;
    std::string request;
    std::string response;
  };
  const auto primary = [&](VertexId key) {
    return stack->slots()[static_cast<size_t>(stack->SlotOf(key))][0]
        .service;
  };
  const int k = kTopK;
  std::vector<Frames> frames;
  for (size_t i = 0; i < std::min<size_t>(256, schedule.size()); ++i) {
    const Request& r = schedule[i];
    Frames f{r.op, {}, {}};
    dppr::PprService* service = primary(r.key);
    switch (r.op) {
      case Op::kPoint:
        net::EncodeQueryVertexRequest({r.key, r.other, 0}, &f.request);
        net::EncodeQueryResponse(
            service->QueryVertexAsync(r.key, r.other).get(), &f.response);
        break;
      case Op::kTopK:
      case Op::kReverseTopK:
        net::EncodeTopKRequest({r.key, k, 0}, &f.request);
        net::EncodeQueryResponse(r.op == Op::kTopK
                                     ? service->TopKAsync(r.key, k).get()
                                     : service->ReverseTopKAsync(r.key, k).get(),
                                 &f.response);
        break;
      case Op::kMulti: {
        net::MultiSourceRequest req;
        req.sources.assign(r.multi.begin(),
                           r.multi.begin() + kMultiSources);
        req.vertex = r.other;
        net::EncodeMultiSourceRequest(req, &f.request);
        std::vector<dppr::QueryResponse> answers;
        for (const VertexId s : req.sources) {
          answers.push_back(primary(s)->QueryVertexAsync(s, r.other).get());
        }
        net::EncodeMultiSourceResponse(RequestStatus::kOk, answers,
                                       &f.response);
        break;
      }
      case Op::kPair:
      case Op::kHybrid:
        net::EncodePairRequest({r.other, r.key, 0}, &f.request);
        net::EncodeQueryResponse(
            r.op == Op::kPair ? service->QueryPairAsync(r.other, r.key).get()
                              : service->HybridPairAsync(r.other, r.key).get(),
            &f.response);
        break;
    }
    frames.push_back(std::move(f));
  }

  double bytes = 0.0;
  for (const Frames& f : frames) {
    bytes += static_cast<double>(2 * net::kFrameHeaderBytes +
                                 f.request.size() + f.response.size());
  }
  // Both frames of each read, decoded and encoded again, with headers.
  constexpr int kReps = 20;
  std::string scratch;
  const Clock::time_point t0 = Clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    for (const Frames& f : frames) {
      for (const std::string* payload : {&f.request, &f.response}) {
        scratch.clear();
        net::FrameHeader header;
        header.payload_bytes = static_cast<uint32_t>(payload->size());
        net::EncodeFrameHeader(header, &scratch);
        DPPR_CHECK(net::DecodeFrameHeader(scratch.data(),
                                          net::kDefaultMaxFramePayload,
                                          &header)
                       .ok());
      }
      scratch.clear();
      switch (f.op) {
        case Op::kPoint: {
          net::QueryVertexRequest q;
          DPPR_CHECK(net::DecodeQueryVertexRequest(f.request, &q).ok());
          net::EncodeQueryVertexRequest(q, &scratch);
          break;
        }
        case Op::kTopK:
        case Op::kReverseTopK: {
          net::TopKRequest q;
          DPPR_CHECK(net::DecodeTopKRequest(f.request, &q).ok());
          net::EncodeTopKRequest(q, &scratch);
          break;
        }
        case Op::kMulti: {
          net::MultiSourceRequest q;
          DPPR_CHECK(net::DecodeMultiSourceRequest(f.request, &q).ok());
          net::EncodeMultiSourceRequest(q, &scratch);
          break;
        }
        case Op::kPair:
        case Op::kHybrid: {
          net::PairRequest q;
          DPPR_CHECK(net::DecodePairRequest(f.request, &q).ok());
          net::EncodePairRequest(q, &scratch);
          break;
        }
      }
      scratch.clear();
      if (f.op == Op::kMulti) {
        RequestStatus overall = RequestStatus::kOk;
        std::vector<dppr::QueryResponse> answers;
        DPPR_CHECK(net::DecodeMultiSourceResponse(f.response, &overall,
                                                  &answers)
                       .ok());
        net::EncodeMultiSourceResponse(overall, answers, &scratch);
      } else {
        dppr::QueryResponse answer;
        DPPR_CHECK(
            net::DecodeQueryResponsePayload(f.response, &answer).ok());
        net::EncodeQueryResponse(answer, &scratch);
      }
    }
  }
  const double ns = std::chrono::duration<double, std::nano>(
                        Clock::now() - t0)
                        .count();
  const auto reads = static_cast<double>(frames.size());
  Put(report, "net.codec_ns_per_read",
      reads > 0 ? ns / (reads * kReps) : 0.0);
  Put(report, "net.bytes_per_read", reads > 0 ? bytes / reads : 0.0);

  double batch_bytes = 0.0;
  double edges = 0.0;
  const size_t first = static_cast<size_t>(kWarmupBatches);
  for (size_t b = first; b < std::min(first + 100, inputs.batches.size());
       ++b) {
    scratch.clear();
    net::EncodeUpdateBatch(inputs.batches[b], &scratch);
    batch_bytes +=
        static_cast<double>(scratch.size() + net::kFrameHeaderBytes);
    edges += static_cast<double>(inputs.batches[b].size());
  }
  Put(report, "net.bytes_per_update_edge",
      edges > 0 ? batch_bytes / edges : 0.0);
}

/// Counters and latency samples of every replica's PprService, plus the
/// kStats frame each would answer with its samples included.
void ServerMetrics(Stack* stack, int64_t feed_requests, Report* report) {
  dppr::MetricsReport sum;
  dppr::Histogram batch_ms;
  int64_t samples = 0;
  int64_t replicas = 0;
  double stats_bytes = 0.0;
  for (const auto& slot : stack->slots()) {
    for (const Stack::Replica& replica : slot) {
      dppr::MetricsReport r;
      dppr::Histogram query_ms;
      dppr::Histogram one_batch_ms;
      replica.service->SnapshotMetrics(&r, &query_ms, &one_batch_ms);
      sum.Accumulate(r);
      batch_ms.Merge(one_batch_ms);
      samples += query_ms.Count() + one_batch_ms.Count();
      ++replicas;

      dppr::net::ShardStats stats;
      stats.num_vertices = static_cast<uint32_t>(
          replica.service->index()->graph()->NumVertices());
      stats.num_sources = replica.service->index()->NumSources();
      stats.running = 1;
      stats.report = r;
      stats.query_latency_samples = query_ms.Samples();
      stats.batch_latency_samples = one_batch_ms.Samples();
      std::string frame;
      dppr::net::EncodeShardStats(stats, &frame);
      stats_bytes = std::max(
          stats_bytes,
          static_cast<double>(frame.size() + dppr::net::kFrameHeaderBytes));
    }
  }
  const Summary batch = Summarize(batch_ms.Samples());
  PutTail(report, "server.batch_p50_ms", batch.p50);
  PutTail(report, "server.batch_p99_ms", batch.tail);
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  Put(report, "server.coalesce_ratio",
      ratio(static_cast<double>(feed_requests * replicas),
            static_cast<double>(sum.batches_applied)));
  Put(report, "server.read_in_maint_frac",
      ratio(static_cast<double>(sum.served_during_maintenance),
            static_cast<double>(sum.queries_completed)));
  Put(report, "server.shed",
      static_cast<double>(sum.queries_shed_queue_full +
                          sum.queries_shed_deadline +
                          sum.updates_shed_queue_full));
  Put(report, "server.failed", static_cast<double>(sum.queries_failed));
  Put(report, "server.samples_retained", static_cast<double>(samples));
  Put(report, "net.stats_frame_bytes", stats_bytes);
}

// ------------------------------------------------------------ output

std::string JsonNumber(double v) {
  // A miss has no finite latency; the largest double stands for it.
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetric(const std::string& name, const char* unit,
                 const Reported& r) {
  if (r.percentile > 0) {
    std::printf("metric %-36s %14.6g %-8s p%g of n=%lld\n", name.c_str(),
                r.value, unit, r.percentile,
                static_cast<long long>(r.count));
  } else {
    std::printf("metric %-36s %14.6g %s\n", name.c_str(), r.value, unit);
  }
}

/// Prints every metric of the mode, then the result line.
void PrintResult(const std::vector<std::pair<const char*, const char*>>& names,
                 const Report& report, bool correct, const Outcomes& outcomes) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcomes.attempted);
  json += ", \"failed\": " + std::to_string(outcomes.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : names) {
    const auto it = report.find(name);
    const Reported r = it != report.end() ? it->second : Reported{};
    PrintMetric(name, unit, r);
    json += first ? "" : ", ";
    first = false;
    json.append("\"").append(name).append("\": {\"value\": ");
    json.append(JsonNumber(r.value)).append(", \"unit\": \"");
    json.append(unit).append("\"}");
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void WriteSpans(const fs::path& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.string().c_str(), "w");
  if (f == nullptr) {
    std::printf("could not write spans to %s\n", path.string().c_str());
    return;
  }
  std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fclose(f);
  std::printf("wrote %zu spans to %s\n", spans.size(), path.string().c_str());
}

// ------------------------------------------------------------ the run

int Run(const WorkloadConfig& config, uint64_t seed, double seconds,
        bool trace, const fs::path& out_dir) {
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              config.name.c_str(), static_cast<unsigned long long>(seed),
              seconds, trace ? 1 : 0);
  std::printf(
      "threads: generator %d read (1 sender) + 1 feed; per replica "
      "%d service workers + 1 maintenance, %d server handlers, %d OpenMP\n",
      config.read_threads, config.service_workers,
      config.server_handlers, config.omp_threads);

  const Inputs inputs = MakeInputs(config);
  std::printf("inputs: |V|=%d initial edges=%zu batches=%zu of %zu updates, "
              "%zu hubs, %zu targets\n",
              inputs.num_vertices, inputs.initial.size(),
              inputs.batches.size(), inputs.batches.front().size(),
              inputs.hubs.size(), inputs.targets.size());

  SpanLog spans;
  const double half = seconds / 2.0;
  const uint64_t base = seed * 1000;
  std::vector<Request> warm = MakeSchedule(
      config, inputs, config.read_rate,
      2.0 * kWarmupReads / config.read_rate + 1.0, base + 1);
  warm.resize(std::min<size_t>(warm.size(), kWarmupReads));
  const std::vector<Request> traced_schedule =
      trace ? MakeSchedule(config, inputs, config.read_rate, half, base + 9)
            : std::vector<Request>{};

  Report report;
  Outcomes outcomes;
  std::vector<std::unique_ptr<dppr::net::RemoteShardClient>> clients;
  ReadContext ctx;
  ctx.config = &config;
  ctx.spans = &spans;
  ctx.clients = &clients;

  // Setup, repeated. Untraced, each of the last kMeasuredStacks stacks is
  // measured for its share of the window, in turn: a stack's own state
  // (its connections, where its threads run) moves its tails more than
  // the rest of a run does, and the summaries below take the median over
  // consecutive windows. Traced, the last stack is measured for the whole
  // window, its second half carrying spans.
  const int measured = trace ? 1 : kMeasuredStacks;
  const double window_s = seconds / measured;
  const size_t first_batch = static_cast<size_t>(kWarmupBatches);
  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  std::vector<ReadRecord> fixed;  // untraced reads of every window, in order
  std::vector<ReadRecord> traced;
  std::vector<FeedRecord> fed;  // batches of every window, in order
  bool dry = false;
  bool feed_ok = true;
  int64_t violations = 0;
  size_t applied_end = 0;
  int64_t feed_requests = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    // Hand the torn-down stack's pages back, so peak_rss_mb measures one
    // stack, not the allocator's memory of earlier setups.
    malloc_trim(0);
    const Clock::time_point t0 = Clock::now();
    stack = std::make_unique<Stack>(config, inputs);
    for (int b = 0; b < kWarmupBatches; ++b) {
      DPPR_CHECK(stack->router()
                     .ApplyUpdates(inputs.batches[static_cast<size_t>(b)])
                     .status == RequestStatus::kOk);
    }
    for (const Request& r : warm) {
      (void)Send(stack->router(), r).get();
    }
    setups.push_back(Seconds(Clock::now() - t0));
    std::printf("setup %d: %.3f s\n", rep, setups.back());

    const int k = rep - (kSetupReps - measured);
    if (k < 0) continue;
    ctx.stack = stack.get();
    Feed feed(&stack->router(), &inputs.batches, first_batch,
              config.feed_rate);
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(2);
    feed.Start(start, start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(window_s)));
    std::vector<ReadRecord> reads = RunPhase(
        ctx,
        MakeSchedule(config, inputs, config.read_rate,
                     trace ? half : window_s,
                     base + 2 + static_cast<uint64_t>(k)),
        start);
    if (trace) {
      for (const auto& slot : stack->slots()) {
        if (slot[0].server == nullptr) continue;
        clients.push_back(std::make_unique<dppr::net::RemoteShardClient>());
        DPPR_CHECK(clients.back()
                       ->Connect("127.0.0.1", slot[0].server->port())
                       .ok());
      }
      const double point_reads =
          config.read_rate * half * config.mix[0] / 100.0;
      ctx.traced = true;
      ctx.sample_every =
          std::max<size_t>(1, static_cast<size_t>(point_reads / 1500.0));
      ctx.request_base = 1'000'000;
      traced = RunPhase(
          ctx, traced_schedule,
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(half)));
      ctx.traced = false;
    }
    feed.Join();
    outcomes.AddReads(reads);
    outcomes.AddReads(traced);
    outcomes.AddFeed(feed.records());
    dry = dry || feed.ran_dry();
    applied_end = std::min(feed.next_batch(), inputs.batches.size());
    feed_requests =
        kWarmupBatches + static_cast<int64_t>(feed.records().size());
    const double offset = k * window_s;
    for (ReadRecord& r : reads) {
      r.due_s += offset;
      fixed.push_back(r);
    }
    for (FeedRecord r : feed.records()) {
      feed_ok = feed_ok && r.ok();
      r.due_s += offset;
      fed.push_back(r);
    }
    violations += CheckOracle(inputs, applied_end, stack.get(), seed);
  }

  // The sustainable-rate search (traced runs), with the feed running.
  // The oracle checked this stack after its measured window. The search
  // then drives it past its knee on purpose, where a PprServer whose
  // handler queue is full may close the router's connection, and the
  // router drops that replica for good. A stack that lost a replica is
  // no longer the one being measured, so the remaining steps are skipped.
  // The search's outcomes are its own: overload steps fail requests by
  // design, so they stay out of the run's attempted and failed counts.
  double sustainable = 0.0;
  if (trace) {
    Outcomes search_outcomes;
    Feed search_feed(&stack->router(), &inputs.batches, applied_end,
                     config.feed_rate);
    search_feed.Start(Clock::now(), Clock::now() + std::chrono::hours(1));
    const double step_s = half / kSearchSteps;
    uint64_t step_seed = base + 100;
    std::vector<RateStep> steps;
    sustainable = FindSustainableRate(
        [&](double rate) {
          if (stack->ReplicasLost() > 0) {
            std::printf("search: offered %9.1f req/s  skipped: the stack "
                        "has lost a replica\n",
                        rate);
            return RateStep{rate, kMiss, 0.0};
          }
          const std::vector<Request> schedule =
              MakeSchedule(config, inputs, rate, step_s, ++step_seed);
          const std::vector<ReadRecord> records = RunPhase(
              ctx, schedule, Clock::now() + std::chrono::milliseconds(1));
          search_outcomes.AddReads(records);
          const Summary s = Summarize(Latencies(records));
          const RateStep step{rate, s.tail.value, LatencyGrowth(records)};
          std::printf("search: offered %9.1f req/s  p%g %8.3f ms of n=%lld  "
                      "latency growth %8.3f ms  %s\n",
                      rate, s.tail.percentile, s.tail.value,
                      static_cast<long long>(s.tail.count),
                      step.latency_growth_ms,
                      Sustainable(step, config.latency_limit_ms) ? "pass"
                                                                 : "fail");
          return step;
        },
        config.read_rate, kSearchSteps, config.latency_limit_ms,
        &steps);
    search_feed.Stop();
    search_outcomes.AddFeed(search_feed.records());
    dry = dry || search_feed.ran_dry();
    feed_requests += static_cast<int64_t>(search_feed.records().size());
    search_outcomes.Print("search outcomes");
    std::printf("search: %d of the stack's replicas left the fleet\n",
                stack->ReplicasLost());
  }
  if (dry) std::printf("feed: ran dry before the window closed\n");
  const bool correct = violations == 0 && !dry && feed_ok;

  // What every mode prints for a reader, beside the metrics.
  outcomes.Print("outcomes");
  const Summary lag = Summarize(Lateness(fixed));
  std::printf("generator: offered %.1f reads/s and %.1f batches/s; "
              "lateness p50 %.3f ms, p%g %.3f ms of n=%lld\n",
              config.read_rate, config.feed_rate, lag.p50.value,
              lag.tail.percentile, lag.tail.value,
              static_cast<long long>(lag.tail.count));
  const std::vector<TimedSample> est =
      TimedLatencies(fixed, /*estimator_only=*/true);
  if (!est.empty()) {
    const Summary e = Windowed("estimator", est);
    PrintMetric("estimator_p50_ms", "ms", {e.p50.value, 50, e.p50.count});
    PrintMetric("estimator_p99_ms", "ms",
                {e.tail.value, e.tail.percentile, e.tail.count});
  }

  std::vector<TimedSample> freshness;
  std::vector<double> fanout;
  double edges = 0.0;
  for (const FeedRecord& r : fed) {
    freshness.push_back({r.due_s, r.freshness_ms});
    fanout.push_back(r.fanout_ms);
    if (r.ok() && r.done_in_window) edges += static_cast<double>(r.updates);
  }

  if (!trace) {
    std::sort(setups.begin(), setups.end());
    report["setup_s"] = {NearestRank(setups, 50.0), 50.0,
                         static_cast<int64_t>(setups.size())};
    const Summary q = Windowed("query", TimedLatencies(fixed));
    PutTail(&report, "query_p50_ms", q.p50);
    PutTail(&report, "query_p99_ms", q.tail);
    const Summary f = Windowed("freshness", freshness);
    PutTail(&report, "freshness_p50_ms", f.p50);
    PutTail(&report, "freshness_p99_ms", f.tail);
    Put(&report, "feed_edges_per_s", edges / seconds);
    Put(&report, "ops_ok_frac",
        1.0 - static_cast<double>(outcomes.failed) /
                  static_cast<double>(std::max<int64_t>(outcomes.attempted, 1)));
    Put(&report, "peak_rss_mb", PeakRssMb());
    stack->Stop();
    PrintResult(kEndToEnd, report, correct, outcomes);
    return correct ? 0 : 1;
  }

  // Traced run: per-layer metrics, the live ones first.
  const dppr::RouterReport router_report = stack->router().Report();
  const auto reads =
      static_cast<double>(router_report.primary_reads +
                          router_report.standby_reads);
  Put(&report, "router.standby_read_frac",
      reads > 0 ? static_cast<double>(router_report.standby_reads) / reads
                : 0.0);
  Put(&report, "router.stale_retries",
      static_cast<double>(router_report.stale_retries));
  Put(&report, "router.reroutes", static_cast<double>(router_report.reroutes));
  Put(&report, "router.update_retries",
      static_cast<double>(router_report.update_retries));
  const Summary fan = Summarize(fanout);
  PutTail(&report, "router.fanout_p50_ms", fan.p50);
  PutTail(&report, "router.fanout_p99_ms", fan.tail);
  double protocol_errors = 0.0;
  double deadline_sheds = 0.0;
  for (const auto& slot : stack->slots()) {
    for (const Stack::Replica& replica : slot) {
      if (replica.server == nullptr) continue;
      protocol_errors += static_cast<double>(replica.server->protocol_errors());
      deadline_sheds += static_cast<double>(replica.server->deadline_sheds());
    }
  }
  Put(&report, "net.protocol_errors", protocol_errors);
  Put(&report, "net.deadline_sheds", deadline_sheds);
  CodecMetrics(inputs, stack.get(), traced_schedule, &report);
  ServerMetrics(stack.get(), feed_requests, &report);

  if (!est.empty()) {
    const Summary e = WindowedSummary(est);
    PutTail(&report, "estimator.read_p50_ms", e.p50);
    PutTail(&report, "estimator.read_p99_ms", e.tail);
  }
  std::vector<double> in_maint;
  for (const ReadRecord& r : traced) {
    if (IsEstimatorOp(r.op) && r.in_maintenance) {
      in_maint.push_back(r.latency_ms);
    }
  }
  PutTail(&report, "estimator.read_p99_in_maint_ms", Summarize(in_maint).tail);
  PutTail(&report, "bench.gen_lag_p99_ms", lag.tail);
  Put(&report, "bench.sustainable_qps", sustainable);
  const double untraced_p50 = Summarize(Latencies(fixed)).p50.value;
  const double traced_p50 = Summarize(Latencies(traced)).p50.value;
  Put(&report, "bench.trace_overhead_frac",
      untraced_p50 > 0 ? (traced_p50 - untraced_p50) / untraced_p50 : 0.0);

  clients.clear();
  stack->Stop();
  std::vector<Span> read_spans = spans.Take();
  ReadSpanMetrics(read_spans, config.over_tcp, &report);

  // The maintenance replay, on a stack of its own, after the live one
  // has stopped; its logs go to a directory of this run's own.
  const fs::path scratch = out_dir / ("run-" + std::to_string(getpid()));
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  const size_t replay_batches = static_cast<size_t>(kWarmupBatches) + 150;
  for (const auto& [name, value] :
       ReplayMaintenance(config, inputs, replay_batches,
                         (scratch / "replay").string(), &spans)) {
    Put(&report, name, value);
  }
  std::vector<Span> all = spans.Take();
  all.insert(all.begin(), read_spans.begin(), read_spans.end());
  WriteSpans(out_dir / (config.name + "-seed" + std::to_string(seed) +
                        ".spans.tsv"),
             all);
  fs::remove_all(scratch);
  PrintResult(kPerLayer, report, correct, outcomes);
  return correct ? 0 : 1;
}

/// OpenMP reads its environment once, when the library loads, and the
/// threads the stack spawns take those values; so the workload's thread
/// count must be in the environment before the process starts. Idle
/// OpenMP threads sleep instead of spinning, so a push team does not
/// take the cores the generator and the serving threads share with it.
/// Re-executes this binary with both set when they are not.
void PinOmpThreads(int threads, char** argv) {
  const std::string want = std::to_string(threads);
  const char* have = std::getenv("OMP_NUM_THREADS");
  const char* wait = std::getenv("OMP_WAIT_POLICY");
  if (have != nullptr && want == have && wait != nullptr &&
      std::string(wait) == "passive") {
    return;
  }
  setenv("OMP_NUM_THREADS", want.c_str(), 1);
  setenv("OMP_WAIT_POLICY", "passive", 1);
  execv("/proc/self/exe", argv);
  std::perror("execv");
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  dppr::ArgParser args;
  if (const dppr::Status st = args.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  const std::string name = args.GetString("workload", "");
  const perfbench::WorkloadConfig* config = perfbench::FindWorkload(name);
  const int64_t seed = args.GetInt("seed", 1);
  const double seconds = args.GetDouble("seconds", 10.0);
  const int64_t trace = args.GetInt("trace", 0);
  const std::string out_dir =
      args.GetString("out_dir", ".bench_build/perfbench-out");
  if (config == nullptr || seed < 0 || seconds <= 0 ||
      (trace != 0 && trace != 1) || !args.UnusedKeys().empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 [--out_dir=DIR]\nworkloads:");
    for (const std::string& w : perfbench::WorkloadNames()) {
      std::fprintf(stderr, " %s", w.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  perfbench::PinOmpThreads(config->omp_threads, argv);
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  return perfbench::Run(*config, static_cast<uint64_t>(seed), seconds,
                        trace == 1, out_dir);
}
