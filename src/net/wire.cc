#include "net/wire.h"

#include "util/macros.h"

namespace dppr {
namespace net {

namespace {

Status Malformed(const std::string& what) {
  return Status::Corruption("malformed frame payload: " + what);
}

/// Guards a count prefix against the bytes actually left in the reader:
/// a decoder may only allocate `count` elements of `elem_bytes` each when
/// the payload could possibly hold them.
bool PlausibleCount(const blob::Reader& reader, uint64_t count,
                    size_t elem_bytes) {
  return count <= reader.Remaining() / elem_bytes;
}

}  // namespace

bool IsKnownVerb(uint8_t verb) {
  return verb >= static_cast<uint8_t>(Verb::kQueryVertex) &&
         verb <= static_cast<uint8_t>(Verb::kListTargets);
}

const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kQueryVertex: return "query-vertex";
    case Verb::kTopK: return "top-k";
    case Verb::kMultiSource: return "multi-source";
    case Verb::kApplyUpdates: return "apply-updates";
    case Verb::kAddSource: return "add-source";
    case Verb::kRemoveSource: return "remove-source";
    case Verb::kQuiesce: return "quiesce";
    case Verb::kExtractSource: return "extract-source";
    case Verb::kInjectSource: return "inject-source";
    case Verb::kStats: return "stats";
    case Verb::kListSources: return "list-sources";
    case Verb::kQueryPair: return "query-pair";
    case Verb::kReverseTopK: return "reverse-top-k";
    case Verb::kHybridQuery: return "hybrid-query";
    case Verb::kAddTarget: return "add-target";
    case Verb::kRemoveTarget: return "remove-target";
    case Verb::kListTargets: return "list-targets";
  }
  return "?";
}

void EncodeFrameHeader(const FrameHeader& header, std::string* out) {
  blob::PutU32(out, kFrameMagic);
  blob::PutU8(out, header.version);
  blob::PutU8(out, static_cast<uint8_t>(header.verb));
  blob::PutU16(out, header.flags);
  blob::PutU64(out, header.request_id);
  blob::PutU32(out, header.payload_bytes);
}

Status DecodeFrameHeader(const char* data, size_t max_payload,
                         FrameHeader* out) {
  DPPR_CHECK(out != nullptr);
  const std::string view(data, kFrameHeaderBytes);
  blob::Reader reader{view};
  uint32_t magic = 0;
  uint8_t version = 0;
  uint8_t verb = 0;
  uint16_t flags = 0;
  uint64_t request_id = 0;
  uint32_t payload_bytes = 0;
  // The buffer is exactly kFrameHeaderBytes by contract; Take cannot fail.
  (void)reader.U32(&magic);
  (void)reader.U8(&version);
  (void)reader.U8(&verb);
  (void)reader.U16(&flags);
  (void)reader.U64(&request_id);
  (void)reader.U32(&payload_bytes);
  if (magic != kFrameMagic) {
    return Status::Corruption("bad frame magic (not a dppr peer)");
  }
  if (version != kFrameVersion) {
    return Status::Corruption("unsupported frame version " +
                              std::to_string(version));
  }
  if (!IsKnownVerb(verb)) {
    return Status::Corruption("unknown verb " + std::to_string(verb));
  }
  if (payload_bytes > max_payload) {
    return Status::Corruption(
        "frame payload of " + std::to_string(payload_bytes) +
        " bytes exceeds the " + std::to_string(max_payload) + "-byte limit");
  }
  out->version = version;
  out->verb = static_cast<Verb>(verb);
  out->flags = flags;
  out->request_id = request_id;
  out->payload_bytes = payload_bytes;
  return Status::OK();
}

uint8_t EncodeRequestStatus(RequestStatus status) {
  return static_cast<uint8_t>(status);
}

bool DecodeRequestStatus(uint8_t wire, RequestStatus* out) {
  if (wire > static_cast<uint8_t>(RequestStatus::kUnavailable)) return false;
  *out = static_cast<RequestStatus>(wire);
  return true;
}

// --- Request payloads ----------------------------------------------------

void EncodeQueryVertexRequest(const QueryVertexRequest& req,
                              std::string* out) {
  blob::PutI32(out, req.source);
  blob::PutI32(out, req.vertex);
  blob::PutI64(out, req.deadline_ms);
}

Status DecodeQueryVertexRequest(const std::string& payload,
                                QueryVertexRequest* out) {
  blob::Reader reader{payload};
  if (!reader.I32(&out->source) || !reader.I32(&out->vertex) ||
      !reader.I64(&out->deadline_ms) || reader.Remaining() != 0) {
    return Malformed("query-vertex request");
  }
  return Status::OK();
}

void EncodeTopKRequest(const TopKRequest& req, std::string* out) {
  blob::PutI32(out, req.source);
  blob::PutI32(out, req.k);
  blob::PutI64(out, req.deadline_ms);
}

Status DecodeTopKRequest(const std::string& payload, TopKRequest* out) {
  blob::Reader reader{payload};
  if (!reader.I32(&out->source) || !reader.I32(&out->k) ||
      !reader.I64(&out->deadline_ms) || reader.Remaining() != 0) {
    return Malformed("top-k request");
  }
  return Status::OK();
}

void EncodePairRequest(const PairRequest& req, std::string* out) {
  blob::PutI32(out, req.source);
  blob::PutI32(out, req.target);
  blob::PutI64(out, req.deadline_ms);
}

Status DecodePairRequest(const std::string& payload, PairRequest* out) {
  blob::Reader reader{payload};
  if (!reader.I32(&out->source) || !reader.I32(&out->target) ||
      !reader.I64(&out->deadline_ms) || reader.Remaining() != 0) {
    return Malformed("pair request");
  }
  return Status::OK();
}

void EncodeMultiSourceRequest(const MultiSourceRequest& req,
                              std::string* out) {
  blob::PutU32(out, static_cast<uint32_t>(req.sources.size()));
  for (VertexId s : req.sources) blob::PutI32(out, s);
  blob::PutI32(out, req.vertex);
  blob::PutI64(out, req.deadline_ms);
}

Status DecodeMultiSourceRequest(const std::string& payload,
                                MultiSourceRequest* out) {
  blob::Reader reader{payload};
  uint32_t count = 0;
  if (!reader.U32(&count) ||
      !PlausibleCount(reader, count, sizeof(int32_t))) {
    return Malformed("multi-source request");
  }
  out->sources.clear();
  out->sources.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    VertexId s = kInvalidVertex;
    if (!reader.I32(&s)) return Malformed("multi-source request");
    out->sources.push_back(s);
  }
  if (!reader.I32(&out->vertex) || !reader.I64(&out->deadline_ms) ||
      reader.Remaining() != 0) {
    return Malformed("multi-source request");
  }
  return Status::OK();
}

void EncodeUpdateBatch(const UpdateBatch& batch, std::string* out) {
  blob::PutU32(out, static_cast<uint32_t>(batch.size()));
  for (const EdgeUpdate& update : batch) {
    blob::PutI32(out, update.u);
    blob::PutI32(out, update.v);
    blob::PutU8(out, update.op == UpdateOp::kInsert ? 1 : 0);
  }
}

Status DecodeUpdateBatch(const std::string& payload, UpdateBatch* out) {
  blob::Reader reader{payload};
  uint32_t count = 0;
  if (!reader.U32(&count) ||
      !PlausibleCount(reader, count, 2 * sizeof(int32_t) + 1)) {
    return Malformed("update batch");
  }
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    EdgeUpdate update;
    uint8_t op = 0;
    if (!reader.I32(&update.u) || !reader.I32(&update.v) ||
        !reader.U8(&op) || op > 1) {
      return Malformed("update batch");
    }
    update.op = op == 1 ? UpdateOp::kInsert : UpdateOp::kDelete;
    out->push_back(update);
  }
  if (reader.Remaining() != 0) return Malformed("update batch");
  return Status::OK();
}

void EncodeSourceRequest(VertexId source, std::string* out) {
  blob::PutI32(out, source);
}

Status DecodeSourceRequest(const std::string& payload, VertexId* out) {
  blob::Reader reader{payload};
  if (!reader.I32(out) || reader.Remaining() != 0) {
    return Malformed("source request");
  }
  return Status::OK();
}

void EncodeStatsRequest(bool include_samples, std::string* out) {
  blob::PutU8(out, include_samples ? 1 : 0);
}

Status DecodeStatsRequest(const std::string& payload,
                          bool* include_samples) {
  blob::Reader reader{payload};
  uint8_t flag = 0;
  if (!reader.U8(&flag) || flag > 1 || reader.Remaining() != 0) {
    return Malformed("stats request");
  }
  *include_samples = flag != 0;
  return Status::OK();
}

void EncodeRequest(const Request& request, std::string* out) {
  switch (request.verb) {
    case Verb::kQueryVertex:
      return EncodeQueryVertexRequest(
          {request.source, request.vertex, request.deadline_ms}, out);
    case Verb::kTopK:
      return EncodeTopKRequest(
          {request.source, request.k, request.deadline_ms}, out);
    case Verb::kReverseTopK:
      // The top-k codec, with `source` carrying the TARGET id.
      return EncodeTopKRequest(
          {request.target, request.k, request.deadline_ms}, out);
    case Verb::kQueryPair:
    case Verb::kHybridQuery:
      return EncodePairRequest(
          {request.source, request.target, request.deadline_ms}, out);
    case Verb::kApplyUpdates:
      return EncodeUpdateBatch(request.batch, out);
    case Verb::kAddSource:
    case Verb::kRemoveSource:
      return EncodeSourceRequest(request.source, out);
    case Verb::kAddTarget:
    case Verb::kRemoveTarget:
      return EncodeSourceRequest(request.target, out);
    case Verb::kQuiesce:
      return;
    default:
      DPPR_CHECK_MSG(false, "verb outside the request envelope");
  }
}

Status DecodeRequest(Verb verb, const std::string& payload, Request* out) {
  *out = Request{};
  out->verb = verb;
  switch (verb) {
    case Verb::kQueryVertex: {
      QueryVertexRequest req;
      DPPR_RETURN_NOT_OK(DecodeQueryVertexRequest(payload, &req));
      out->source = req.source;
      out->vertex = req.vertex;
      out->deadline_ms = req.deadline_ms;
      return Status::OK();
    }
    case Verb::kTopK:
    case Verb::kReverseTopK: {
      TopKRequest req;
      DPPR_RETURN_NOT_OK(DecodeTopKRequest(payload, &req));
      // kReverseTopK's `source` field carries the TARGET id.
      (verb == Verb::kTopK ? out->source : out->target) = req.source;
      out->k = req.k;
      out->deadline_ms = req.deadline_ms;
      return Status::OK();
    }
    case Verb::kQueryPair:
    case Verb::kHybridQuery: {
      PairRequest req;
      DPPR_RETURN_NOT_OK(DecodePairRequest(payload, &req));
      out->source = req.source;
      out->target = req.target;
      out->deadline_ms = req.deadline_ms;
      return Status::OK();
    }
    case Verb::kApplyUpdates:
      return DecodeUpdateBatch(payload, &out->batch);
    case Verb::kAddSource:
    case Verb::kRemoveSource:
      return DecodeSourceRequest(payload, &out->source);
    case Verb::kAddTarget:
    case Verb::kRemoveTarget:
      return DecodeSourceRequest(payload, &out->target);
    case Verb::kQuiesce:
      return payload.empty() ? Status::OK() : Malformed("quiesce request");
    default:
      return Malformed("verb outside the request envelope");
  }
}

// --- Response payloads ---------------------------------------------------

void EncodeQueryResponse(const QueryResponse& response, std::string* out) {
  blob::PutU8(out, EncodeRequestStatus(response.status));
  blob::PutU64(out, response.epoch);
  blob::PutU8(out, response.during_maintenance ? 1 : 0);
  blob::PutF64(out, response.estimate.value);
  blob::PutF64(out, response.estimate.lower);
  blob::PutF64(out, response.estimate.upper);
  blob::PutU32(out, static_cast<uint32_t>(response.topk.entries.size()));
  for (const ScoredVertex& entry : response.topk.entries) {
    blob::PutI32(out, entry.id);
    blob::PutF64(out, entry.score);
  }
  blob::PutI32(out, response.topk.certain_members);
}

Status DecodeQueryResponse(blob::Reader* reader, QueryResponse* out) {
  uint8_t status = 0;
  uint8_t during = 0;
  if (!reader->U8(&status) || !DecodeRequestStatus(status, &out->status) ||
      !reader->U64(&out->epoch) || !reader->U8(&during) || during > 1 ||
      !reader->F64(&out->estimate.value) ||
      !reader->F64(&out->estimate.lower) ||
      !reader->F64(&out->estimate.upper)) {
    return Malformed("query response");
  }
  out->during_maintenance = during != 0;
  uint32_t count = 0;
  if (!reader->U32(&count) ||
      !PlausibleCount(*reader, count, sizeof(int32_t) + sizeof(double))) {
    return Malformed("query response top-k");
  }
  out->topk.entries.clear();
  out->topk.entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ScoredVertex entry;
    if (!reader->I32(&entry.id) || !reader->F64(&entry.score)) {
      return Malformed("query response top-k");
    }
    out->topk.entries.push_back(entry);
  }
  if (!reader->I32(&out->topk.certain_members)) {
    return Malformed("query response top-k");
  }
  return Status::OK();
}

Status DecodeQueryResponsePayload(const std::string& payload,
                                  QueryResponse* out) {
  blob::Reader reader{payload};
  DPPR_RETURN_NOT_OK(DecodeQueryResponse(&reader, out));
  if (reader.Remaining() != 0) return Malformed("query response tail");
  return Status::OK();
}

void EncodeMultiSourceResponse(RequestStatus overall,
                               const std::vector<QueryResponse>& responses,
                               std::string* out) {
  blob::PutU8(out, EncodeRequestStatus(overall));
  blob::PutU32(out, static_cast<uint32_t>(responses.size()));
  for (const QueryResponse& response : responses) {
    EncodeQueryResponse(response, out);
  }
}

Status DecodeMultiSourceResponse(const std::string& payload,
                                 RequestStatus* overall,
                                 std::vector<QueryResponse>* out) {
  blob::Reader reader{payload};
  uint8_t status = 0;
  uint32_t count = 0;
  // An encoded QueryResponse is at least 42 bytes (status + epoch + flag
  // + three f64 + empty top-k + certified count).
  if (!reader.U8(&status) || !DecodeRequestStatus(status, overall) ||
      !reader.U32(&count) || !PlausibleCount(reader, count, 42)) {
    return Malformed("multi-source response");
  }
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    QueryResponse response;
    DPPR_RETURN_NOT_OK(DecodeQueryResponse(&reader, &response));
    out->push_back(std::move(response));
  }
  if (reader.Remaining() != 0) return Malformed("multi-source tail");
  return Status::OK();
}

void EncodeMaintResponse(const MaintResponse& response, std::string* out) {
  blob::PutU8(out, EncodeRequestStatus(response.status));
  blob::PutI64(out, response.updates_applied);
}

Status DecodeMaintResponse(const std::string& payload, MaintResponse* out) {
  blob::Reader reader{payload};
  uint8_t status = 0;
  if (!reader.U8(&status) || !DecodeRequestStatus(status, &out->status) ||
      !reader.I64(&out->updates_applied) || reader.Remaining() != 0) {
    return Malformed("maint response");
  }
  return Status::OK();
}

void EncodeExtractResponse(const MaintResponse& response,
                           const std::string& blob, std::string* out) {
  blob::PutU8(out, EncodeRequestStatus(response.status));
  blob::PutI64(out, response.updates_applied);
  out->append(blob);  // rest-of-payload; its own header is self-describing
}

Status DecodeExtractResponse(const std::string& payload,
                             MaintResponse* response, std::string* blob) {
  blob::Reader reader{payload};
  uint8_t status = 0;
  if (!reader.U8(&status) ||
      !DecodeRequestStatus(status, &response->status) ||
      !reader.I64(&response->updates_applied)) {
    return Malformed("extract response");
  }
  blob->assign(payload, reader.pos, payload.size() - reader.pos);
  if (response->status == RequestStatus::kOk && blob->empty()) {
    return Malformed("extract response carries no blob");
  }
  return Status::OK();
}

void EncodeShardStats(const ShardStats& stats, std::string* out) {
  blob::PutU32(out, stats.num_vertices);
  blob::PutU64(out, stats.num_sources);
  blob::PutU64(out, stats.max_epoch);
  blob::PutU64(out, stats.graph_checksum);
  blob::PutU8(out, stats.running);
  const MetricsReport& r = stats.report;
  blob::PutI64(out, r.queries_completed);
  blob::PutI64(out, r.queries_shed_queue_full);
  blob::PutI64(out, r.queries_shed_deadline);
  blob::PutI64(out, r.queries_failed);
  blob::PutI64(out, r.served_during_maintenance);
  blob::PutF64(out, r.query_mean_ms);
  blob::PutF64(out, r.query_p50_ms);
  blob::PutF64(out, r.query_p99_ms);
  blob::PutF64(out, r.query_max_ms);
  blob::PutI64(out, r.batches_applied);
  blob::PutI64(out, r.updates_applied);
  blob::PutI64(out, r.updates_shed_queue_full);
  blob::PutF64(out, r.batch_mean_ms);
  blob::PutF64(out, r.batch_p99_ms);
  blob::PutI64(out, r.sources_added);
  blob::PutI64(out, r.sources_removed);
  blob::PutI64(out, r.sources_materialized);
  blob::PutI64(out, r.sources_evicted);
  blob::PutI64(out, r.sources_rematerialized);
  blob::PutF64(out, r.materialize_p50_ms);
  blob::PutF64(out, r.materialize_p99_ms);
  blob::PutF64(out, r.elapsed_seconds);
  blob::PutU32(out,
               static_cast<uint32_t>(stats.query_latency_samples.size()));
  for (double v : stats.query_latency_samples) blob::PutF64(out, v);
  blob::PutU32(out,
               static_cast<uint32_t>(stats.batch_latency_samples.size()));
  for (double v : stats.batch_latency_samples) blob::PutF64(out, v);
}

Status DecodeShardStats(const std::string& payload, ShardStats* out) {
  blob::Reader reader{payload};
  MetricsReport& r = out->report;
  if (!reader.U32(&out->num_vertices) || !reader.U64(&out->num_sources) ||
      !reader.U64(&out->max_epoch) || !reader.U64(&out->graph_checksum) ||
      !reader.U8(&out->running) ||
      out->running > 1 ||
      !reader.I64(&r.queries_completed) ||
      !reader.I64(&r.queries_shed_queue_full) ||
      !reader.I64(&r.queries_shed_deadline) ||
      !reader.I64(&r.queries_failed) ||
      !reader.I64(&r.served_during_maintenance) ||
      !reader.F64(&r.query_mean_ms) || !reader.F64(&r.query_p50_ms) ||
      !reader.F64(&r.query_p99_ms) || !reader.F64(&r.query_max_ms) ||
      !reader.I64(&r.batches_applied) || !reader.I64(&r.updates_applied) ||
      !reader.I64(&r.updates_shed_queue_full) ||
      !reader.F64(&r.batch_mean_ms) || !reader.F64(&r.batch_p99_ms) ||
      !reader.I64(&r.sources_added) || !reader.I64(&r.sources_removed) ||
      !reader.I64(&r.sources_materialized) ||
      !reader.I64(&r.sources_evicted) ||
      !reader.I64(&r.sources_rematerialized) ||
      !reader.F64(&r.materialize_p50_ms) ||
      !reader.F64(&r.materialize_p99_ms) ||
      !reader.F64(&r.elapsed_seconds)) {
    return Malformed("stats response");
  }
  for (std::vector<double>* samples :
       {&out->query_latency_samples, &out->batch_latency_samples}) {
    uint32_t count = 0;
    if (!reader.U32(&count) ||
        !PlausibleCount(reader, count, sizeof(double))) {
      return Malformed("stats samples");
    }
    samples->clear();
    samples->reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      double v = 0.0;
      if (!reader.F64(&v)) return Malformed("stats samples");
      samples->push_back(v);
    }
  }
  if (reader.Remaining() != 0) return Malformed("stats tail");
  return Status::OK();
}

void EncodeSourceList(const std::vector<VertexId>& sources,
                      std::string* out) {
  blob::PutU32(out, static_cast<uint32_t>(sources.size()));
  for (VertexId s : sources) blob::PutI32(out, s);
}

Status DecodeSourceList(const std::string& payload,
                        std::vector<VertexId>* out) {
  blob::Reader reader{payload};
  uint32_t count = 0;
  if (!reader.U32(&count) ||
      !PlausibleCount(reader, count, sizeof(int32_t))) {
    return Malformed("source list");
  }
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    VertexId s = kInvalidVertex;
    if (!reader.I32(&s)) return Malformed("source list");
    out->push_back(s);
  }
  if (reader.Remaining() != 0) return Malformed("source list tail");
  return Status::OK();
}

}  // namespace net
}  // namespace dppr
