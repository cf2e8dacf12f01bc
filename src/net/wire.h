// Wire format of the per-shard network transport.
//
// Everything on the socket is a length-prefixed binary FRAME:
//
//   header (20 bytes, all little-endian):
//     u32 magic         'DPNT' (0x544E5044)
//     u8  version       4 (v2: kStats responses carry the shard's
//                          max published epoch; v3: kStats adds the graph
//                          checksum; v4: estimator verbs 12-17)
//     u8  verb          Verb (server/request.h)
//     u16 flags         bit 0 = response
//     u64 request_id    echoed verbatim in the response (multiplexing key)
//     u32 payload_bytes MUST be <= the endpoint's max_frame_payload
//   payload (payload_bytes bytes, verb-specific, codecs below)
//
// The codecs reuse core/serialization's endian-explicit blob helpers, so
// one bounds-check or endianness fix reaches checkpoints, migration blobs,
// and frames alike. Every decode validates advertised counts against the
// bytes actually present BEFORE allocating — a malformed or hostile peer
// can make a connection die, never make a shard OOM. See
// src/net/README.md for the verb table and failure semantics.

#ifndef DPPR_NET_WIRE_H_
#define DPPR_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/serialization.h"
#include "graph/types.h"
#include "server/metrics.h"
#include "server/ppr_service.h"
#include "server/request.h"
#include "util/status.h"

namespace dppr {
namespace net {

inline constexpr uint32_t kFrameMagic = 0x544E5044;  // "DPNT"
inline constexpr uint8_t kFrameVersion = 4;
inline constexpr size_t kFrameHeaderBytes = 20;
inline constexpr uint16_t kFlagResponse = 1;

/// Default ceiling on one frame's payload. Large enough for a migration
/// blob of a ~2M-vertex shard (16 B/vertex), small enough that a hostile
/// length prefix cannot OOM the process. Both endpoints enforce it.
inline constexpr size_t kDefaultMaxFramePayload = size_t{64} << 20;

/// The verbs live with the request envelope (server/request.h).
using Verb = ::dppr::Verb;

/// True iff `verb` is a value this protocol version defines.
bool IsKnownVerb(uint8_t verb);
const char* VerbName(Verb verb);

struct FrameHeader {
  uint8_t version = kFrameVersion;
  Verb verb = Verb::kQueryVertex;
  uint16_t flags = 0;
  uint64_t request_id = 0;
  uint32_t payload_bytes = 0;

  bool IsResponse() const { return (flags & kFlagResponse) != 0; }
};

/// Appends the 20-byte header to `out`.
void EncodeFrameHeader(const FrameHeader& header, std::string* out);

/// Decodes exactly kFrameHeaderBytes from `data`. Rejects bad magic,
/// unknown version/verb, and a payload length above `max_payload` — the
/// oversized check happens HERE, before any payload allocation.
Status DecodeFrameHeader(const char* data, size_t max_payload,
                         FrameHeader* out);

/// RequestStatus <-> wire byte. Decode rejects bytes that name no status.
uint8_t EncodeRequestStatus(RequestStatus status);
bool DecodeRequestStatus(uint8_t wire, RequestStatus* out);

// --- Request payloads ----------------------------------------------------

struct QueryVertexRequest {
  VertexId source = kInvalidVertex;
  VertexId vertex = kInvalidVertex;
  int64_t deadline_ms = 0;
};

struct TopKRequest {
  VertexId source = kInvalidVertex;
  int32_t k = 0;
  int64_t deadline_ms = 0;
};

/// kQueryPair / kHybridQuery requests. kReverseTopK reuses TopKRequest
/// with `source` carrying the TARGET id; kAddTarget / kRemoveTarget reuse
/// the one-vertex source-request codec; kListTargets reuses the empty
/// request + source-list response.
struct PairRequest {
  VertexId source = kInvalidVertex;
  VertexId target = kInvalidVertex;
  int64_t deadline_ms = 0;
};

struct MultiSourceRequest {
  std::vector<VertexId> sources;
  VertexId vertex = kInvalidVertex;
  int64_t deadline_ms = 0;
};

void EncodeQueryVertexRequest(const QueryVertexRequest& req,
                              std::string* out);
Status DecodeQueryVertexRequest(const std::string& payload,
                                QueryVertexRequest* out);

void EncodeTopKRequest(const TopKRequest& req, std::string* out);
Status DecodeTopKRequest(const std::string& payload, TopKRequest* out);

void EncodePairRequest(const PairRequest& req, std::string* out);
Status DecodePairRequest(const std::string& payload, PairRequest* out);

void EncodeMultiSourceRequest(const MultiSourceRequest& req,
                              std::string* out);
Status DecodeMultiSourceRequest(const std::string& payload,
                                MultiSourceRequest* out);

void EncodeUpdateBatch(const UpdateBatch& batch, std::string* out);
Status DecodeUpdateBatch(const std::string& payload, UpdateBatch* out);

/// kAddSource / kRemoveSource / kExtractSource requests: one vertex id.
void EncodeSourceRequest(VertexId source, std::string* out);
Status DecodeSourceRequest(const std::string& payload, VertexId* out);

/// kStats request: whether to include the exact latency samples.
void EncodeStatsRequest(bool include_samples, std::string* out);
Status DecodeStatsRequest(const std::string& payload, bool* include_samples);

// kQuiesce and kListSources requests carry an empty payload.
// A kInjectSource request's payload IS the migration blob, verbatim.

/// The payload of an enveloped verb's request (server/request.h), through
/// that verb's codec above: the envelope adds no byte of its own.
void EncodeRequest(const Request& request, std::string* out);
/// Decodes `payload` as a `verb` request into *out (reset first). Fails
/// on a malformed payload or a verb outside the envelope.
Status DecodeRequest(Verb verb, const std::string& payload, Request* out);

// --- Response payloads ---------------------------------------------------

void EncodeQueryResponse(const QueryResponse& response, std::string* out);
Status DecodeQueryResponse(blob::Reader* reader, QueryResponse* out);
Status DecodeQueryResponsePayload(const std::string& payload,
                                  QueryResponse* out);

/// The multi-source response leads with an OVERALL status: kOk means the
/// per-source responses follow; anything else (e.g. kShedQueueFull from a
/// server too busy to even decode the request) applies to every source
/// and carries no entries — the client expands it to one response per
/// requested source.
void EncodeMultiSourceResponse(RequestStatus overall,
                               const std::vector<QueryResponse>& responses,
                               std::string* out);
Status DecodeMultiSourceResponse(const std::string& payload,
                                 RequestStatus* overall,
                                 std::vector<QueryResponse>* out);

void EncodeMaintResponse(const MaintResponse& response, std::string* out);
Status DecodeMaintResponse(const std::string& payload, MaintResponse* out);

/// kExtractSource response: a MaintResponse plus (iff status is kOk) the
/// migration blob — the exact bytes InjectSource on another shard accepts.
void EncodeExtractResponse(const MaintResponse& response,
                           const std::string& blob, std::string* out);
Status DecodeExtractResponse(const std::string& payload,
                             MaintResponse* response, std::string* blob);

/// kStats response body: the shard's health/metrics view.
struct ShardStats {
  uint32_t num_vertices = 0;   ///< graph replica size (join-time check)
  uint64_t num_sources = 0;
  /// The shard's epoch, PprIndex::Epoch: 1 + the update requests its
  /// graph reflects, the epoch every live source serves at. The join
  /// handshake compares it with the cohort's (new in frame version 2).
  uint64_t max_epoch = 0;
  /// Fingerprint of the shard's graph replica (DynamicGraph::Checksum).
  /// The join handshake compares it against the cohort before admitting a
  /// new backend (new in frame version 3).
  uint64_t graph_checksum = 0;
  uint8_t running = 0;
  MetricsReport report;
  /// Exact latency samples, present iff the request asked for them.
  std::vector<double> query_latency_samples;
  std::vector<double> batch_latency_samples;
};

void EncodeShardStats(const ShardStats& stats, std::string* out);
Status DecodeShardStats(const std::string& payload, ShardStats* out);

void EncodeSourceList(const std::vector<VertexId>& sources,
                      std::string* out);
Status DecodeSourceList(const std::string& payload,
                        std::vector<VertexId>* out);

}  // namespace net
}  // namespace dppr

#endif  // DPPR_NET_WIRE_H_
