// Network transport tests (ctest label: net).
//
// Four layers, from bytes to processes:
//   1. Codec — frame headers and payload codecs round-trip, and every
//      decoder refuses truncation, corruption, and hostile length
//      prefixes (fuzz-ish sweeps) WITHOUT allocating for a lie.
//   2. Loopback — a PprServer over a live PprService answers exactly
//      like direct calls into the same service (same epochs, same bits:
//      it IS the same snapshot), and survives malformed peers.
//   3. Router — a ShardedPprService with a remote shard agrees with the
//      PR 3 unsharded oracle under lockstep updates/queries/churn,
//      including an over-the-wire join migration at unchanged epochs;
//      killing the remote shard surfaces kUnavailable, never a hang.
//   4. Fleet — real processes: hub_server --listen shards driven by a
//      hub_server --join router, and a replica group whose PRIMARY
//      PROCESS is SIGKILLed mid-query-storm — every source must stay
//      readable through the promoted standby, with no epoch regression
//      (skipped where the example binary is not built, e.g. the TSan
//      job).
//
// Every server binds port 0 (kernel-assigned), so parallel ctest workers
// never collide.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <future>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch_validation.h"
#include "core/serialization.h"
#include "gen/datasets.h"
#include "gen/generators.h"
#include "graph/dynamic_graph.h"
#include "graph/graph_stats.h"
#include "index/ppr_index.h"
#include "net/ppr_server.h"
#include "net/remote_client.h"
#include "net/socket.h"
#include "net/wire.h"
#include "router/migration.h"
#include "router/sharded_service.h"
#include "server/ppr_service.h"
#include "stream/edge_stream.h"
#include "stream/sliding_window.h"

namespace dppr {
namespace {

using net::FrameHeader;
using net::Verb;

// ------------------------------------------------------------ wire codec

TEST(NetWireTest, PrimitivesAreLittleEndianByConstruction) {
  std::string out;
  blob::PutU32(&out, 0x01020304u);
  blob::PutU16(&out, 0xA1B2u);
  blob::PutU64(&out, 0x1122334455667788ull);
  const unsigned char expected[] = {0x04, 0x03, 0x02, 0x01,  // u32
                                    0xB2, 0xA1,              // u16
                                    0x88, 0x77, 0x66, 0x55, 0x44,
                                    0x33, 0x22, 0x11};
  ASSERT_EQ(out.size(), sizeof(expected));
  for (size_t i = 0; i < sizeof(expected); ++i) {
    EXPECT_EQ(static_cast<unsigned char>(out[i]), expected[i]) << i;
  }

  blob::Reader reader{out};
  uint32_t u32 = 0;
  uint16_t u16 = 0;
  uint64_t u64 = 0;
  EXPECT_TRUE(reader.U32(&u32));
  EXPECT_TRUE(reader.U16(&u16));
  EXPECT_TRUE(reader.U64(&u64));
  EXPECT_EQ(u32, 0x01020304u);
  EXPECT_EQ(u16, 0xA1B2u);
  EXPECT_EQ(u64, 0x1122334455667788ull);
  EXPECT_EQ(reader.Remaining(), 0u);
}

TEST(NetWireTest, FrameHeaderRoundTrip) {
  FrameHeader header;
  header.verb = Verb::kTopK;
  header.flags = net::kFlagResponse;
  header.request_id = 0xDEADBEEFCAFEull;
  header.payload_bytes = 12345;
  std::string encoded;
  net::EncodeFrameHeader(header, &encoded);
  ASSERT_EQ(encoded.size(), net::kFrameHeaderBytes);

  FrameHeader decoded;
  ASSERT_TRUE(net::DecodeFrameHeader(encoded.data(),
                                     net::kDefaultMaxFramePayload, &decoded)
                  .ok());
  EXPECT_EQ(decoded.verb, header.verb);
  EXPECT_TRUE(decoded.IsResponse());
  EXPECT_EQ(decoded.request_id, header.request_id);
  EXPECT_EQ(decoded.payload_bytes, header.payload_bytes);
}

TEST(NetWireTest, FrameHeaderRejectsHostileInput) {
  FrameHeader header;
  header.verb = Verb::kQueryVertex;
  header.payload_bytes = 100;
  std::string encoded;
  net::EncodeFrameHeader(header, &encoded);

  FrameHeader decoded;
  // Oversized length prefix: the 100-byte claim must be refused under a
  // 64-byte limit BEFORE anyone allocates 100 bytes.
  EXPECT_TRUE(net::DecodeFrameHeader(encoded.data(), 64, &decoded)
                  .IsCorruption());
  // A length prefix near u32 max must be refused by the default limit.
  std::string bomb;
  net::EncodeFrameHeader(header, &bomb);
  bomb.resize(net::kFrameHeaderBytes);
  for (size_t i = net::kFrameHeaderBytes - 4; i < net::kFrameHeaderBytes;
       ++i) {
    bomb[i] = static_cast<char>(0xFF);
  }
  EXPECT_TRUE(net::DecodeFrameHeader(bomb.data(),
                                     net::kDefaultMaxFramePayload, &decoded)
                  .IsCorruption());
  // Bad magic.
  std::string garbled = encoded;
  garbled[0] = 'X';
  EXPECT_TRUE(net::DecodeFrameHeader(garbled.data(),
                                     net::kDefaultMaxFramePayload, &decoded)
                  .IsCorruption());
  // Unknown verb.
  std::string bad_verb = encoded;
  bad_verb[5] = static_cast<char>(200);
  EXPECT_TRUE(net::DecodeFrameHeader(bad_verb.data(),
                                     net::kDefaultMaxFramePayload, &decoded)
                  .IsCorruption());
  // Unknown version.
  std::string bad_version = encoded;
  bad_version[4] = 9;
  EXPECT_TRUE(net::DecodeFrameHeader(bad_version.data(),
                                     net::kDefaultMaxFramePayload, &decoded)
                  .IsCorruption());
}

TEST(NetWireTest, RequestCodecsRoundTrip) {
  {
    net::QueryVertexRequest in{7, 42, 250};
    std::string payload;
    net::EncodeQueryVertexRequest(in, &payload);
    net::QueryVertexRequest out;
    ASSERT_TRUE(net::DecodeQueryVertexRequest(payload, &out).ok());
    EXPECT_EQ(out.source, 7);
    EXPECT_EQ(out.vertex, 42);
    EXPECT_EQ(out.deadline_ms, 250);
  }
  {
    net::MultiSourceRequest in;
    in.sources = {3, 1, 4, 1, 5};
    in.vertex = 9;
    in.deadline_ms = 0;
    std::string payload;
    net::EncodeMultiSourceRequest(in, &payload);
    net::MultiSourceRequest out;
    ASSERT_TRUE(net::DecodeMultiSourceRequest(payload, &out).ok());
    EXPECT_EQ(out.sources, in.sources);
    EXPECT_EQ(out.vertex, 9);
  }
  {
    UpdateBatch in = {EdgeUpdate::Insert(1, 2), EdgeUpdate::Delete(3, 4)};
    std::string payload;
    net::EncodeUpdateBatch(in, &payload);
    UpdateBatch out;
    ASSERT_TRUE(net::DecodeUpdateBatch(payload, &out).ok());
    EXPECT_EQ(out, in);
  }
}

TEST(NetWireTest, QueryResponseCodecRoundTrip) {
  QueryResponse in;
  in.status = RequestStatus::kOk;
  in.epoch = 17;
  in.during_maintenance = true;
  in.estimate = {0.25, 0.2, 0.3};
  in.topk.entries = {{5, 0.5}, {2, 0.25}, {9, 0.125}};
  in.topk.certain_members = 2;
  std::string payload;
  net::EncodeQueryResponse(in, &payload);
  QueryResponse out;
  ASSERT_TRUE(net::DecodeQueryResponsePayload(payload, &out).ok());
  EXPECT_EQ(out.status, in.status);
  EXPECT_EQ(out.epoch, in.epoch);
  EXPECT_EQ(out.during_maintenance, in.during_maintenance);
  EXPECT_EQ(out.estimate.value, in.estimate.value);
  EXPECT_EQ(out.topk.entries, in.topk.entries);
  EXPECT_EQ(out.topk.certain_members, 2);
}

TEST(NetWireTest, DecodersRefuseTruncationEverywhere) {
  // Fuzz-ish: every strict prefix of a valid encoding must be refused
  // (never crash, never succeed) by the matching decoder.
  QueryResponse response;
  response.status = RequestStatus::kOk;
  response.epoch = 3;
  response.estimate = {0.5, 0.4, 0.6};
  response.topk.entries = {{1, 0.5}, {2, 0.25}};
  response.topk.certain_members = 1;
  std::string query_payload;
  net::EncodeQueryResponse(response, &query_payload);
  for (size_t cut = 0; cut < query_payload.size(); ++cut) {
    QueryResponse out;
    EXPECT_FALSE(net::DecodeQueryResponsePayload(
                     query_payload.substr(0, cut), &out)
                     .ok())
        << "prefix " << cut;
  }

  UpdateBatch batch = {EdgeUpdate::Insert(1, 2), EdgeUpdate::Delete(3, 4)};
  std::string batch_payload;
  net::EncodeUpdateBatch(batch, &batch_payload);
  for (size_t cut = 0; cut < batch_payload.size(); ++cut) {
    UpdateBatch out;
    EXPECT_FALSE(
        net::DecodeUpdateBatch(batch_payload.substr(0, cut), &out).ok())
        << "prefix " << cut;
  }

  net::ShardStats stats;
  stats.num_vertices = 100;
  stats.num_sources = 4;
  stats.max_epoch = 42;
  stats.running = 1;
  stats.report.queries_completed = 12;
  stats.query_latency_samples = {0.5, 1.5};
  stats.batch_latency_samples = {2.5};
  std::string stats_payload;
  net::EncodeShardStats(stats, &stats_payload);
  for (size_t cut = 0; cut < stats_payload.size(); ++cut) {
    net::ShardStats out;
    EXPECT_FALSE(
        net::DecodeShardStats(stats_payload.substr(0, cut), &out).ok())
        << "prefix " << cut;
  }
  net::ShardStats full;
  ASSERT_TRUE(net::DecodeShardStats(stats_payload, &full).ok());
  EXPECT_EQ(full.max_epoch, 42u);
}

TEST(NetWireTest, CountPrefixBombsAreRefusedWithoutAllocating) {
  // A source list claiming 500M entries in a 12-byte payload: the
  // decoder must refuse on arithmetic, not die reserving 2 GB.
  std::string bomb;
  blob::PutU32(&bomb, 500'000'000u);
  blob::PutI32(&bomb, 1);
  blob::PutI32(&bomb, 2);
  std::vector<VertexId> sources;
  EXPECT_TRUE(net::DecodeSourceList(bomb, &sources).IsCorruption());

  std::string update_bomb;
  blob::PutU32(&update_bomb, 400'000'000u);
  UpdateBatch batch;
  EXPECT_TRUE(net::DecodeUpdateBatch(update_bomb, &batch).IsCorruption());

  std::string multi_bomb;
  blob::PutU8(&multi_bomb, 0);  // overall status kOk
  blob::PutU32(&multi_bomb, 300'000'000u);
  RequestStatus overall = RequestStatus::kOk;
  std::vector<QueryResponse> responses;
  EXPECT_TRUE(net::DecodeMultiSourceResponse(multi_bomb, &overall,
                                             &responses)
                  .IsCorruption());
}

/// Lower-case hex of `bytes`, two digits per byte.
std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0xF]);
  }
  return out;
}

/// What `encode` appends to an empty string.
template <typename Encode>
std::string Encoded(const Encode& encode) {
  std::string out;
  encode(&out);
  return out;
}

TEST(NetWireTest, PerVerbPayloadBytesAreFrozen) {
  // One fixed input per verb and per response shape, compared against
  // the bytes frame v4 has always carried: a change to the codecs or to
  // what feeds them must not move a byte.
  const auto source = [](VertexId id) {
    return Encoded([id](std::string* o) { net::EncodeSourceRequest(id, o); });
  };
  const auto pair = [] {
    return Encoded([](std::string* o) {
      net::EncodePairRequest({3, 8, 250}, o);
    });
  };
  ExportedSource unmaterialized;
  unmaterialized.source = 7;
  unmaterialized.epoch = 3;
  std::string blob;
  ASSERT_TRUE(EncodeMigrationBlob(unmaterialized, &blob).ok());
  struct Golden {
    Verb verb;
    std::string payload;
    const char* hex;
  };
  const std::vector<Golden> requests = {
      {Verb::kQueryVertex, Encoded([](std::string* o) {
         net::EncodeQueryVertexRequest({7, 42, 250}, o);
       }),
       "070000002a000000fa00000000000000"},
      {Verb::kTopK, Encoded([](std::string* o) {
         net::EncodeTopKRequest({7, 5, 250}, o);
       }),
       "0700000005000000fa00000000000000"},
      {Verb::kMultiSource, Encoded([](std::string* o) {
         net::EncodeMultiSourceRequest({{3, 1, 4}, 9, 250}, o);
       }),
       "0300000003000000010000000400000009000000fa00000000000000"},
      {Verb::kApplyUpdates, Encoded([](std::string* o) {
         net::EncodeUpdateBatch(
             {EdgeUpdate::Insert(1, 2), EdgeUpdate::Delete(3, 4)}, o);
       }),
       "02000000010000000200000001030000000400000000"},
      {Verb::kAddSource, source(7), "07000000"},
      {Verb::kRemoveSource, source(7), "07000000"},
      {Verb::kQuiesce, "", ""},
      {Verb::kExtractSource, source(7), "07000000"},
      {Verb::kInjectSource, blob,
       "474d504401000000070000000300000000000000000000000000000000338de1"
       "1e6a3667ad"},
      {Verb::kStats, Encoded([](std::string* o) {
         net::EncodeStatsRequest(true, o);
       }),
       "01"},
      {Verb::kListSources, "", ""},
      {Verb::kQueryPair, pair(), "0300000008000000fa00000000000000"},
      {Verb::kReverseTopK, Encoded([](std::string* o) {
         net::EncodeTopKRequest({8, 5, 250}, o);
       }),
       "0800000005000000fa00000000000000"},
      {Verb::kHybridQuery, pair(), "0300000008000000fa00000000000000"},
      {Verb::kAddTarget, source(8), "08000000"},
      {Verb::kRemoveTarget, source(8), "08000000"},
      {Verb::kListTargets, "", ""},
  };
  ASSERT_EQ(requests.size(), 17u);
  for (const Golden& golden : requests) {
    EXPECT_EQ(Hex(golden.payload), golden.hex)
        << net::VerbName(golden.verb) << " request";
  }
  // The envelope adds no byte: the same inputs as Requests encode to the
  // same payloads, and decode back to Requests that do too.
  const std::vector<Request> enveloped = {
      {.verb = Verb::kQueryVertex, .source = 7, .vertex = 42,
       .deadline_ms = 250},
      {.verb = Verb::kTopK, .source = 7, .k = 5, .deadline_ms = 250},
      {.verb = Verb::kApplyUpdates,
       .batch = {EdgeUpdate::Insert(1, 2), EdgeUpdate::Delete(3, 4)}},
      {.verb = Verb::kAddSource, .source = 7},
      {.verb = Verb::kRemoveSource, .source = 7},
      {.verb = Verb::kQuiesce},
      {.verb = Verb::kQueryPair, .source = 3, .target = 8,
       .deadline_ms = 250},
      {.verb = Verb::kReverseTopK, .target = 8, .k = 5, .deadline_ms = 250},
      {.verb = Verb::kHybridQuery, .source = 3, .target = 8,
       .deadline_ms = 250},
      {.verb = Verb::kAddTarget, .target = 8},
      {.verb = Verb::kRemoveTarget, .target = 8},
  };
  ASSERT_EQ(enveloped.size(), std::size(kVerbRules));
  for (const Request& request : enveloped) {
    const auto golden =
        std::find_if(requests.begin(), requests.end(),
                     [&](const Golden& g) { return g.verb == request.verb; });
    ASSERT_NE(golden, requests.end());
    const std::string payload = Encoded(
        [&](std::string* o) { net::EncodeRequest(request, o); });
    EXPECT_EQ(Hex(payload), golden->hex) << net::VerbName(request.verb);
    Request decoded;
    ASSERT_TRUE(net::DecodeRequest(request.verb, payload, &decoded).ok());
    EXPECT_EQ(Encoded([&](std::string* o) { net::EncodeRequest(decoded, o); }),
              payload)
        << net::VerbName(request.verb);
  }

  QueryResponse query;
  query.status = RequestStatus::kOk;
  query.epoch = 17;
  query.during_maintenance = true;
  query.estimate = {0.25, 0.2, 0.3};
  query.topk.entries = {{5, 0.5}, {2, 0.25}};
  query.topk.certain_members = 1;
  QueryResponse unknown;
  unknown.status = RequestStatus::kUnknownSource;
  MaintResponse maint;
  maint.status = RequestStatus::kOk;
  maint.updates_applied = 2;
  net::ShardStats stats;
  stats.num_vertices = 100;
  stats.num_sources = 4;
  stats.max_epoch = 42;
  stats.graph_checksum = 0x0123456789abcdefull;
  stats.running = 1;
  stats.report.queries_completed = 12;
  stats.report.query_p99_ms = 1.5;
  stats.report.updates_applied = 30;
  stats.query_latency_samples = {0.5, 1.5};
  stats.batch_latency_samples = {2.5};
  const std::vector<std::pair<const char*, std::string>> responses = {
      {"0011000000000000000100000000"
       "0000d03f9a9999999999c93f333333333333d33f0200000005000000000000"
       "000000e03f02000000000000000000d03f01000000",
       Encoded([&](std::string* o) { net::EncodeQueryResponse(query, o); })},
      {"0002000000001100000000000000"
       "01000000000000d03f9a9999999999c93f333333333333d33f020000000500"
       "0000000000000000e03f02000000000000000000d03f010000000300000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000",
       Encoded([&](std::string* o) {
         net::EncodeMultiSourceResponse(RequestStatus::kOk, {query, unknown},
                                        o);
       })},
      {"000200000000000000",
       Encoded([&](std::string* o) { net::EncodeMaintResponse(maint, o); })},
      {"000200000000000000626c6f62", Encoded([&](std::string* o) {
         net::EncodeExtractResponse(maint, "blob", o);
       })},
      {"6400000004000000000000002a00000000000000efcdab8967452301010c0000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "000000000000000000000000000000000000000000000000000000f83f000000"
       "000000000000000000000000001e000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000002000000000000000000e03f000000000000f8"
       "3f010000000000000000000440",
       Encoded([&](std::string* o) { net::EncodeShardStats(stats, o); })},
      {"03000000030000000100000004000000", Encoded([](std::string* o) {
         net::EncodeSourceList({3, 1, 4}, o);
       })},
  };
  for (const auto& [hex, payload] : responses) {
    EXPECT_EQ(Hex(payload), hex);
  }
}

// -------------------------------------------- serialization hardening

TEST(SerializationHardeningTest, CheckpointBytesAreEndianExplicit) {
  PprState state;
  state.source = 1;
  state.p = {0.25, 0.5, 0.125};
  state.r = {0.0, 1.0, 0.0};
  std::string blob;
  ASSERT_TRUE(SerializePprState(state, &blob).ok());
  // Magic 'DPPR' (0x44505052) little-endian: bytes R P P D.
  ASSERT_GE(blob.size(), 4u);
  EXPECT_EQ(blob[0], 'R');
  EXPECT_EQ(blob[1], 'P');
  EXPECT_EQ(blob[2], 'P');
  EXPECT_EQ(blob[3], 'D');
  // 0.25 as an IEEE double, little-endian, lives at offset 20
  // (magic 4 + version 4 + source 4 + n 8).
  const unsigned char quarter[] = {0, 0, 0, 0, 0, 0, 0xD0, 0x3F};
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(static_cast<unsigned char>(blob[20 + i]), quarter[i]) << i;
  }
}

TEST(SerializationHardeningTest, HostileLengthPrefixCannotOom) {
  PprState state;
  state.source = 0;
  state.p = {0.5, 0.5};
  state.r = {0.0, 0.0};
  std::string blob;
  ASSERT_TRUE(SerializePprState(state, &blob).ok());

  // Bump the vertex count to ~2^62 while leaving the payload tiny: the
  // decoder must refuse before allocating. n sits at offset 12.
  std::string bomb = blob;
  bomb[18] = static_cast<char>(0xFF);  // high bytes of n
  bomb[17] = static_cast<char>(0xFF);
  PprState out;
  EXPECT_TRUE(DeserializePprState(bomb, &out).IsCorruption());
}

TEST(SerializationHardeningTest, FuzzedCorruptionsNeverDecode) {
  PprState state;
  state.source = 3;
  state.p.assign(64, 0.0);
  state.r.assign(64, 0.0);
  state.p[3] = 1.0;
  for (size_t i = 0; i < 64; ++i) state.r[i] = 1.0 / (1.0 + double(i));
  std::string blob;
  ASSERT_TRUE(SerializePprState(state, &blob).ok());

  std::mt19937 rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = blob;
    // Flip one random bit, or truncate at a random point.
    if (trial % 2 == 0) {
      const size_t byte = rng() % mutated.size();
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << (rng() % 8)));
      PprState out;
      EXPECT_FALSE(DeserializePprState(mutated, &out).ok())
          << "bit flip in byte " << byte;
    } else {
      const size_t cut = rng() % mutated.size();
      PprState out;
      EXPECT_FALSE(
          DeserializePprState(mutated.substr(0, cut), &out).ok())
          << "truncated to " << cut;
    }
  }

  // Migration blobs inherit the same discipline.
  ExportedSource src;
  src.source = 3;
  src.epoch = 5;
  src.materialized = true;
  src.state = state;
  std::string migration;
  ASSERT_TRUE(EncodeMigrationBlob(src, &migration).ok());
  for (int trial = 0; trial < 100; ++trial) {
    std::string mutated = migration;
    const size_t byte = rng() % mutated.size();
    mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << (rng() % 8)));
    ExportedSource out;
    EXPECT_FALSE(DecodeMigrationBlob(mutated, &out).ok())
        << "bit flip in byte " << byte;
  }
}

// --------------------------------------------------- loopback server

/// One in-process "remote shard": graph + index + service + server.
struct ShardProcess {
  DynamicGraph graph;
  PprIndex index;
  PprService service;
  net::PprServer server;

  ShardProcess(const std::vector<Edge>& edges, VertexId num_vertices,
               std::vector<VertexId> sources, const IndexOptions& iopt,
               const ServiceOptions& sopt,
               const net::PprServerOptions& server_options = {})
      : graph(DynamicGraph::FromEdges(edges, num_vertices)),
        index(&graph, std::move(sources), iopt),
        service(&index, sopt),
        server(&service, server_options) {
    index.Initialize();
    service.Start();
    const Status st = server.Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  ~ShardProcess() {
    server.Stop();
    service.Stop();
  }
};

TEST(PprServerTest, LoopbackMatchesDirectServiceCalls) {
  auto edges = GenerateErdosRenyi(128, 1024, 11);
  IndexOptions iopt;
  iopt.ppr.eps = 1e-6;
  ServiceOptions sopt;
  sopt.num_workers = 2;
  ShardProcess shard(edges, 128, {1, 2, 3}, iopt, sopt);

  net::RemoteShardClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", shard.server.port()).ok());

  // Lockstep: with no concurrent maintenance, the remote answer and the
  // direct answer read the same snapshot — equality is exact, bit for
  // bit, epoch for epoch.
  std::mt19937 rng(99);
  for (int step = 0; step < 60; ++step) {
    const VertexId s = 1 + static_cast<VertexId>(rng() % 3);
    const VertexId v = static_cast<VertexId>(rng() % 128);
    if (step % 10 == 9) {
      UpdateBatch batch;
      batch.push_back(EdgeUpdate::Insert(
          static_cast<VertexId>(rng() % 128),
          static_cast<VertexId>(rng() % 128)));
      const MaintResponse remote =
          client.ApplyUpdatesAsync(batch).get();
      EXPECT_EQ(remote.status, RequestStatus::kOk);
      EXPECT_EQ(remote.updates_applied, 1);
    } else if (step % 3 == 0) {
      const QueryResponse remote = client.TopKAsync(s, 5, 0).get();
      const QueryResponse direct = shard.service.TopK(s, 5);
      ASSERT_EQ(remote.status, direct.status);
      EXPECT_EQ(remote.epoch, direct.epoch);
      ASSERT_EQ(remote.topk.entries.size(), direct.topk.entries.size());
      for (size_t e = 0; e < direct.topk.entries.size(); ++e) {
        EXPECT_EQ(remote.topk.entries[e].id, direct.topk.entries[e].id);
        EXPECT_EQ(remote.topk.entries[e].score,
                  direct.topk.entries[e].score);
      }
      EXPECT_EQ(remote.topk.certain_members, direct.topk.certain_members);
    } else {
      const QueryResponse remote = client.QueryVertexAsync(s, v, 0).get();
      const QueryResponse direct = shard.service.Query(s, v);
      ASSERT_EQ(remote.status, direct.status);
      EXPECT_EQ(remote.epoch, direct.epoch);
      EXPECT_EQ(remote.estimate.value, direct.estimate.value);
      EXPECT_EQ(remote.estimate.lower, direct.estimate.lower);
      EXPECT_EQ(remote.estimate.upper, direct.estimate.upper);
    }
  }

  // Multi-source: one round trip, per-source answers match direct reads.
  auto multi = client.MultiSourceAsync({1, 2, 3, 77}, 5, 0).get();
  ASSERT_EQ(multi.size(), 4u);
  for (size_t i = 0; i < 3; ++i) {
    const QueryResponse direct =
        shard.service.Query(static_cast<VertexId>(i + 1), 5);
    EXPECT_EQ(multi[i].status, direct.status);
    EXPECT_EQ(multi[i].estimate.value, direct.estimate.value);
  }
  EXPECT_EQ(multi[3].status, RequestStatus::kUnknownSource);

  // Source admin + introspection over the wire.
  EXPECT_EQ(client.AddSourceAsync(9).get().status, RequestStatus::kOk);
  EXPECT_EQ(client.AddSourceAsync(9).get().status,
            RequestStatus::kRejected);
  EXPECT_EQ(client.RemoveSourceAsync(2).get().status, RequestStatus::kOk);
  std::vector<VertexId> sources;
  ASSERT_TRUE(client.ListSources(&sources).ok());
  std::sort(sources.begin(), sources.end());
  EXPECT_EQ(sources, (std::vector<VertexId>{1, 3, 9}));

  net::ShardStats stats;
  ASSERT_TRUE(client.Stats(true, &stats).ok());
  EXPECT_EQ(stats.num_vertices, 128u);
  EXPECT_EQ(stats.num_sources, 3u);
  EXPECT_GE(stats.max_epoch, 1u)
      << "the v2 feed-frontier field must survive the wire";
  EXPECT_EQ(stats.running, 1);
  EXPECT_GT(stats.report.queries_completed, 0);
  EXPECT_EQ(stats.query_latency_samples.size(),
            static_cast<size_t>(stats.report.queries_completed));
  EXPECT_EQ(shard.server.protocol_errors(), 0);
}

TEST(PprServerTest, QuiesceExtractInjectRoundTripOverTheWire) {
  auto edges = GenerateErdosRenyi(96, 700, 5);
  IndexOptions iopt;
  iopt.ppr.eps = 1e-6;
  ServiceOptions sopt;
  sopt.num_workers = 1;
  ShardProcess a(edges, 96, {4, 5}, iopt, sopt);
  ShardProcess b(edges, 96, {}, iopt, sopt);

  net::RemoteShardClient ca;
  net::RemoteShardClient cb;
  ASSERT_TRUE(ca.Connect("127.0.0.1", a.server.port()).ok());
  ASSERT_TRUE(cb.Connect("127.0.0.1", b.server.port()).ok());

  ASSERT_EQ(ca.QuiesceAsync().get().status, RequestStatus::kOk);
  const uint64_t epoch_before = ca.QueryVertexAsync(4, 4, 0).get().epoch;

  // Lift source 4 out of A, ship the blob into B: the same bytes, the
  // same epoch, no recomputation on arrival.
  std::string blob;
  ASSERT_EQ(ca.ExtractBlob(4, &blob).status, RequestStatus::kOk);
  EXPECT_FALSE(blob.empty());
  EXPECT_EQ(ca.QueryVertexAsync(4, 4, 0).get().status,
            RequestStatus::kUnknownSource);
  ASSERT_EQ(cb.InjectBlob(blob).status, RequestStatus::kOk);
  const QueryResponse moved = cb.QueryVertexAsync(4, 4, 0).get();
  EXPECT_EQ(moved.status, RequestStatus::kOk);
  EXPECT_EQ(moved.epoch, epoch_before);

  // A corrupted blob is refused by the receiving side.
  std::string corrupted = blob;
  corrupted[corrupted.size() / 2] ^= 0x10;
  EXPECT_EQ(cb.InjectBlob(corrupted).status, RequestStatus::kRejected);
  // Extracting a source the shard does not own.
  std::string none;
  EXPECT_EQ(ca.ExtractBlob(4, &none).status,
            RequestStatus::kUnknownSource);
}

TEST(PprServerTest, MalformedPeersAreContainedAndCounted) {
  auto edges = GenerateErdosRenyi(64, 400, 3);
  IndexOptions iopt;
  iopt.ppr.eps = 1e-5;
  ServiceOptions sopt;
  sopt.num_workers = 1;
  ShardProcess shard(edges, 64, {1}, iopt, sopt);

  {
    // Pure garbage: bad magic poisons the connection; the server closes
    // it without serving anything.
    net::ScopedFd raw;
    ASSERT_TRUE(net::TcpConnect("127.0.0.1", shard.server.port(), &raw).ok());
    const std::string garbage(64, 'x');
    ASSERT_TRUE(net::WriteFully(raw.get(), garbage.data(), garbage.size())
                    .ok());
    char byte = 0;
    // EOF (IOError) — never a response frame.
    EXPECT_FALSE(net::ReadFully(raw.get(), &byte, 1).ok());
  }
  {
    // Oversized length prefix: refused at the header, connection dropped,
    // no multi-gigabyte allocation (ASan would notice the attempt).
    net::ScopedFd raw;
    ASSERT_TRUE(net::TcpConnect("127.0.0.1", shard.server.port(), &raw).ok());
    FrameHeader bomb;
    bomb.verb = Verb::kApplyUpdates;
    bomb.request_id = 1;
    bomb.payload_bytes = 0xFFFFFFF0u;
    std::string frame;
    net::EncodeFrameHeader(bomb, &frame);
    ASSERT_TRUE(net::WriteFully(raw.get(), frame.data(), frame.size()).ok());
    char byte = 0;
    EXPECT_FALSE(net::ReadFully(raw.get(), &byte, 1).ok());
  }
  {
    // Valid framing, garbage payload: answered kRejected, connection
    // SURVIVES and serves a well-formed request afterwards.
    net::RemoteShardClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", shard.server.port()).ok());
    // (Reach the payload decoder through a raw frame with a bad op byte.)
    net::ScopedFd raw;
    ASSERT_TRUE(net::TcpConnect("127.0.0.1", shard.server.port(), &raw).ok());
    std::string payload;
    blob::PutU32(&payload, 1);
    blob::PutI32(&payload, 1);
    blob::PutI32(&payload, 2);
    blob::PutU8(&payload, 7);  // op must be 0/1
    FrameHeader header;
    header.verb = Verb::kApplyUpdates;
    header.request_id = 5;
    header.payload_bytes = static_cast<uint32_t>(payload.size());
    std::string frame;
    net::EncodeFrameHeader(header, &frame);
    frame += payload;
    ASSERT_TRUE(net::WriteFully(raw.get(), frame.data(), frame.size()).ok());
    std::string response(net::kFrameHeaderBytes + 9, '\0');
    ASSERT_TRUE(
        net::ReadFully(raw.get(), response.data(), response.size()).ok());
    FrameHeader response_header;
    ASSERT_TRUE(net::DecodeFrameHeader(response.data(),
                                       net::kDefaultMaxFramePayload,
                                       &response_header)
                    .ok());
    EXPECT_EQ(response_header.request_id, 5u);
    MaintResponse maint;
    ASSERT_TRUE(net::DecodeMaintResponse(
                    response.substr(net::kFrameHeaderBytes), &maint)
                    .ok());
    EXPECT_EQ(maint.status, RequestStatus::kRejected);

    // The multiplexed client on the same server still works.
    EXPECT_EQ(client.QueryVertexAsync(1, 1, 0).get().status,
              RequestStatus::kOk);
  }
  EXPECT_GT(shard.server.protocol_errors(), 0);
}

TEST(PprServerTest, TopKOutsideTheVectorIsAnsweredNotFatal) {
  auto edges = GenerateErdosRenyi(64, 400, 31);
  IndexOptions iopt;
  iopt.ppr.eps = 1e-5;
  ServiceOptions sopt;
  sopt.num_workers = 2;
  sopt.estimator.enabled = true;
  ShardProcess shard(edges, 64, {1}, iopt, sopt);
  ASSERT_EQ(shard.service.AddTargetAsync(2).get().status, RequestStatus::kOk);

  net::RemoteShardClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", shard.server.port()).ok());
  ASSERT_EQ(client.TopKAsync(1, 5, 0).get().status, RequestStatus::kOk);
  // A k below one is a payload violation: answered kRejected, and the
  // shard keeps serving.
  for (const int k : {0, -3}) {
    EXPECT_EQ(client.TopKAsync(1, k, 0).get().status,
              RequestStatus::kRejected)
        << "k = " << k;
    EXPECT_EQ(client.ReverseTopKAsync(2, k, 0).get().status,
              RequestStatus::kRejected)
        << "k = " << k;
  }
  // A k past the vertex count ranks every vertex.
  constexpr int kHuge = std::numeric_limits<int32_t>::max();
  const QueryResponse forward = client.TopKAsync(1, kHuge, 0).get();
  EXPECT_EQ(forward.status, RequestStatus::kOk);
  EXPECT_EQ(forward.topk.entries.size(), 64u);
  const QueryResponse reverse = client.ReverseTopKAsync(2, kHuge, 0).get();
  EXPECT_EQ(reverse.status, RequestStatus::kOk);
  EXPECT_EQ(reverse.topk.entries.size(), 64u);
  EXPECT_EQ(client.QueryVertexAsync(1, 1, 0).get().status,
            RequestStatus::kOk);
}

TEST(PprServerTest, InjectOfAStateFromElsewhereIsRejectedNotFatal) {
  auto edges = GenerateErdosRenyi(64, 400, 41);
  IndexOptions iopt;
  iopt.ppr.eps = 1e-5;
  ServiceOptions sopt;
  sopt.num_workers = 1;
  ShardProcess shard(edges, 64, {1}, iopt, sopt);
  net::RemoteShardClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", shard.server.port()).ok());
  const auto inject = [&client](const ExportedSource& src) {
    std::string blob;
    EXPECT_TRUE(EncodeMigrationBlob(src, &blob).ok());
    return client.InjectBlob(blob).status;
  };

  // Well-formed blobs, wrong payloads: a state over 128 vertices, and a
  // live state at an epoch this shard is not at. Each is a refusal, and
  // the shard keeps serving.
  ExportedSource oversized;
  oversized.source = 5;
  oversized.epoch = 1;
  oversized.materialized = true;
  oversized.state = PprState(5, 128);
  EXPECT_EQ(inject(oversized), RequestStatus::kRejected);
  EXPECT_EQ(client.QueryVertexAsync(1, 1, 0).get().status,
            RequestStatus::kOk);

  DynamicGraph twin_graph = DynamicGraph::FromEdges(edges, 64);
  PprIndex twin(&twin_graph, {5}, iopt);
  twin.Initialize();
  twin.ApplyBatch({EdgeUpdate::Insert(5, 6), EdgeUpdate::Delete(5, 6)});
  ExportedSource ahead;
  ASSERT_TRUE(twin.PeekSource(5, &ahead));
  ASSERT_EQ(ahead.epoch, 2u);
  EXPECT_EQ(inject(ahead), RequestStatus::kRejected);
  EXPECT_EQ(client.QueryVertexAsync(1, 1, 0).get().status,
            RequestStatus::kOk);

  // Control: the same state at this shard's epoch installs.
  ahead.epoch = 1;
  EXPECT_EQ(inject(ahead), RequestStatus::kOk);
  EXPECT_EQ(client.QueryVertexAsync(5, 5, 0).get().status,
            RequestStatus::kOk);
}

TEST(PprServerTest, BothEndsOfAConnectionTurnNagleOff) {
  net::ScopedFd listener;
  int port = 0;
  ASSERT_TRUE(net::TcpListen(0, &listener, &port).ok());
  net::ScopedFd dialed;
  ASSERT_TRUE(net::TcpConnect("127.0.0.1", port, &dialed).ok());
  net::ScopedFd accepted;
  ASSERT_TRUE(net::TcpAccept(listener.get(), &accepted).ok());
  for (const int fd : {dialed.get(), accepted.get()}) {
    int nodelay = 0;
    socklen_t len = sizeof(nodelay);
    ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
    EXPECT_EQ(nodelay, 1) << "fd " << fd;
  }
  EXPECT_NE(::fcntl(accepted.get(), F_GETFL) & O_NONBLOCK, 0);
}

TEST(PprServerTest, PipelinedPairsDoNotWaitForDelayedAcks) {
  auto edges = GenerateErdosRenyi(128, 1024, 17);
  IndexOptions iopt;
  iopt.ppr.eps = 1e-5;
  ServiceOptions sopt;
  sopt.num_workers = 2;
  ShardProcess shard(edges, 128, {1, 2}, iopt, sopt);

  net::RemoteShardClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", shard.server.port()).ok());
  for (VertexId v = 0; v < 50; ++v) {
    ASSERT_EQ(client.QueryVertexAsync(1, v, 0).get().status,
              RequestStatus::kOk);
  }
  // Two requests in flight on one connection: with Nagle on at the
  // server, the second answer waits for the client's delayed ACK of the
  // first, ~40 ms a pair.
  const auto start = std::chrono::steady_clock::now();
  for (int pair = 0; pair < 100; ++pair) {
    auto point = client.QueryVertexAsync(1, static_cast<VertexId>(pair), 0);
    auto topk = client.TopKAsync(2, 5, 0);
    ASSERT_EQ(point.get().status, RequestStatus::kOk);
    ASSERT_EQ(topk.get().status, RequestStatus::kOk);
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 1.0) << "100 pipelined pairs took " << seconds << " s";
}

TEST(PprServerTest, FloodPastTheHandlerQueueIsShedWithoutDisconnecting) {
  auto edges = GenerateErdosRenyi(128, 1024, 23);
  IndexOptions iopt;
  iopt.ppr.eps = 1e-5;
  ServiceOptions sopt;
  sopt.num_workers = 1;
  net::PprServerOptions server_options;
  server_options.num_handlers = 1;
  server_options.handler_queue_capacity = 4;
  ShardProcess shard(edges, 128, {1}, iopt, sopt, server_options);

  // The I/O thread sheds most of these while the one handler is writing
  // to the same connection; a busy write mutex must not cost the client
  // its connection (a router would drop the replica for good).
  net::RemoteShardClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", shard.server.port()).ok());
  constexpr int kCalls = 20'000;
  std::vector<std::future<QueryResponse>> calls;
  calls.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i) calls.push_back(client.TopKAsync(1, 5, 0));
  int ok = 0;
  int shed = 0;
  int unavailable = 0;
  for (auto& call : calls) {
    const RequestStatus status = call.get().status;
    ok += status == RequestStatus::kOk;
    shed += status == RequestStatus::kShedQueueFull;
    unavailable += status == RequestStatus::kUnavailable;
  }
  EXPECT_EQ(unavailable, 0) << ok << " kOk, " << shed << " kShedQueueFull";
  EXPECT_EQ(ok + shed, kCalls);
  EXPECT_GT(shed, 0) << "the flood must pass the handler queue";
  EXPECT_TRUE(client.connected());
}

// --------------------------------------------- router with remote shard

TEST(RemoteShardTest, RouterWithRemoteShardMatchesUnshardedOracle) {
  constexpr double kEps = 1e-6;
  auto edges = GenerateErdosRenyi(128, 1024, 29);
  EdgeStream stream = EdgeStream::RandomPermutation(std::move(edges), 30);
  SlidingWindow window(&stream, 0.5);
  const std::vector<Edge> initial = window.InitialEdges();
  const VertexId num_vertices = stream.NumVertices();
  const EdgeCount batch_size = window.BatchForRatio(0.01);
  std::vector<UpdateBatch> batches;
  while (static_cast<int>(batches.size()) < 10 &&
         window.CanSlide(batch_size)) {
    batches.push_back(window.NextBatch(batch_size));
  }
  DynamicGraph ranking = DynamicGraph::FromEdges(initial, num_vertices);
  std::vector<VertexId> hubs = TopOutDegreeVertices(ranking, 6);

  IndexOptions iopt;
  iopt.ppr.eps = kEps;
  ServiceOptions sopt;
  sopt.num_workers = 2;

  // The PR 3 oracle: one unsharded serving stack.
  DynamicGraph ref_graph =
      DynamicGraph::FromEdges(initial, num_vertices);
  PprIndex ref_index(&ref_graph, hubs, iopt);
  ref_index.Initialize();
  PprService reference(&ref_index, sopt);
  reference.Start();

  // The subject: a router with one local shard (all hubs) joined by one
  // EMPTY remote shard — the join itself migrates ~half the hubs over
  // the wire at unchanged epochs.
  ShardProcess remote(initial, num_vertices, {}, iopt, sopt);
  ShardedServiceOptions ropt;
  ropt.num_shards = 1;
  ropt.vnodes_per_shard = 32;
  ropt.index = iopt;
  ropt.service = sopt;
  ShardedPprService router(initial, num_vertices, hubs, ropt);
  router.Start();

  // Pre-join epochs, to prove the wire migration preserved them.
  std::vector<uint64_t> epochs_before;
  for (VertexId hub : hubs) {
    epochs_before.push_back(router.Query(hub, hub).epoch);
  }
  const int remote_id =
      router.AddRemoteShard("127.0.0.1", remote.server.port());
  ASSERT_GE(remote_id, 0);
  EXPECT_GT(router.SourcesOnShard(remote_id).size(), 0u)
      << "the join should rebalance some hubs onto the remote";
  EXPECT_EQ(router.NumSources(), hubs.size());
  for (size_t i = 0; i < hubs.size(); ++i) {
    const QueryResponse after = router.Query(hubs[i], hubs[i]);
    EXPECT_EQ(after.status, RequestStatus::kOk);
    EXPECT_EQ(after.epoch, epochs_before[i])
        << "hub " << hubs[i] << " must not change epoch by moving shards";
  }
  const RouterReport join_report = router.Report();
  EXPECT_GT(join_report.sources_migrated, 0);
  EXPECT_GT(join_report.migration_bytes, 0);

  // Lockstep updates/queries/churn against the oracle.
  VertexId churn = 0;
  while (std::find(hubs.begin(), hubs.end(), churn) != hubs.end()) {
    ++churn;
  }
  bool churn_present = false;
  std::mt19937 rng(4242);
  size_t next_batch = 0;
  for (int step = 0; step < 200; ++step) {
    const uint32_t dice = rng() % 100;
    const VertexId s = (churn_present && dice % 7 == 0)
                           ? churn
                           : hubs[rng() % hubs.size()];
    if (dice < 12 && next_batch < batches.size()) {
      const UpdateBatch& batch = batches[next_batch++];
      ASSERT_EQ(reference.ApplyUpdatesAsync(batch).get().status,
                RequestStatus::kOk);
      ASSERT_EQ(router.ApplyUpdates(batch).status, RequestStatus::kOk);
    } else if (dice < 17) {
      const RequestStatus expected =
          churn_present
              ? reference.RemoveSourceAsync(churn).get().status
              : reference.AddSourceAsync(churn).get().status;
      const RequestStatus got = churn_present
                                    ? router.RemoveSource(churn).status
                                    : router.AddSource(churn).status;
      ASSERT_EQ(expected, RequestStatus::kOk);
      EXPECT_EQ(got, expected);
      churn_present = !churn_present;
    } else if (dice < 32) {
      const QueryResponse expected = reference.TopK(s, 5);
      const QueryResponse got = router.TopK(s, 5);
      ASSERT_EQ(got.status, expected.status);
      if (expected.status != RequestStatus::kOk) continue;
      EXPECT_EQ(got.epoch, expected.epoch);
      ASSERT_EQ(got.topk.entries.size(), expected.topk.entries.size());
      for (size_t e = 0; e < expected.topk.entries.size(); ++e) {
        EXPECT_NEAR(got.topk.entries[e].score,
                    expected.topk.entries[e].score, 2 * kEps + 1e-12);
      }
    } else {
      const VertexId source = dice == 99 ? churn + 1000 : s;
      const VertexId v = static_cast<VertexId>(rng() % num_vertices);
      const QueryResponse expected = reference.Query(source, v);
      const QueryResponse got = router.Query(source, v);
      ASSERT_EQ(got.status, expected.status) << "source " << source;
      if (expected.status != RequestStatus::kOk) continue;
      EXPECT_EQ(got.epoch, expected.epoch);
      EXPECT_NEAR(got.estimate.value, expected.estimate.value,
                  2 * kEps + 1e-12);
    }
  }

  // Multi-source scatter-gather crosses the wire as ONE frame per shard.
  const std::vector<QueryResponse> multi =
      router.MultiSourceQuery(hubs, hubs[0]);
  ASSERT_EQ(multi.size(), hubs.size());
  for (size_t i = 0; i < hubs.size(); ++i) {
    const QueryResponse expected = reference.Query(hubs[i], hubs[0]);
    EXPECT_EQ(multi[i].status, expected.status);
    EXPECT_EQ(multi[i].epoch, expected.epoch);
    EXPECT_NEAR(multi[i].estimate.value, expected.estimate.value,
                2 * kEps + 1e-12);
  }

  // Cross-fleet metrics still merge (remote samples ship over the wire).
  const MetricsReport metrics = router.Metrics();
  EXPECT_GT(metrics.queries_completed, 0);
  EXPECT_GE(metrics.query_p99_ms, metrics.query_p50_ms);

  // Drain the remote shard back out of the fleet: its sources migrate
  // over the wire to the survivors, nothing is lost.
  ASSERT_TRUE(router.RemoveShard(remote_id));
  EXPECT_EQ(router.NumSources(),
            hubs.size() + (churn_present ? 1 : 0));
  for (VertexId hub : hubs) {
    EXPECT_EQ(router.Query(hub, hub).status, RequestStatus::kOk);
  }

  reference.Stop();
  router.Stop();
}

TEST(RemoteShardTest, KilledRemoteShardShedsCleanlyInsteadOfHanging) {
  auto edges = GenerateErdosRenyi(96, 700, 13);
  IndexOptions iopt;
  iopt.ppr.eps = 1e-5;
  ServiceOptions sopt;
  sopt.num_workers = 1;
  // Ring placement is deterministic; a wide hub set guarantees the
  // remote shard ends up owning some of them.
  std::vector<VertexId> hubs = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};

  auto remote = std::make_unique<ShardProcess>(edges, 96,
                                               std::vector<VertexId>{},
                                               iopt, sopt);
  ShardedServiceOptions ropt;
  ropt.num_shards = 1;
  ropt.index = iopt;
  ropt.service = sopt;
  ShardedPprService router(edges, 96, hubs, ropt);
  router.Start();
  const int remote_id =
      router.AddRemoteShard("127.0.0.1", remote->server.port());
  ASSERT_GE(remote_id, 0);
  const std::vector<VertexId> remote_hubs =
      router.SourcesOnShard(remote_id);
  ASSERT_GT(remote_hubs.size(), 0u);

  // Kill the remote process stand-in (server + service die; the router's
  // connection breaks).
  remote.reset();

  // Every read routed to the dead shard surfaces kUnavailable — quickly,
  // not after a timeout, and never as a hang (the ctest TIMEOUT guards
  // the "never hangs" half of the claim).
  for (VertexId hub : remote_hubs) {
    EXPECT_EQ(router.Query(hub, hub).status, RequestStatus::kUnavailable);
    EXPECT_EQ(router.TopK(hub, 3).status, RequestStatus::kUnavailable);
  }
  // The update feed reports the divergence instead of retrying forever.
  UpdateBatch batch;
  batch.push_back(EdgeUpdate::Insert(7, 8));
  EXPECT_EQ(router.ApplyUpdates(batch).status,
            RequestStatus::kUnavailable);
  // Multi-source: dead-shard sources answer kUnavailable, live ones kOk.
  const std::vector<QueryResponse> multi =
      router.MultiSourceQuery(hubs, hubs[0]);
  int unavailable = 0;
  int ok = 0;
  for (const QueryResponse& response : multi) {
    if (response.status == RequestStatus::kUnavailable) ++unavailable;
    if (response.status == RequestStatus::kOk) ++ok;
  }
  EXPECT_EQ(unavailable, static_cast<int>(remote_hubs.size()));
  EXPECT_EQ(ok, static_cast<int>(hubs.size() - remote_hubs.size()));

  // Sources on live shards keep serving.
  for (VertexId hub : hubs) {
    if (std::find(remote_hubs.begin(), remote_hubs.end(), hub) ==
        remote_hubs.end()) {
      EXPECT_EQ(router.Query(hub, hub).status, RequestStatus::kOk);
    }
  }
  router.Stop();
}

TEST(RemoteShardTest, JoinerAtAnotherFeedPositionIsRefused) {
  auto edges = GenerateErdosRenyi(64, 400, 37);
  IndexOptions iopt;
  iopt.ppr.eps = 1e-5;
  ServiceOptions sopt;
  sopt.num_workers = 1;
  // An insert and a delete of one edge: the joiner's graph fingerprint is
  // back where it started, its feed position is not.
  ShardProcess diverged(edges, 64, {}, iopt, sopt);
  ASSERT_EQ(diverged.service
                .ApplyUpdatesAsync(
                    {EdgeUpdate::Insert(3, 4), EdgeUpdate::Delete(3, 4)})
                .get()
                .status,
            RequestStatus::kOk);
  ASSERT_EQ(diverged.graph.Checksum(),
            DynamicGraph::FromEdges(edges, 64).Checksum());
  ShardProcess fresh(edges, 64, {}, iopt, sopt);

  ShardedServiceOptions ropt;
  ropt.num_shards = 1;
  ropt.index = iopt;
  ropt.service = sopt;
  ShardedPprService router(edges, 64, {1, 2, 3}, ropt);
  router.Start();
  EXPECT_LT(router.AddRemoteShard("127.0.0.1", diverged.server.port()), 0)
      << "a joiner that consumed a feed the cohort did not is refused";
  EXPECT_EQ(router.NumShards(), 1u);
  EXPECT_GE(router.AddRemoteShard("127.0.0.1", fresh.server.port()), 0)
      << "a joiner at the cohort's position is admitted";
  router.Stop();
}

// ----------------------------------------------------- process fleet

/// Spawns `binary` with `args`, its stdout on a pipe. Returns the pid or
/// -1.
pid_t Spawn(const std::string& binary, std::vector<std::string> args,
            int* stdout_fd) {
  int fds[2];
  if (::pipe(fds) != 0) return -1;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    _exit(127);
  }
  ::close(fds[1]);
  *stdout_fd = fds[0];
  return pid;
}

/// Reads lines from `fd` until one starts with "LISTENING "; returns the
/// port, or -1 on EOF.
int AwaitListeningPort(int fd) {
  std::string buffer;
  char c = 0;
  while (::read(fd, &c, 1) == 1) {
    if (c != '\n') {
      buffer.push_back(c);
      continue;
    }
    if (buffer.rfind("LISTENING ", 0) == 0) {
      return std::atoi(buffer.c_str() + 10);
    }
    buffer.clear();
  }
  return -1;
}

TEST(NetFleetTest, MultiProcessFleetServesAndMigrates) {
  // The example binary lives next to the test binaries; absent (e.g. a
  // -DDPPR_BUILD_EXAMPLES=OFF sanitizer build) the fleet test has no
  // subject.
  const char* binary = "./hub_server";
  if (::access(binary, X_OK) != 0) {
    GTEST_SKIP() << "hub_server binary not built";
  }

  // Two shard processes on kernel-assigned ports.
  int out1 = -1;
  int out2 = -1;
  const pid_t shard1 =
      Spawn(binary, {"--listen=0", "--seed=33"}, &out1);
  const pid_t shard2 =
      Spawn(binary, {"--listen=0", "--seed=33"}, &out2);
  ASSERT_GT(shard1, 0);
  ASSERT_GT(shard2, 0);
  const int port1 = AwaitListeningPort(out1);
  const int port2 = AwaitListeningPort(out2);
  ASSERT_GT(port1, 0);
  ASSERT_GT(port2, 0);

  // The router process drives the full demo against them: local shard +
  // two remote joins (wire migration), streaming feed, concurrent
  // clients, hub churn, mid-run local growth, per-hub certified top-k.
  // Its exit code asserts: every hub served, churn applied across the
  // fleet, zero answers below the paper's alpha - eps bound.
  int router_out = -1;
  const std::string join_arg = "--join=127.0.0.1:" +
                               std::to_string(port1) + ",127.0.0.1:" +
                               std::to_string(port2);
  const pid_t router =
      Spawn(binary, {join_arg, "--seed=33", "--slides=8"}, &router_out);
  ASSERT_GT(router, 0);
  int router_status = -1;
  ASSERT_EQ(::waitpid(router, &router_status, 0), router);
  // Drain the router's output into the test log for post-mortems.
  std::string router_log;
  char buf[4096];
  ssize_t got = 0;
  while ((got = ::read(router_out, buf, sizeof(buf))) > 0) {
    router_log.append(buf, static_cast<size_t>(got));
  }
  EXPECT_TRUE(WIFEXITED(router_status) &&
              WEXITSTATUS(router_status) == 0)
      << router_log;
  EXPECT_NE(router_log.find("joined remote shard"), std::string::npos)
      << router_log;

  ::kill(shard1, SIGTERM);
  ::kill(shard2, SIGTERM);
  int ignored = 0;
  (void)::waitpid(shard1, &ignored, 0);
  (void)::waitpid(shard2, &ignored, 0);
  ::close(out1);
  ::close(out2);
  ::close(router_out);
}

TEST(NetFleetTest, SigkilledPrimaryFailsOverDuringQueryStorm) {
  const char* binary = "./hub_server";
  if (::access(binary, X_OK) != 0) {
    GTEST_SKIP() << "hub_server binary not built";
  }

  // The same graph replica hub_server --listen --seed=33 builds, and a
  // pre-validated slice of the same stream (its preflight recipe).
  DatasetSpec spec;
  ASSERT_TRUE(FindDataset("pokec", &spec).ok());
  auto edges = GenerateDataset(spec, /*scale_shift=*/1);
  EdgeStream stream = EdgeStream::RandomPermutation(std::move(edges), 33);
  SlidingWindow window(&stream, 0.1);
  const std::vector<Edge> initial = window.InitialEdges();
  const VertexId num_vertices = stream.NumVertices();
  const EdgeCount batch_size = window.BatchForRatio(0.001);
  std::vector<UpdateBatch> batches;
  {
    DynamicGraph preflight = DynamicGraph::FromEdges(initial, num_vertices);
    for (int s = 0; s < 8 && window.CanSlide(batch_size); ++s) {
      UpdateBatch batch = window.NextBatch(batch_size);
      if (!ValidateBatch(preflight, batch).ok()) continue;
      for (const EdgeUpdate& update : batch) preflight.Apply(update);
      batches.push_back(std::move(batch));
    }
  }
  ASSERT_GE(batches.size(), 4u);

  // Two real shard processes: the replica group's primary and standby.
  int out_primary = -1;
  int out_standby = -1;
  const pid_t primary_pid =
      Spawn(binary, {"--listen=0", "--seed=33"}, &out_primary);
  const pid_t standby_pid =
      Spawn(binary, {"--listen=0", "--seed=33"}, &out_standby);
  ASSERT_GT(primary_pid, 0);
  ASSERT_GT(standby_pid, 0);
  const int primary_port = AwaitListeningPort(out_primary);
  const int standby_port = AwaitListeningPort(out_standby);
  ASSERT_GT(primary_port, 0);
  ASSERT_GT(standby_port, 0);

  // The router: one local slot plus the remote replica group. Options
  // match hub_server's fleet contract (one block for every process).
  DynamicGraph ranking = DynamicGraph::FromEdges(initial, num_vertices);
  std::vector<VertexId> hubs = TopOutDegreeVertices(ranking, 8);
  ShardedServiceOptions ropt;
  ropt.num_shards = 1;
  ropt.index.ppr.eps = 1e-7;
  ropt.service.num_workers = 3;
  ropt.service.materialize_wait = std::chrono::milliseconds(500);
  ShardedPprService router(initial, num_vertices, hubs, ropt);
  router.Start();
  const int slot = router.AddRemoteShard("127.0.0.1", primary_port);
  ASSERT_GE(slot, 0);
  const std::vector<VertexId> remote_hubs = router.SourcesOnShard(slot);
  ASSERT_GT(remote_hubs.size(), 0u)
      << "the join should rebalance some hubs onto the remote slot";
  ASSERT_GE(router.AddRemoteReplica(slot, "127.0.0.1", standby_port), 0);
  ASSERT_EQ(router.NumReplicas(slot), 2u);
  EXPECT_GT(router.Report().standby_syncs, 0)
      << "the standby must be synced over the wire at join";

  // The storm: 3 closed-loop clients over every hub, tracking that no
  // answer is EVER kUnavailable (failover is absorbed inside the
  // request) and per-hub epochs never regress.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> unavailable{0};
  std::atomic<int64_t> served{0};
  std::atomic<bool> epochs_monotonic{true};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937 rng(200 + static_cast<uint32_t>(c));
      std::vector<uint64_t> last_epoch(hubs.size(), 0);
      while (!stop.load(std::memory_order_acquire)) {
        const size_t i = rng() % hubs.size();
        const QueryResponse response = rng() % 4 == 0
                                           ? router.TopK(hubs[i], 3)
                                           : router.Query(hubs[i], hubs[i]);
        if (response.status == RequestStatus::kUnavailable) {
          unavailable.fetch_add(1);
        }
        if (response.status != RequestStatus::kOk) continue;
        served.fetch_add(1);
        if (response.epoch < last_epoch[i]) epochs_monotonic.store(false);
        last_epoch[i] = response.epoch;
      }
    });
  }

  // Feed the fleet; SIGKILL the primary PROCESS mid-storm. The standby
  // received every batch before the primary (the ordered fan-out), so
  // the promoted state can only be at or past anything a client saw.
  for (size_t b = 0; b < batches.size(); ++b) {
    ASSERT_EQ(router.ApplyUpdates(batches[b]).status, RequestStatus::kOk)
        << "batch " << b;
    if (b == batches.size() / 2) {
      ASSERT_EQ(::kill(primary_pid, SIGKILL), 0);
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  stop.store(true, std::memory_order_release);
  for (auto& client : clients) client.join();

  EXPECT_EQ(unavailable.load(), 0)
      << "a SIGKILLed primary must never surface as kUnavailable";
  EXPECT_TRUE(epochs_monotonic.load()) << "an epoch regressed";
  EXPECT_GT(served.load(), 0);
  // Every source stays readable — including the dead primary's — and
  // the failover is on the books.
  for (VertexId hub : hubs) {
    EXPECT_EQ(router.Query(hub, hub).status, RequestStatus::kOk) << hub;
  }
  EXPECT_GE(router.Report().failovers, 1);
  router.Stop();

  int ignored = 0;
  (void)::waitpid(primary_pid, &ignored, 0);
  ::kill(standby_pid, SIGTERM);
  (void)::waitpid(standby_pid, &ignored, 0);
  ::close(out_primary);
  ::close(out_standby);
}

}  // namespace
}  // namespace dppr
