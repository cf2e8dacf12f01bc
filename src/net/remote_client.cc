#include "net/remote_client.h"

#include <sys/socket.h>

#include <utility>

#include "util/macros.h"

namespace dppr {
namespace net {

namespace {

QueryResponse QueryStatus(RequestStatus status) {
  QueryResponse response;
  response.status = status;
  return response;
}

MaintResponse MaintStatus(RequestStatus status) {
  MaintResponse response;
  response.status = status;
  return response;
}

}  // namespace

RemoteShardClient::RemoteShardClient(const RemoteClientOptions& options)
    : options_(options) {}

RemoteShardClient::~RemoteShardClient() { Disconnect(); }

Status RemoteShardClient::Connect(const std::string& host, int port) {
  DPPR_CHECK_MSG(!started_, "RemoteShardClient is single-use");
  started_ = true;
  endpoint_ = host + ":" + std::to_string(port);
  DPPR_RETURN_NOT_OK(TcpConnect(host, port, &fd_));
  connected_.store(true, std::memory_order_release);
  receiver_ = std::thread([this] { ReceiverLoop(); });
  return Status::OK();
}

void RemoteShardClient::Disconnect() {
  if (connected_.exchange(false)) {
    // Shut the socket down (not close: the receiver thread still holds
    // the fd) so the receiver unblocks with EOF and fails the pending.
    (void)::shutdown(fd_.get(), SHUT_RDWR);
  }
  if (receiver_.joinable() &&
      receiver_.get_id() != std::this_thread::get_id()) {
    receiver_.join();
  }
  FailAllPending();
}

void RemoteShardClient::FailAllPending() {
  std::unordered_map<uint64_t, Completion> orphaned;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    orphaned.swap(pending_);
  }
  for (auto& [id, done] : orphaned) {
    done(RequestStatus::kUnavailable, std::string());
  }
}

void RemoteShardClient::Call(Verb verb, std::string payload,
                             Completion done) {
  if (!connected_.load(std::memory_order_acquire) ||
      payload.size() > options_.max_frame_payload) {
    // Dead connection, or a payload no peer would legally accept (the
    // server enforces the same limit): answer locally, never poison the
    // framing with an oversized length prefix.
    done(RequestStatus::kUnavailable, std::string());
    return;
  }
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    id = next_request_id_++;
    pending_.emplace(id, std::move(done));
  }

  FrameHeader header;
  header.verb = verb;
  header.request_id = id;
  header.payload_bytes = static_cast<uint32_t>(payload.size());
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  EncodeFrameHeader(header, &frame);
  frame.append(payload);

  Status sent;
  {
    std::lock_guard<std::mutex> lock(send_mu_);
    sent = WriteFullyDeadline(fd_.get(), frame.data(), frame.size(),
                              options_.send_timeout_ms);
  }
  if (!sent.ok()) {
    // Peer gone — or stalled past the send deadline, in which case a
    // partial frame may be on the wire and the framing is poisoned
    // either way. Shut the socket down so the receiver thread unblocks
    // with EOF and sweeps every other pending call to kUnavailable.
    connected_.store(false, std::memory_order_release);
    (void)::shutdown(fd_.get(), SHUT_RDWR);
  }
  if (!sent.ok() || !connected_.load(std::memory_order_acquire)) {
    // Two ways to get here: our own write failed, or the receiver
    // noticed a broken socket and ran FailAllPending while our entry
    // was not yet in the table (the connected_ re-check closes that
    // insert/sweep race — the receiver clears the flag BEFORE it
    // sweeps, so a post-insert read of false means our entry might
    // have been missed). Whichever side reaches the entry first
    // completes it: erase under the lock is the race arbiter, so the
    // completion runs exactly once and no caller hangs.
    Completion mine;
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      auto it = pending_.find(id);
      if (it != pending_.end()) {
        mine = std::move(it->second);
        pending_.erase(it);
      }
    }
    if (mine) mine(RequestStatus::kUnavailable, std::string());
  }
}

void RemoteShardClient::ReceiverLoop() {
  for (;;) {
    char header_bytes[kFrameHeaderBytes];
    if (!ReadFully(fd_.get(), header_bytes, sizeof(header_bytes)).ok()) {
      break;
    }
    FrameHeader header;
    if (!DecodeFrameHeader(header_bytes, options_.max_frame_payload,
                           &header)
             .ok() ||
        !header.IsResponse()) {
      break;  // protocol violation: the stream is unusable
    }
    std::string payload(header.payload_bytes, '\0');
    if (header.payload_bytes > 0 &&
        !ReadFully(fd_.get(), payload.data(), payload.size()).ok()) {
      break;
    }
    Completion done;
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      auto it = pending_.find(header.request_id);
      if (it != pending_.end()) {
        done = std::move(it->second);
        pending_.erase(it);
      }
    }
    // An unknown id is a response to a call Connect-time races already
    // failed; dropping it is correct.
    if (done) done(RequestStatus::kOk, std::move(payload));
  }
  connected_.store(false, std::memory_order_release);
  FailAllPending();
}

// --- Calls ---------------------------------------------------------------

std::future<QueryResponse> RemoteShardClient::Read(const Request& request) {
  std::string payload;
  EncodeRequest(request, &payload);
  return QueryCall(request.verb, std::move(payload));
}

std::future<MaintResponse> RemoteShardClient::Feed(const Request& request) {
  std::string payload;
  EncodeRequest(request, &payload);
  return MaintCall(request.verb, std::move(payload));
}

std::future<std::vector<QueryResponse>>
RemoteShardClient::MultiSourceAsync(std::vector<VertexId> sources,
                                    VertexId v, int64_t deadline_ms) {
  MultiSourceRequest req;
  req.sources = std::move(sources);
  req.vertex = v;
  req.deadline_ms = deadline_ms;
  const size_t expected = req.sources.size();
  std::string payload;
  EncodeMultiSourceRequest(req, &payload);
  auto promise =
      std::make_shared<std::promise<std::vector<QueryResponse>>>();
  auto future = promise->get_future();
  Call(Verb::kMultiSource, std::move(payload),
       [promise, expected](RequestStatus transport, std::string body) {
         std::vector<QueryResponse> responses;
         RequestStatus overall = RequestStatus::kUnavailable;
         if (transport == RequestStatus::kOk &&
             DecodeMultiSourceResponse(body, &overall, &responses).ok() &&
             overall == RequestStatus::kOk &&
             responses.size() == expected) {
           promise->set_value(std::move(responses));
           return;
         }
         // Whole-call failure (dead connection, shed, malformed body):
         // every source gets the same answer.
         if (transport != RequestStatus::kOk ||
             overall == RequestStatus::kOk) {
           overall = RequestStatus::kUnavailable;
         }
         responses.assign(expected, QueryStatus(overall));
         promise->set_value(std::move(responses));
       });
  return future;
}

std::future<QueryResponse> RemoteShardClient::QueryCall(
    Verb verb, std::string payload) {
  auto promise = std::make_shared<std::promise<QueryResponse>>();
  std::future<QueryResponse> future = promise->get_future();
  Call(verb, std::move(payload),
       [promise](RequestStatus transport, std::string body) {
         QueryResponse response;
         if (transport != RequestStatus::kOk ||
             !DecodeQueryResponsePayload(body, &response).ok()) {
           response = QueryStatus(RequestStatus::kUnavailable);
         }
         promise->set_value(std::move(response));
       });
  return future;
}

std::future<MaintResponse> RemoteShardClient::MaintCall(
    Verb verb, std::string payload) {
  auto promise = std::make_shared<std::promise<MaintResponse>>();
  std::future<MaintResponse> future = promise->get_future();
  Call(verb, std::move(payload),
       [promise](RequestStatus transport, std::string body) {
         MaintResponse response;
         if (transport != RequestStatus::kOk ||
             !DecodeMaintResponse(body, &response).ok()) {
           response = MaintStatus(RequestStatus::kUnavailable);
         }
         promise->set_value(response);
       });
  return future;
}

MaintResponse RemoteShardClient::ExtractBlob(VertexId s,
                                             std::string* blob) {
  std::string payload;
  EncodeSourceRequest(s, &payload);
  auto promise = std::make_shared<
      std::promise<std::pair<MaintResponse, std::string>>>();
  auto future = promise->get_future();
  Call(Verb::kExtractSource, std::move(payload),
       [promise](RequestStatus transport, std::string body) {
         MaintResponse response;
         std::string out_blob;
         if (transport != RequestStatus::kOk ||
             !DecodeExtractResponse(body, &response, &out_blob).ok()) {
           response = MaintStatus(RequestStatus::kUnavailable);
         }
         promise->set_value({response, std::move(out_blob)});
       });
  auto [response, out_blob] = future.get();
  if (response.status == RequestStatus::kOk) *blob = std::move(out_blob);
  return response;
}

MaintResponse RemoteShardClient::InjectBlob(const std::string& blob) {
  return MaintCall(Verb::kInjectSource, blob).get();
}

Status RemoteShardClient::Stats(bool include_samples, ShardStats* out) {
  std::string payload;
  EncodeStatsRequest(include_samples, &payload);
  auto promise = std::make_shared<std::promise<Status>>();
  auto future = promise->get_future();
  Call(Verb::kStats, std::move(payload),
       [promise, out](RequestStatus transport, std::string body) {
         if (transport != RequestStatus::kOk) {
           promise->set_value(Status::IOError("shard unavailable"));
           return;
         }
         promise->set_value(DecodeShardStats(body, out));
       });
  return future.get();
}

Status RemoteShardClient::ListSources(std::vector<VertexId>* out) {
  return ListCall(Verb::kListSources, out);
}

Status RemoteShardClient::ListTargets(std::vector<VertexId>* out) {
  return ListCall(Verb::kListTargets, out);
}

Status RemoteShardClient::ListCall(Verb verb, std::vector<VertexId>* out) {
  auto promise = std::make_shared<std::promise<Status>>();
  auto future = promise->get_future();
  Call(verb, std::string(),
       [promise, out](RequestStatus transport, std::string body) {
         if (transport != RequestStatus::kOk) {
           promise->set_value(Status::IOError("shard unavailable"));
           return;
         }
         promise->set_value(DecodeSourceList(body, out));
       });
  return future.get();
}

}  // namespace net
}  // namespace dppr
