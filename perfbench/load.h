// The open-loop load generator and the span log of traced runs.
//
// Reads: one sender thread issues each read of a schedule at its due
// time through the router's asynchronous call and moves on, so the
// generator's thread count does not limit the reads in flight. The other
// read threads take the answers in schedule order and stamp each when
// they find it in. Latency runs from the due time, so a stall delays
// every read behind it and shows in their latencies; how late the sender
// issued a read is recorded beside it as the generator's own lateness.
// Two limits remain, both visible in the records: an answer that arrives
// while every taker waits on an earlier, slower one is stamped when a
// taker reaches it; and MultiSourceQuery, which has no asynchronous
// form, runs on the thread that takes it.
//
// Feed: the update batches go out in order from one thread, open loop at
// a fixed rate. The router applies one batch at a time, so the feed has
// at most one batch in flight and a slow batch delays the ones behind it;
// each batch is timed from its due time until ApplyUpdates acknowledges
// it. A feed that runs out of batches before the window ends marks the
// run failed; it never changes the mix.

#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "perfbench/inputs.h"
#include "perfbench/stats.h"
#include "router/sharded_service.h"

namespace perfbench {

/// One recorded span: `parent` 0 marks a root; spans of one request share
/// `request`. Times are nanoseconds since the process's trace origin.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double Micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// Spans kept in memory until the run ends. Thread-safe.
class SpanLog {
 public:
  static int64_t Now();
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Add(const Span& span);
  void Append(const std::vector<Span>& spans);
  std::vector<Span> Take();

 private:
  std::atomic<uint64_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// A read in flight.
struct Issued {
  std::future<dppr::QueryResponse> answer;
  /// Estimator reads: the owning shard's primary was inside ApplyBatch
  /// when the read was sent.
  bool in_maintenance = false;
};

/// One read of a schedule, as measured.
struct ReadRecord {
  Op op = Op::kPoint;
  double due_s = 0.0;
  double latency_ms = 0.0;  ///< from due time; kMiss when not kOk
  double lateness_ms = 0.0;  ///< send time minus due time
  dppr::RequestStatus status = dppr::RequestStatus::kClosed;
  bool in_maintenance = false;
};

/// Sends `request` without waiting for its answer.
using IssueFn = std::function<Issued(const Request& request)>;
/// Runs on taker thread `taker` (1-based) once read `i` is answered and
/// stamped; traced runs probe the layers here. May be empty.
using AnsweredFn =
    std::function<void(const Request& request, size_t i, int taker)>;

/// Runs `schedule` open loop from `start` on `threads` threads: the
/// calling thread sends, the others take answers. Returns one record per
/// read, in schedule order.
std::vector<ReadRecord> RunReads(const std::vector<Request>& schedule,
                                 Clock::time_point start, int threads,
                                 const IssueFn& issue,
                                 const AnsweredFn& answered);

/// One update batch, as measured.
struct FeedRecord {
  double due_s = 0.0;         ///< since the feed started
  double freshness_ms = 0.0;  ///< due time to kOk; kMiss if not kOk
  double fanout_ms = 0.0;     ///< the ApplyUpdates call itself
  int64_t updates = 0;
  dppr::RequestStatus status = dppr::RequestStatus::kClosed;
  bool done_in_window = false;  ///< acknowledged before the window closed
  bool ok() const { return status == dppr::RequestStatus::kOk; }
};

/// The update feed of one measured window, run on its own thread.
class Feed {
 public:
  /// Feeds `batches[first..]` to `router`, `rate` batches per second.
  Feed(dppr::ShardedPprService* router,
       const std::vector<UpdateBatch>* batches, size_t first, double rate);
  ~Feed();

  Feed(const Feed&) = delete;
  Feed& operator=(const Feed&) = delete;

  /// Starts feeding at `start` and stops sending at `end`.
  void Start(Clock::time_point start, Clock::time_point end);
  /// Stops sending now and waits for the batch in flight.
  void Stop();
  /// Waits for the feed to end.
  void Join();

  /// Valid once the feed has ended.
  const std::vector<FeedRecord>& records() const { return records_; }
  /// One past the last batch handed to the router.
  size_t next_batch() const { return next_; }
  bool ran_dry() const { return dry_; }

 private:
  void Run();

  dppr::ShardedPprService* router_;
  const std::vector<UpdateBatch>* batches_;
  const size_t first_;
  const double rate_;
  Clock::time_point start_;
  Clock::time_point end_;
  size_t next_;
  bool dry_ = false;
  std::atomic<bool> stop_{false};
  std::vector<FeedRecord> records_;
  std::thread thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
