#include "perfbench/load.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>

#include "util/macros.h"

namespace perfbench {

namespace {

Clock::time_point At(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

int64_t SpanLog::Now() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

void SpanLog::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

void SpanLog::Append(const std::vector<Span>& spans) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

std::vector<Span> SpanLog::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

std::vector<ReadRecord> RunReads(const std::vector<Request>& schedule,
                                 Clock::time_point start, int threads,
                                 const IssueFn& issue,
                                 const AnsweredFn& answered) {
  DPPR_CHECK(threads >= 2);
  const size_t n = schedule.size();
  std::vector<ReadRecord> records(n);
  std::vector<std::future<dppr::QueryResponse>> answers(n);
  std::mutex mu;
  std::condition_variable issued_cv;
  size_t issued = 0;  // guarded by mu
  std::atomic<size_t> next{0};
  const auto take = [&](int taker) {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      std::future<dppr::QueryResponse> answer;
      {
        std::unique_lock<std::mutex> lock(mu);
        issued_cv.wait(lock, [&] { return issued > i; });
        answer = std::move(answers[i]);
      }
      const dppr::RequestStatus status = answer.get().status;
      const Clock::time_point done = Clock::now();
      records[i].status = status;
      records[i].latency_ms =
          DueLatencyMs(At(start, schedule[i].due_s), done,
                       status == dppr::RequestStatus::kOk);
      if (answered) answered(schedule[i], i, taker);
    }
  };
  std::vector<std::thread> takers;
  for (int t = 1; t < threads; ++t) takers.emplace_back(take, t);
  for (size_t i = 0; i < n; ++i) {
    const Request& request = schedule[i];
    const Clock::time_point due = At(start, request.due_s);
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    Issued read = issue(request);
    records[i].op = request.op;
    records[i].due_s = request.due_s;
    records[i].lateness_ms = Ms(sent - due);
    records[i].in_maintenance = read.in_maintenance;
    {
      std::lock_guard<std::mutex> lock(mu);
      answers[i] = std::move(read.answer);
      issued = i + 1;
    }
    issued_cv.notify_all();
  }
  for (auto& t : takers) t.join();
  return records;
}

Feed::Feed(dppr::ShardedPprService* router,
           const std::vector<UpdateBatch>* batches, size_t first, double rate)
    : router_(router),
      batches_(batches),
      first_(first),
      rate_(rate),
      next_(first) {
  DPPR_CHECK(rate > 0);
}

Feed::~Feed() { Join(); }

void Feed::Start(Clock::time_point start, Clock::time_point end) {
  start_ = start;
  end_ = end;
  thread_ = std::thread([this] { Run(); });
}

void Feed::Stop() {
  stop_.store(true);
  Join();
}

void Feed::Join() {
  if (thread_.joinable()) thread_.join();
}

void Feed::Run() {
  for (size_t j = 0;; ++j) {
    const Clock::time_point due = At(start_, static_cast<double>(j) / rate_);
    if (due >= end_) return;
    const size_t b = first_ + j;
    if (b >= batches_->size()) {
      dry_ = true;
      return;
    }
    // Sleep in short steps so Stop() is seen within a millisecond.
    while (Clock::now() < due && !stop_.load()) {
      std::this_thread::sleep_until(
          std::min(due, Clock::now() + std::chrono::milliseconds(1)));
    }
    if (stop_.load()) return;
    next_ = b + 1;
    const UpdateBatch& batch = (*batches_)[b];
    const Clock::time_point sent = Clock::now();
    const dppr::MaintResponse response = router_->ApplyUpdates(batch);
    const Clock::time_point done = Clock::now();
    FeedRecord record;
    record.due_s = std::chrono::duration<double>(due - start_).count();
    record.status = response.status;
    record.freshness_ms = DueLatencyMs(due, done, record.ok());
    record.fanout_ms = Ms(done - sent);
    record.updates = static_cast<int64_t>(batch.size());
    record.done_in_window = done <= end_;
    records_.push_back(record);
  }
}

}  // namespace perfbench
