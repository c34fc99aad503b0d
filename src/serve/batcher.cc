#include "serve/batcher.h"

#include <algorithm>
#include <cstdlib>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/replanner.h"

namespace semtag::serve {
namespace {

int EnvInt(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  int64_t v = 0;
  if (!ParseInt64(env, &v)) {
    SEMTAG_LOG(kWarning, "%s: not an integer: %s (using %d)", name, env,
               fallback);
    return fallback;
  }
  return static_cast<int>(v);
}

}  // namespace

BatchingOptions BatchingOptions::Resolved() const {
  BatchingOptions r = *this;
  r.batch_cap = std::max(r.batch_cap, 1);
  r.deadline_us = std::max(r.deadline_us, 0);
  r.queue_cap = std::max(r.queue_cap, 1);
  return r;
}

BatchingOptions BatchingOptionsFromEnv() {
  BatchingOptions options;
  options.batch_cap = EnvInt("SEMTAG_SERVE_BATCH_CAP", options.batch_cap);
  options.deadline_us =
      EnvInt("SEMTAG_SERVE_DEADLINE_US", options.deadline_us);
  options.queue_cap = EnvInt("SEMTAG_SERVE_QUEUE_CAP", options.queue_cap);
  return options.Resolved();
}

Batcher::Batcher(const ModelRegistry* registry, TrafficStats* stats,
                 BatchingOptions options, Replanner* replanner,
                 BatchDoneHook batch_done)
    : registry_(registry),
      stats_(stats),
      replanner_(replanner),
      batch_done_(std::move(batch_done)),
      options_(options.Resolved()) {}

Batcher::~Batcher() { Stop(); }

void Batcher::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  thread_ = std::thread([this] { RunScheduler(); });
}

bool Batcher::Submit(std::string text, ScoreCallback done) {
  bool wake = false;
  bool full = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_ ||
        queue_.size() >= static_cast<size_t>(options_.queue_cap)) {
      ++shed_;
      SEMTAG_OBS_COUNT("serve/requests_shed", 1);
      return false;
    }
    queue_.push_back(Pending{std::move(text), std::move(done),
                             std::chrono::steady_clock::now()});
    // The scheduler sleeps either for work (queue empty) or for a full
    // batch / the deadline (queue short of the cap). Only these two
    // transitions can end a wait early; any other arrival would be a
    // context switch that finds nothing to do.
    full = queue_.size() == static_cast<size_t>(options_.batch_cap);
    wake = full || queue_.size() == 1;
  }
  if (wake) cv_.notify_one();
  // A full batch is work the scheduler can start now. The kernel tends to
  // queue a woken thread on its waker's CPU without preempting it, so
  // without this the batch waits until the submitter blocks or uses up
  // its time slice — milliseconds, if it has more to do than submit. At
  // batch_cap 1 every request fills a batch, and a yield per request
  // would be the per-request context switch batching exists to avoid.
  if (full && options_.batch_cap > 1) std::this_thread::yield();
  return true;
}

void Batcher::Stop() {
  std::thread joinee;
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    joinee = std::move(thread_);
  }
  cv_.notify_all();
  if (joinee.joinable()) joinee.join();
}

size_t Batcher::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

uint64_t Batcher::BatchCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_;
}

uint64_t Batcher::ShedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shed_;
}

std::vector<Batcher::Pending> Batcher::TakeBatchLocked() {
  std::vector<Pending> batch;
  const size_t n =
      std::min(queue_.size(), static_cast<size_t>(options_.batch_cap));
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return batch;
}

void Batcher::RunScheduler() {
  const auto deadline = std::chrono::microseconds(options_.deadline_us);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Sleep until work arrives. A deadline with an empty queue is a
    // non-event: nothing is armed until a request exists, so the thread
    // burns zero CPU while idle.
    cv_.wait(lock, [this] { return !queue_.empty() || draining_; });
    if (queue_.empty()) {
      if (draining_) return;
      continue;  // spurious wake
    }
    // Work exists: collect until the batch is full or the OLDEST request
    // has waited out the deadline. Draining skips the wait — shutdown
    // flushes partial batches immediately.
    const auto flush_at = queue_.front().enqueued + deadline;
    while (!draining_ &&
           queue_.size() < static_cast<size_t>(options_.batch_cap)) {
      if (cv_.wait_until(lock, flush_at) == std::cv_status::timeout) break;
    }
    if (queue_.empty()) continue;  // raced a concurrent flush (none today)
    SEMTAG_OBS_OBSERVE("serve/queue_depth_at_flush", obs::DepthBuckets(),
                       static_cast<double>(queue_.size()));
    std::vector<Pending> batch = TakeBatchLocked();
    ++batches_;
    lock.unlock();
    ScoreBatch(std::move(batch));
    lock.lock();
    // Loop; on drain keep flushing until the queue is empty, then exit.
    if (draining_ && queue_.empty()) return;
  }
}

void Batcher::ScoreBatch(std::vector<Pending> batch) {
  obs::TraceSpan span("serve/batch");
  // The texts move (no copy) into the vector ScoreAll wants; the traffic
  // profile reads them from there.
  std::vector<std::string> texts;
  texts.reserve(batch.size());
  for (Pending& p : batch) texts.push_back(std::move(p.text));

  const std::shared_ptr<const ServableModel> servable =
      registry_ == nullptr ? nullptr : registry_->Acquire();
  WallTimer timer;
  std::vector<double> scores;
  if (servable != nullptr && servable->model != nullptr) {
    scores = servable->model->ScoreAll(texts);
  }
  const double batch_us = timer.ElapsedSeconds() * 1e6;

  SEMTAG_OBS_COUNT("serve/batches", 1);
  SEMTAG_OBS_OBSERVE("serve/batch_size", obs::DepthBuckets(),
                     static_cast<double>(batch.size()));
  SEMTAG_OBS_OBSERVE("serve/batch_score_us", obs::ServeLatencyBucketsUs(),
                     batch_us);

  const auto now = std::chrono::steady_clock::now();
  for (size_t i = 0; i < batch.size(); ++i) {
    ScoredRequest result;
    if (i < scores.size()) {
      result.score = scores[i];
      result.probability =
          servable->model->ProbabilityFromScore(scores[i]);
      result.model_version = servable->version;
    }
    if (stats_ != nullptr) {
      stats_->Record(std::string_view(texts[i]), result.probability);
    }
    SEMTAG_OBS_COUNT("serve/requests_scored", 1);
    using WaitUs = std::chrono::duration<double, std::micro>;
    const double wait_us = WaitUs(now - batch[i].enqueued).count();
    SEMTAG_OBS_OBSERVE("serve/queue_wait_us", obs::ServeLatencyBucketsUs(),
                       wait_us);
    if (batch[i].done) batch[i].done(result);
  }
  if (batch_done_) batch_done_();
  if (stats_ != nullptr) stats_->PublishGauges();
  // Drive the re-planning loop from here: the detector only ever runs
  // between batches on this thread, so a triggered synchronous swap can
  // never split a batch across model versions.
  if (replanner_ != nullptr) replanner_->Poll();
}

}  // namespace semtag::serve
