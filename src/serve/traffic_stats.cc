#include "serve/traffic_stats.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "text/tokenizer.h"

namespace semtag::serve {
namespace {

// Number of entropy buckets: coarse enough that a few hundred records per
// epoch fill the histogram, fine enough that entity soup visibly flattens
// it.
constexpr size_t kEntropyBuckets = 64;

// Cap on the reference / cumulative hash sets; past it new tokens are
// treated as already seen, so a pathological open-vocabulary stream
// saturates churn instead of growing memory without bound.
constexpr size_t kVocabCap = 1 << 16;

}  // namespace

TrafficStats::TrafficStats(size_t window, int epoch_records,
                           size_t epoch_window)
    : ring_(std::max<size_t>(window, 1)),
      epoch_records_(epoch_records),
      epoch_window_(std::max<size_t>(epoch_window, 1)),
      bucket_counts_(kEntropyBuckets, 0) {}

void TrafficStats::RecordLocked(size_t text_bytes, double probability) {
  const uint32_t bytes =
      static_cast<uint32_t>(std::min<size_t>(text_bytes, UINT32_MAX));
  const uint8_t positive = probability >= 0.5 ? 1 : 0;
  Slot& slot = ring_[next_];
  if (window_count_ == ring_.size()) {
    // Window full: the slot we are about to overwrite leaves the window.
    window_bytes_ -= slot.bytes;
    window_positives_ -= slot.positive;
  } else {
    ++window_count_;
  }
  slot.bytes = bytes;
  slot.positive = positive;
  next_ = (next_ + 1) % ring_.size();
  ++total_;
  window_bytes_ += bytes;
  window_positives_ += positive;
}

void TrafficStats::Record(size_t text_bytes, double probability) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordLocked(text_bytes, probability);
}

void TrafficStats::Record(std::string_view text, double probability) {
  // Tokenize (and hash) outside the lock, into a reused per-thread buffer.
  thread_local text::TokenBuffer tokens;
  tokens.Assign(text);
  std::lock_guard<std::mutex> lock(mu_);
  RecordLocked(text.size(), probability);
  current_.count += 1;
  current_.positives += probability >= 0.5 ? 1 : 0;
  current_.bytes += text.size();
  current_.tokens += tokens.size();
  if (reference_ready_) current_.ref_tokens += tokens.size();
  // Tokens are compared only by hash: at the vocabulary sizes the
  // generator produces (thousands of distinct words) 64-bit collisions are
  // negligible, and the per-request cost stays flat whatever the token
  // length distribution does.
  for (size_t i = 0; i < tokens.size(); ++i) {
    const uint64_t h = tokens.hash(i);
    ++bucket_counts_[h % kEntropyBuckets];
    if (reference_ready_ && reference_.count(h) == 0) ++current_.oov_tokens;
    if (epoch_hashes_.insert(h).second) {
      ++current_.distinct;
      if (seen_.count(h) == 0) {
        ++current_.new_tokens;
        if (seen_.size() < kVocabCap) seen_.insert(h);
      }
    }
  }
  if (epoch_records_ > 0 &&
      current_.count >= static_cast<uint64_t>(epoch_records_)) {
    SealEpochLocked();
  }
}

void TrafficStats::SeedReferenceFromTexts(
    const std::vector<std::string>& texts) {
  text::TokenBuffer tokens;
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& text : texts) {
    tokens.Assign(text);
    for (size_t i = 0; i < tokens.size(); ++i) {
      const uint64_t h = tokens.hash(i);
      if (reference_.size() < kVocabCap) reference_.insert(h);
      if (seen_.size() < kVocabCap) seen_.insert(h);
    }
  }
  reference_ready_ = true;
}

bool TrafficStats::SealEpochLocked() {
  if (current_.count == 0) return false;
  // Entropy of the hash-bucket distribution, in bits.
  double entropy = 0.0;
  if (current_.tokens > 0) {
    const double total = static_cast<double>(current_.tokens);
    for (const uint32_t c : bucket_counts_) {
      if (c == 0) continue;
      const double p = static_cast<double>(c) / total;
      entropy -= p * std::log2(p);
    }
  }
  current_.entropy = entropy;
  if (!reference_ready_) {
    // No training corpus was offered: adopt the first epoch as the
    // baseline so drift is measured relative to the stream's own start.
    reference_ = epoch_hashes_;
    reference_ready_ = true;
  }
  sealed_.push_back(current_);
  if (sealed_.size() > epoch_window_) sealed_.pop_front();
  ++total_epochs_;
  current_ = Epoch{};
  std::fill(bucket_counts_.begin(), bucket_counts_.end(), 0);
  epoch_hashes_.clear();
  return true;
}

bool TrafficStats::AdvanceEpoch() {
  std::lock_guard<std::mutex> lock(mu_);
  return SealEpochLocked();
}

TrafficSnapshot TrafficStats::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  TrafficSnapshot snapshot;
  snapshot.total = total_;
  snapshot.window = window_count_;
  if (window_count_ > 0) {
    snapshot.positive_ratio =
        static_cast<double>(window_positives_) / window_count_;
    snapshot.mean_length =
        static_cast<double>(window_bytes_) / window_count_;
  }
  return snapshot;
}

TrafficProfile TrafficStats::Profile() const {
  std::lock_guard<std::mutex> lock(mu_);
  TrafficProfile profile;
  profile.total = total_;
  profile.total_epochs = total_epochs_;
  profile.epochs = sealed_.size();
  profile.vocab_size = seen_.size();
  uint64_t count = 0, positives = 0, bytes = 0, tokens = 0;
  uint64_t ref_tokens = 0, oov = 0, distinct = 0, fresh = 0;
  double entropy_weighted = 0.0;
  for (const Epoch& epoch : sealed_) {
    count += epoch.count;
    positives += epoch.positives;
    bytes += epoch.bytes;
    tokens += epoch.tokens;
    ref_tokens += epoch.ref_tokens;
    oov += epoch.oov_tokens;
    distinct += epoch.distinct;
    fresh += epoch.new_tokens;
    entropy_weighted += epoch.entropy * static_cast<double>(epoch.tokens);
  }
  profile.count = count;
  if (count > 0) {
    profile.positive_ratio = static_cast<double>(positives) / count;
    profile.mean_length = static_cast<double>(bytes) / count;
  }
  profile.oov_rate =
      static_cast<double>(oov) / static_cast<double>(std::max<uint64_t>(
                                     ref_tokens, 1));
  profile.vocab_churn =
      static_cast<double>(fresh) / static_cast<double>(std::max<uint64_t>(
                                       distinct, 1));
  if (tokens > 0) profile.token_entropy = entropy_weighted / tokens;
  profile.dirtiness =
      std::min(1.0, 2.0 * profile.oov_rate + profile.vocab_churn);
  return profile;
}

void TrafficStats::PublishGauges() const {
  if (!obs::MetricsEnabled()) return;
  const TrafficSnapshot snapshot = Snapshot();
  SEMTAG_OBS_GAUGE_SET("serve/traffic/window_count",
                       static_cast<double>(snapshot.window));
  SEMTAG_OBS_GAUGE_SET("serve/traffic/positive_ratio",
                       snapshot.positive_ratio);
  SEMTAG_OBS_GAUGE_SET("serve/traffic/mean_length", snapshot.mean_length);
  const TrafficProfile profile = Profile();
  SEMTAG_OBS_GAUGE_SET("serve/traffic/epochs",
                       static_cast<double>(profile.total_epochs));
  SEMTAG_OBS_GAUGE_SET("serve/traffic/oov_rate", profile.oov_rate);
  SEMTAG_OBS_GAUGE_SET("serve/traffic/vocab_churn", profile.vocab_churn);
  SEMTAG_OBS_GAUGE_SET("serve/traffic/token_entropy", profile.token_entropy);
  SEMTAG_OBS_GAUGE_SET("serve/traffic/dirtiness", profile.dirtiness);
}

}  // namespace semtag::serve
