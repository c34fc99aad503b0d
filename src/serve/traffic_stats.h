#ifndef SEMTAG_SERVE_TRAFFIC_STATS_H_
#define SEMTAG_SERVE_TRAFFIC_STATS_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace semtag::serve {

/// Point-in-time view of the traffic window.
struct TrafficSnapshot {
  uint64_t total = 0;        // requests observed since construction
  uint64_t window = 0;       // requests currently in the sliding window
  double positive_ratio = 0.0;  // fraction with P(y=1) >= 0.5 (window)
  double mean_length = 0.0;     // mean text bytes (window)
};

/// Aggregate of the sealed logical epochs currently in the epoch window:
/// the live counterpart of core::DatasetProfile, consumed by the online
/// re-planner (serve/replanner.h).
struct TrafficProfile {
  uint64_t total = 0;         // requests observed since construction
  uint64_t total_epochs = 0;  // epochs sealed since construction
  uint64_t epochs = 0;        // sealed epochs in the window
  uint64_t count = 0;         // requests across the window epochs
  uint64_t vocab_size = 0;    // distinct token hashes ever observed
  double positive_ratio = 0.0;  // fraction with P(y=1) >= 0.5
  double mean_length = 0.0;     // mean text bytes
  /// Cleanliness proxy (mirrors core/characteristics): fraction of tokens
  /// outside the reference vocabulary the served model was trained over.
  double oov_rate = 0.0;
  /// Fraction of each epoch's distinct tokens never seen in any earlier
  /// epoch (or the seeded reference) — emerging-vocabulary rate.
  double vocab_churn = 0.0;
  /// Mean per-epoch Shannon entropy (bits) of the token hash-bucket
  /// distribution — the shape signal: entity soup flattens it, a drifted
  /// topic mix shifts it.
  double token_entropy = 0.0;
  /// Combined [0,1] dirtiness score: min(1, 2*oov_rate + vocab_churn).
  /// A stream drifting away from the trained vocabulary behaves like the
  /// paper's dirty/open-vocabulary regime (BOOK), whatever its labels.
  double dirtiness = 0.0;
};

/// Streaming dataset profiler over the live request stream: the first
/// slice of the ROADMAP's "online dataset profiler" follow-up to PR 8.
///
/// Keeps O(1)-update sliding-window estimators of exactly the dataset
/// characteristics the cascade planner keys on — arrival count, positive
/// ratio (on the unified probability scale, so it is comparable across
/// model families), and mean text length (the generator's length knob) —
/// so a later PR can re-plan the simple/deep pair as traffic shifts away
/// from the distribution the cascade was calibrated on. Exported as obs
/// gauges (serve/traffic/*) by PublishGauges() after every scored batch.
///
/// Two windows coexist:
///  - the legacy per-request ring (`window` slots) behind Snapshot();
///  - wall-clock-free LOGICAL EPOCHS: Record(text, p) accumulates token
///    statistics into the current epoch, which seals every
///    `epoch_records` requests (0 = only on explicit AdvanceEpoch()).
///    Profile() aggregates the last `epoch_window` sealed epochs. Tests
///    advance the window deterministically without sleeping, and the
///    re-planner counts hysteresis dwell in epochs, not seconds.
///
/// The cleanliness proxy keys tokens by text::HashToken (FNV-1a 64, the
/// hash the tokenizer computes for the vocabulary index) against a
/// reference vocabulary — seeded from the training corpus via
/// SeedReferenceFromTexts(), or lazily adopted from the first sealed
/// epoch — and tracks OOV rate, vocabulary churn, and token entropy per
/// epoch. Hash sets are capped (kVocabCap) so memory stays bounded on
/// open-vocabulary streams.
///
/// Thread-safe (one mutex; callers are the batcher thread and the event
/// loop's kStats handler, so contention is nil). All statistics are pure
/// functions of the record sequence — bit-identical across thread counts.
class TrafficStats {
 public:
  explicit TrafficStats(size_t window = 1024, int epoch_records = 0,
                        size_t epoch_window = 8);

  /// Records one completed request: its text length in bytes and its
  /// unified-scale probability. Feeds only the legacy ring (no token
  /// statistics — the caller has no text to offer).
  void Record(size_t text_bytes, double probability);

  /// Records one completed request with its text: the legacy ring plus
  /// the current epoch's token statistics (OOV / churn / entropy).
  void Record(std::string_view text, double probability);

  /// Hashes every token of `texts` into the reference vocabulary and the
  /// seen-set, so OOV and churn measure drift away from the corpus the
  /// served model was trained on (instead of away from the first epoch).
  void SeedReferenceFromTexts(const std::vector<std::string>& texts);

  /// Seals the current epoch into the window. Returns false (and seals
  /// nothing) when the epoch is empty. Tests and the batcher-side
  /// auto-rotation both funnel through here.
  bool AdvanceEpoch();

  TrafficSnapshot Snapshot() const;
  TrafficProfile Profile() const;

  /// Sets the serve/traffic/* gauges — the legacy window triple plus the
  /// epoch-window cleanliness proxy (no-op while metrics are disabled).
  void PublishGauges() const;

 private:
  struct Slot {
    uint32_t bytes = 0;
    uint8_t positive = 0;
  };

  /// One sealed logical epoch.
  struct Epoch {
    uint64_t count = 0;
    uint64_t positives = 0;
    uint64_t bytes = 0;
    uint64_t tokens = 0;
    uint64_t ref_tokens = 0;  // tokens counted while a reference existed
    uint64_t oov_tokens = 0;
    uint64_t distinct = 0;    // distinct token hashes in this epoch
    uint64_t new_tokens = 0;  // distinct hashes never seen before
    double entropy = 0.0;     // hash-bucket Shannon entropy, bits
  };

  void RecordLocked(size_t text_bytes, double probability);
  bool SealEpochLocked();

  mutable std::mutex mu_;
  std::vector<Slot> ring_;
  size_t next_ = 0;
  uint64_t total_ = 0;
  uint64_t window_count_ = 0;
  uint64_t window_bytes_ = 0;
  uint64_t window_positives_ = 0;

  // Logical-epoch state (all guarded by mu_).
  const int epoch_records_;
  const size_t epoch_window_;
  Epoch current_;
  std::vector<uint32_t> bucket_counts_;        // current epoch, 64 buckets
  std::unordered_set<uint64_t> epoch_hashes_;  // current epoch's distinct
  std::unordered_set<uint64_t> reference_;     // trained vocabulary
  std::unordered_set<uint64_t> seen_;          // cumulative, for churn
  bool reference_ready_ = false;
  std::deque<Epoch> sealed_;
  uint64_t total_epochs_ = 0;
};

}  // namespace semtag::serve

#endif  // SEMTAG_SERVE_TRAFFIC_STATS_H_
