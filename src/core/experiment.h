#ifndef SEMTAG_CORE_EXPERIMENT_H_
#define SEMTAG_CORE_EXPERIMENT_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "data/specs.h"
#include "models/factory.h"

namespace semtag::core {

/// How one (dataset, model) cell of the study grid ended.
enum class CellOutcome {
  kOk,        // trained and evaluated normally
  kCached,    // served from the persistent result cache
  kRetried,   // succeeded after >= 1 divergence recovery
  kTimedOut,  // hit the per-cell deadline (SEMTAG_CELL_DEADLINE_MS)
  kFailed,    // training error or non-finite metrics
};

const char* CellOutcomeName(CellOutcome outcome);

/// All measurements of one (dataset, model) run.
struct ExperimentResult {
  std::string dataset;
  std::string model;
  double f1 = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  double accuracy = 0.0;
  double auc = 0.0;
  /// Max F1 over a 200-point calibration-threshold sweep (appendix).
  double calibrated_f1 = 0.0;
  double train_seconds = 0.0;
  int64_t train_size = 0;
  int64_t test_size = 0;
  CellOutcome outcome = CellOutcome::kOk;
  /// Divergence recoveries performed while training this cell.
  int retries = 0;
  /// Status message when outcome is kTimedOut or kFailed (not persisted).
  std::string error;
};

/// Aggregate accounting of a grid sweep: every requested cell appears in
/// `results` exactly once, whatever its fate.
struct RunReport {
  std::vector<ExperimentResult> results;
  int ok = 0;
  int cached = 0;
  int retried = 0;
  int timed_out = 0;
  int failed = 0;
  bool all_ok() const { return timed_out == 0 && failed == 0; }
};

/// Recomputes the outcome counts of `report` from its `results`. Shared by
/// RunMany and the sharded coordinator's cross-worker report merge, so both
/// tally identically.
void TallyOutcomes(RunReport* report);

/// One claimable unit of a sharded sweep: a (dataset, model) cell plus its
/// stable id ("<dataset>/<model>"), the currency of the shard lease
/// journal (core/shard.h).
struct GridCell {
  data::DatasetSpec spec;
  models::ModelKind kind;
  std::string id;
};

/// Enumerates the full specs x models grid in claim order: cheap model
/// families first (NB/LR/SVM/XGB, then embedding hybrids, then deep), specs
/// in the given order within a family. Scheduling simple-model cells first
/// makes early failures cheap to retry and frees deep cells to the tail
/// where reclaim cost dominates ("Small Language Models are Good Too",
/// PAPERS.md). Cell ids are unique; duplicate (spec, model) pairs are
/// rejected with an abort since the lease journal keys on the id.
std::vector<GridCell> EnumerateGrid(
    const std::vector<data::DatasetSpec>& specs,
    const std::vector<models::ModelKind>& kinds);

/// Trains `kind` on `train`, evaluates on `test`, and fills every metric.
/// `cancel` (optional) is polled cooperatively inside the training loop;
/// on deadline/cancellation the result carries outcome kTimedOut, on a
/// training error or non-finite metrics kFailed — metrics stay zeroed and
/// the error message is preserved, so a sweep never dies on one bad cell.
ExperimentResult TrainAndEvaluate(const data::Dataset& train,
                                  const data::Dataset& test,
                                  models::ModelKind kind, uint64_t seed = 0,
                                  CancellationToken cancel = {});

/// Runs experiments with a persistent file cache, so the bench binaries
/// (separate processes sharing many cells of the dataset x model grid) do
/// not retrain the same model repeatedly.
///
/// Cache keys hash the dataset's full generator configuration, the split,
/// the model, and the seed — retuning any knob invalidates exactly the
/// affected entries. The cache lives at CacheDir()/results.csv, protected
/// by a CRC32 footer, published atomically (temp file + rename), and
/// merged with concurrent writers under an advisory file lock. It doubles
/// as the resume journal: a killed sweep rerun in a fresh process serves
/// every completed cell from cache and recomputes only the rest.
class ExperimentRunner {
 public:
  explicit ExperimentRunner(bool use_cache = true);

  /// Standard protocol of Section 5.1: deterministic shuffle, then a
  /// train_fraction/rest split of the spec's generated dataset. Each cell
  /// runs under the SEMTAG_CELL_DEADLINE_MS watchdog; only ok/retried
  /// results enter the cache (timed-out and failed cells retry next run).
  ExperimentResult Run(const data::DatasetSpec& spec, models::ModelKind kind,
                       uint64_t seed = 0);

  /// Runs on explicit train/test sets; `cache_key` must uniquely describe
  /// how they were built (the caller knows the derivation).
  ExperimentResult RunOn(const std::string& cache_key,
                         const data::Dataset& train,
                         const data::Dataset& test, models::ModelKind kind,
                         uint64_t seed = 0);

  /// Run() over an explicit list of specs for one model. Cells run in
  /// parallel on the global pool (each cell is independent: its own
  /// generated dataset, split, and seeded model); a failed or timed-out
  /// cell is recorded in the report and the rest of the grid completes.
  RunReport RunMany(const std::vector<data::DatasetSpec>& specs,
                    models::ModelKind kind);

  /// Convenience: RunMany() over all 21 specs.
  RunReport RunAll(models::ModelKind kind);

 private:
  /// On a miss, merges the cache file in and looks again.
  bool Lookup(const std::string& key, ExperimentResult* result);
  void Store(const std::string& key, const ExperimentResult& result);
  void LoadCacheFile();
  /// Adds the file's entries that are not in memory (caller holds
  /// cache_mu_); an unreadable or CRC-broken file adds nothing.
  void MergeCacheFileLocked();

  bool use_cache_;
  std::string cache_path_;
  /// Guards cache_ and the cache-file rewrite; Run() may be called from
  /// several pool workers at once.
  mutable std::mutex cache_mu_;
  std::map<std::string, ExperimentResult> cache_;
};

/// Stable content key for a spec + model + seed (exposed for tests).
std::string ExperimentCacheKey(const data::DatasetSpec& spec,
                               models::ModelKind kind, uint64_t seed);

/// Short hex digest of a spec's generator configuration; callers of
/// RunOn() fold it into their cache keys so retuning a dataset invalidates
/// the derived sweeps too.
std::string SpecConfigDigest(const data::DatasetSpec& spec);

}  // namespace semtag::core

#endif  // SEMTAG_CORE_EXPERIMENT_H_
