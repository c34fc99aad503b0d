#include "models/simple/naive_bayes.h"

#include <cmath>

#include "common/logging.h"
#include "common/timer.h"

namespace semtag::models {

Status NaiveBayes::Train(const data::Dataset& train) {
  if (trained_) return Status::FailedPrecondition("already trained");
  if (train.empty()) return Status::InvalidArgument("empty training set");
  WallTimer timer;
  const auto texts = train.Texts();
  vectorizer_ = text::BowVectorizer(options_.bow);
  vectorizer_.Fit(texts);
  const size_t d = vectorizer_.num_features();
  std::vector<double> count_pos(d, 0.0);
  std::vector<double> count_neg(d, 0.0);
  double total_pos = 0.0;
  double total_neg = 0.0;
  int64_t n_pos = 0;
  for (size_t i = 0; i < train.size(); ++i) {
    const la::SparseVector x = vectorizer_.Transform(train[i].text);
    const bool pos = train[i].label == 1;
    n_pos += pos;
    auto& counts = pos ? count_pos : count_neg;
    auto& total = pos ? total_pos : total_neg;
    for (const auto& e : x.entries()) {
      counts[e.index] += e.value;
      total += e.value;
    }
  }
  const int64_t n_neg = static_cast<int64_t>(train.size()) - n_pos;
  if (n_pos == 0 || n_neg == 0) {
    return Status::InvalidArgument("training set must contain both classes");
  }
  log_prior_pos_ = std::log(static_cast<double>(n_pos) / train.size());
  log_prior_neg_ = std::log(static_cast<double>(n_neg) / train.size());
  log_like_pos_.resize(d);
  log_like_neg_.resize(d);
  const double a = options_.alpha;
  const double denom_pos = total_pos + a * static_cast<double>(d);
  const double denom_neg = total_neg + a * static_cast<double>(d);
  for (size_t j = 0; j < d; ++j) {
    log_like_pos_[j] =
        static_cast<float>(std::log((count_pos[j] + a) / denom_pos));
    log_like_neg_[j] =
        static_cast<float>(std::log((count_neg[j] + a) / denom_neg));
  }
  trained_ = true;
  set_train_seconds(timer.ElapsedSeconds());
  return Status::OK();
}

double NaiveBayes::Score(std::string_view text) const {
  SEMTAG_CHECK(trained_);
  thread_local la::SparseVector x;  // reused: no allocation per text
  vectorizer_.Transform(text, &x);
  double lp = log_prior_pos_;
  double ln = log_prior_neg_;
  for (const auto& e : x.entries()) {
    lp += e.value * log_like_pos_[e.index];
    ln += e.value * log_like_neg_[e.index];
  }
  // P(pos) via the stable log-odds sigmoid.
  return 1.0 / (1.0 + std::exp(ln - lp));
}

}  // namespace semtag::models
