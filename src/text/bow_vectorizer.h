#ifndef SEMTAG_TEXT_BOW_VECTORIZER_H_
#define SEMTAG_TEXT_BOW_VECTORIZER_H_

#include <string>
#include <string_view>
#include <vector>

#include "la/sparse.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace semtag::text {

/// Configuration for BowVectorizer.
struct BowOptions {
  /// n-gram range; the paper found (1, 2) best for LR/SVM.
  int min_ngram = 1;
  int max_ngram = 2;
  /// Drop n-grams appearing in fewer documents than this.
  int64_t min_doc_freq = 2;
  /// Cap on vocabulary size (0 = unlimited).
  size_t max_features = 200000;
  /// Weigh counts by inverse document frequency:
  /// idf(t) = log(n / df(t)) + 1, the formula in Section 3.2.
  bool use_idf = true;
  /// L2-normalize each document vector (stabilizes SGD training).
  bool l2_normalize = true;
  TokenizerOptions tokenizer;
};

/// Bag-of-words + TF-IDF featurizer: the input representation of the simple
/// models (Section 3.2). Fit on the training corpus, then Transform both
/// train and test texts; unseen n-grams are ignored at transform time.
class BowVectorizer {
 public:
  explicit BowVectorizer(BowOptions options = {}) : options_(options) {}

  /// Learns the n-gram vocabulary and IDF table from the corpus.
  void Fit(const std::vector<std::string>& texts);

  /// Rebuilds a fitted vectorizer from serialized state (model loading);
  /// `idf` must have one entry per vocabulary id.
  static BowVectorizer FromState(BowOptions options, Vocabulary vocab,
                                 std::vector<float> idf);

  /// Featurizes one text into `out`, replacing its contents. Requires
  /// Fit() first. Tokenizes into a thread-local TokenBuffer and resolves
  /// every n-gram by hash (ForEachNgram + Vocabulary::Find), so with a
  /// reused `out` the steady state allocates nothing.
  void Transform(std::string_view text, la::SparseVector* out) const;

  /// Featurizes one text. Requires Fit() first.
  la::SparseVector Transform(std::string_view text) const;

  /// Featurizes a batch into a sparse matrix.
  la::SparseMatrix TransformAll(const std::vector<std::string>& texts) const;

  /// Dimensionality of the output space (== vocabulary size).
  size_t num_features() const {
    return static_cast<size_t>(vocab_.size());
  }

  const Vocabulary& vocabulary() const { return vocab_; }

  /// IDF weight of a feature id (1.0 when use_idf is false).
  float IdfOf(int32_t id) const { return idf_[id]; }

 private:
  BowOptions options_;
  Vocabulary vocab_;
  std::vector<float> idf_;
};

}  // namespace semtag::text

#endif  // SEMTAG_TEXT_BOW_VECTORIZER_H_
