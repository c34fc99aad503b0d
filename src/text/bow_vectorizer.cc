#include "text/bow_vectorizer.h"

#include <cmath>

#include "common/logging.h"
#include "text/ngram.h"

namespace semtag::text {

void BowVectorizer::Fit(const std::vector<std::string>& texts) {
  VocabularyBuilder builder;
  TokenBuffer tokens;
  for (const auto& t : texts) {
    tokens.Assign(t, options_.tokenizer);
    builder.AddDocument(tokens, options_.min_ngram, options_.max_ngram);
  }
  vocab_ = builder.Build(options_.min_doc_freq, options_.max_features);
  idf_.assign(static_cast<size_t>(vocab_.size()), 1.0f);
  if (options_.use_idf) {
    const double n = static_cast<double>(texts.size());
    for (int32_t id = 0; id < vocab_.size(); ++id) {
      const double df = static_cast<double>(vocab_.DocFreqOf(id));
      idf_[static_cast<size_t>(id)] =
          static_cast<float>(std::log(n / std::max(df, 1.0)) + 1.0);
    }
  }
}

BowVectorizer BowVectorizer::FromState(BowOptions options, Vocabulary vocab,
                                       std::vector<float> idf) {
  BowVectorizer out(options);
  SEMTAG_CHECK(static_cast<size_t>(vocab.size()) == idf.size());
  out.vocab_ = std::move(vocab);
  out.idf_ = std::move(idf);
  return out;
}

void BowVectorizer::Transform(std::string_view text,
                              la::SparseVector* out) const {
  thread_local TokenBuffer tokens;
  tokens.Assign(text, options_.tokenizer);
  out->clear();
  out->reserve(static_cast<size_t>(options_.max_ngram - options_.min_ngram +
                                   1) *
               tokens.size());
  ForEachNgram(tokens, options_.min_ngram, options_.max_ngram,
               [&](uint64_t hash, std::string_view gram) {
                 const int32_t id = vocab_.Find(hash, gram);
                 if (id != kUnknownTokenId) {
                   out->Push(static_cast<uint32_t>(id), 1.0f);
                 }
               });
  out->SortAndMerge();
  // After SortAndMerge each entry value is the raw term count; scale by
  // the feature's IDF weight.
  if (options_.use_idf) out->ScaleByDense(idf_.data());
  if (options_.l2_normalize) out->L2Normalize();
}

la::SparseVector BowVectorizer::Transform(std::string_view text) const {
  la::SparseVector vec;
  Transform(text, &vec);
  return vec;
}

la::SparseMatrix BowVectorizer::TransformAll(
    const std::vector<std::string>& texts) const {
  la::SparseMatrix m(num_features());
  for (const auto& t : texts) m.AddRow(Transform(t));
  return m;
}

}  // namespace semtag::text
