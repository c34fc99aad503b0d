#ifndef SEMTAG_TEXT_NGRAM_H_
#define SEMTAG_TEXT_NGRAM_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/logging.h"
#include "text/tokenizer.h"

namespace semtag::text {

/// Expands a tokenized text into the n-gram features of the BoW models:
/// calls fn(hash, gram) for every n-gram with min_n <= n <= max_n, all
/// unigrams first, then all bigrams, ..., each in text order. A gram is
/// its words joined with '_' — with min_n=1, max_n=2 (the paper's best
/// setting for LR/SVM) "try the cakes" yields
///   try, the, cakes, try_the, the_cakes
/// — and `hash` is HashToken(gram). Both come straight from the
/// TokenBuffer: the gram is a view into its joined buffer and the hash
/// continues the first word's, so no gram string is ever built.
template <typename Fn>
void ForEachNgram(const TokenBuffer& tokens, int min_n, int max_n, Fn&& fn) {
  SEMTAG_CHECK(min_n >= 1 && max_n >= min_n);
  const size_t count = tokens.size();
  for (size_t n = static_cast<size_t>(min_n);
       n <= static_cast<size_t>(max_n) && n <= count; ++n) {
    for (size_t i = 0; i + n <= count; ++i) {
      fn(tokens.gram_hash(i, n), tokens.gram(i, n));
    }
  }
}

}  // namespace semtag::text

#endif  // SEMTAG_TEXT_NGRAM_H_
