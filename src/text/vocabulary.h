#ifndef SEMTAG_TEXT_VOCABULARY_H_
#define SEMTAG_TEXT_VOCABULARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "text/tokenizer.h"

namespace semtag::text {

/// Sentinel id for tokens that are not in the vocabulary.
inline constexpr int32_t kUnknownTokenId = -1;

/// Bidirectional token <-> id map with document frequencies.
///
/// Build once from a corpus with VocabularyBuilder (which applies min_count /
/// max_size pruning), then resolve ids with Lookup / Find.
///
/// The index is an open-addressing table keyed by HashToken(token): linear
/// probing from the hash's low bits, at most half full, grown in Add() —
/// so every way of building a vocabulary (Build, model loading) gets it.
/// A probe matches only when the stored hash AND the stored token equal
/// the query, so a 64-bit hash collision can never alias two tokens.
class Vocabulary {
 public:
  Vocabulary() = default;

  /// Adds a token with the given document frequency; returns its id.
  /// Tokens must be unique.
  int32_t Add(std::string token, int64_t doc_freq);

  /// Returns the id for `token` or kUnknownTokenId.
  int32_t Lookup(std::string_view token) const {
    return Find(HashToken(token), token);
  }

  /// Lookup with the hash already in hand (a TokenBuffer computes it while
  /// tokenizing). `hash` must be HashToken(token).
  int32_t Find(uint64_t hash, std::string_view token) const;

  /// Token string for an id.
  const std::string& TokenOf(int32_t id) const { return tokens_[id]; }

  /// Document frequency recorded for an id.
  int64_t DocFreqOf(int32_t id) const { return doc_freqs_[id]; }

  int32_t size() const { return static_cast<int32_t>(tokens_.size()); }

 private:
  struct Slot {
    uint64_t hash = 0;
    int32_t id = kUnknownTokenId;  // kUnknownTokenId marks an empty slot
  };

  /// Rebuilds the table with `capacity` slots (a power of two) from the
  /// stored hashes.
  void Rehash(size_t capacity);

  std::vector<Slot> slots_;
  std::vector<std::string> tokens_;
  std::vector<int64_t> doc_freqs_;
};

/// Accumulates token document-frequencies over a corpus, then freezes into a
/// Vocabulary.
class VocabularyBuilder {
 public:
  /// Counts each distinct token in `tokens` once (document frequency).
  void AddDocument(const std::vector<std::string>& tokens);

  /// Counts each distinct n-gram (min_n <= n <= max_n, see ForEachNgram)
  /// of a tokenized document once.
  void AddDocument(const TokenBuffer& tokens, int min_n, int max_n);

  /// Number of distinct tokens seen so far. Used to reproduce the paper's
  /// vocabulary-growth analysis (Figure 9).
  size_t DistinctTokens() const { return seen_.size(); }

  /// Freezes into a Vocabulary keeping tokens with doc_freq >= min_count,
  /// most frequent first, at most max_size tokens (0 = unlimited).
  Vocabulary Build(int64_t min_count = 1, size_t max_size = 0) const;

 private:
  /// Counts `token` for the current document unless already counted.
  void Count(uint64_t hash, std::string_view token);

  Vocabulary seen_;                // every distinct token, first-seen order
  std::vector<int64_t> counts_;    // document frequency per seen_ id
  std::vector<uint64_t> last_doc_; // last document that counted the id
  uint64_t doc_ = 0;               // current document number (from 1)
};

}  // namespace semtag::text

#endif  // SEMTAG_TEXT_VOCABULARY_H_
