#include "text/vocabulary.h"

#include <algorithm>

#include "common/logging.h"
#include "text/ngram.h"

namespace semtag::text {

int32_t Vocabulary::Add(std::string token, int64_t doc_freq) {
  const uint64_t hash = HashToken(token);
  SEMTAG_CHECK(Find(hash, token) == kUnknownTokenId);
  if (2 * (tokens_.size() + 1) > slots_.size()) {
    Rehash(std::max<size_t>(16, 2 * slots_.size()));
  }
  const int32_t id = static_cast<int32_t>(tokens_.size());
  const size_t mask = slots_.size() - 1;
  size_t s = hash & mask;
  while (slots_[s].id != kUnknownTokenId) s = (s + 1) & mask;
  slots_[s] = Slot{hash, id};
  tokens_.push_back(std::move(token));
  doc_freqs_.push_back(doc_freq);
  return id;
}

int32_t Vocabulary::Find(uint64_t hash, std::string_view token) const {
  if (slots_.empty()) return kUnknownTokenId;
  const size_t mask = slots_.size() - 1;
  for (size_t s = hash & mask;; s = (s + 1) & mask) {
    const Slot& slot = slots_[s];
    if (slot.id == kUnknownTokenId) return kUnknownTokenId;
    if (slot.hash == hash && tokens_[slot.id] == token) return slot.id;
  }
}

void Vocabulary::Rehash(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  const size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.id == kUnknownTokenId) continue;
    size_t s = slot.hash & mask;
    while (slots_[s].id != kUnknownTokenId) s = (s + 1) & mask;
    slots_[s] = slot;
  }
}

void VocabularyBuilder::Count(uint64_t hash, std::string_view token) {
  int32_t id = seen_.Find(hash, token);
  if (id == kUnknownTokenId) {
    id = seen_.Add(std::string(token), 0);
    counts_.push_back(0);
    last_doc_.push_back(0);
  }
  if (last_doc_[id] != doc_) {
    last_doc_[id] = doc_;
    ++counts_[id];
  }
}

void VocabularyBuilder::AddDocument(const std::vector<std::string>& tokens) {
  ++doc_;
  for (const std::string& t : tokens) Count(HashToken(t), t);
}

void VocabularyBuilder::AddDocument(const TokenBuffer& tokens, int min_n,
                                    int max_n) {
  ++doc_;
  ForEachNgram(tokens, min_n, max_n,
               [this](uint64_t hash, std::string_view gram) {
                 Count(hash, gram);
               });
}

Vocabulary VocabularyBuilder::Build(int64_t min_count,
                                    size_t max_size) const {
  std::vector<int32_t> ids;
  ids.reserve(counts_.size());
  for (int32_t id = 0; id < seen_.size(); ++id) {
    if (counts_[id] >= min_count) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end(), [this](int32_t a, int32_t b) {
    if (counts_[a] != counts_[b]) return counts_[a] > counts_[b];
    return seen_.TokenOf(a) < seen_.TokenOf(b);  // deterministic tie-break
  });
  if (max_size > 0 && ids.size() > max_size) ids.resize(max_size);
  Vocabulary vocab;
  for (const int32_t id : ids) vocab.Add(seen_.TokenOf(id), counts_[id]);
  return vocab;
}

}  // namespace semtag::text
