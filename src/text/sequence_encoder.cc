#include "text/sequence_encoder.h"

namespace semtag::text {

void SequenceEncoder::Fit(const std::vector<std::string>& texts) {
  VocabularyBuilder builder;
  TokenBuffer tokens;
  for (const auto& t : texts) {
    tokens.Assign(t, options_.tokenizer);
    builder.AddDocument(tokens, 1, 1);
  }
  vocab_ = builder.Build(options_.min_doc_freq, options_.max_words);
}

std::vector<int32_t> SequenceEncoder::Encode(std::string_view text) const {
  thread_local TokenBuffer tokens;
  tokens.Assign(text, options_.tokenizer);
  std::vector<int32_t> ids;
  ids.reserve(static_cast<size_t>(options_.max_len));
  if (options_.add_cls) ids.push_back(kClsId);
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (static_cast<int>(ids.size()) >= options_.max_len) break;
    const int32_t word_id = vocab_.Find(tokens.hash(i), tokens.token(i));
    ids.push_back(word_id == kUnknownTokenId
                      ? kUnkId
                      : kNumSpecialTokens + word_id);
  }
  while (static_cast<int>(ids.size()) < options_.max_len) {
    ids.push_back(kPadId);
  }
  return ids;
}

}  // namespace semtag::text
