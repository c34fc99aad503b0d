// Bit-identity of the hashed featurization against the string path it
// replaced. The oracle below is that path, frozen: Tokenize into
// std::strings, ExtractNgrams into '_'-joined gram strings, and an
// unordered_map<std::string, int32_t> vocabulary. Every consumer of the
// tokenizer core must agree with it byte for byte: BowVectorizer::Transform
// (the SparseVector entries), SequenceEncoder::Encode (the ids), and
// TrafficStats::Profile (every field), over four generated corpora,
// hostile strings, and vocabularies built to force long probe chains.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "data/specs.h"
#include "la/sparse.h"
#include "serve/traffic_stats.h"
#include "text/bow_vectorizer.h"
#include "text/ngram.h"
#include "text/sequence_encoder.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace semtag::text {
namespace {

// ---------------------------------------------------------------------------
// The oracle: the string-keyed featurization, frozen.
// ---------------------------------------------------------------------------
namespace oracle {

std::vector<std::string> Tokenize(std::string_view textv,
                                  const TokenizerOptions& options = {}) {
  const auto is_word = [](unsigned char c) { return std::isalnum(c) != 0; };
  const auto is_punct = [](unsigned char c) {
    return c == '!' || c == '?' || c == '.' || c == ',' || c == ';' ||
           c == ':';
  };
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&]() {
    if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  };
  for (size_t i = 0; i < textv.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(textv[i]);
    if (is_word(c)) {
      current.push_back(options.lowercase
                            ? static_cast<char>(std::tolower(c))
                            : static_cast<char>(c));
    } else if (c == '\'' && !current.empty() && i + 1 < textv.size() &&
               is_word(static_cast<unsigned char>(textv[i + 1]))) {
      current.push_back('\'');
    } else {
      flush();
      if (options.keep_punctuation && is_punct(c)) {
        tokens.emplace_back(1, static_cast<char>(c));
      }
    }
  }
  flush();
  return tokens;
}

std::vector<std::string> ExtractNgrams(const std::vector<std::string>& tokens,
                                       int min_n, int max_n) {
  std::vector<std::string> out;
  const int count = static_cast<int>(tokens.size());
  for (int n = min_n; n <= max_n; ++n) {
    for (int i = 0; i + n <= count; ++i) {
      std::string gram = tokens[i];
      for (int j = 1; j < n; ++j) {
        gram.push_back('_');
        gram += tokens[i + j];
      }
      out.push_back(std::move(gram));
    }
  }
  return out;
}

uint64_t HashToken(std::string_view token) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : token) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

struct Vocab {
  std::unordered_map<std::string, int32_t> index;
  std::vector<std::string> tokens;
  std::vector<int64_t> doc_freqs;

  int32_t Lookup(std::string_view token) const {
    const auto it = index.find(std::string(token));
    return it == index.end() ? kUnknownTokenId : it->second;
  }
};

Vocab Build(const std::vector<std::vector<std::string>>& docs,
            int64_t min_count, size_t max_size) {
  std::unordered_map<std::string, int64_t> counts;
  for (const auto& doc : docs) {
    std::unordered_set<std::string> seen(doc.begin(), doc.end());
    for (const auto& t : seen) ++counts[t];
  }
  std::vector<std::pair<std::string, int64_t>> items;
  for (const auto& [token, count] : counts) {
    if (count >= min_count) items.emplace_back(token, count);
  }
  std::sort(items.begin(), items.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (max_size > 0 && items.size() > max_size) items.resize(max_size);
  Vocab vocab;
  for (auto& [token, count] : items) {
    vocab.index.emplace(token, static_cast<int32_t>(vocab.tokens.size()));
    vocab.tokens.push_back(token);
    vocab.doc_freqs.push_back(count);
  }
  return vocab;
}

struct Bow {
  BowOptions options;
  Vocab vocab;
  std::vector<float> idf;

  void Fit(const std::vector<std::string>& texts) {
    std::vector<std::vector<std::string>> docs;
    for (const auto& t : texts) {
      docs.push_back(ExtractNgrams(oracle::Tokenize(t, options.tokenizer),
                                   options.min_ngram, options.max_ngram));
    }
    vocab = Build(docs, options.min_doc_freq, options.max_features);
    idf.assign(vocab.tokens.size(), 1.0f);
    if (options.use_idf) {
      const double n = static_cast<double>(texts.size());
      for (size_t id = 0; id < vocab.tokens.size(); ++id) {
        const double df = static_cast<double>(vocab.doc_freqs[id]);
        idf[id] = static_cast<float>(std::log(n / std::max(df, 1.0)) + 1.0);
      }
    }
  }

  la::SparseVector Transform(std::string_view text) const {
    la::SparseVector vec;
    const std::vector<std::string> tokens =
        oracle::Tokenize(text, options.tokenizer);
    for (const auto& g :
         ExtractNgrams(tokens, options.min_ngram, options.max_ngram)) {
      const int32_t id = vocab.Lookup(g);
      if (id != kUnknownTokenId) vec.Push(static_cast<uint32_t>(id), 1.0f);
    }
    vec.SortAndMerge();
    if (options.use_idf) {
      la::SparseVector weighted;
      for (const auto& e : vec.entries()) {
        weighted.Push(e.index, e.value * idf[e.index]);
      }
      vec = std::move(weighted);
    }
    if (options.l2_normalize) vec.L2Normalize();
    return vec;
  }
};

std::vector<int32_t> Encode(const SequenceEncoderOptions& options,
                            const Vocab& vocab, std::string_view text) {
  std::vector<int32_t> ids;
  if (options.add_cls) ids.push_back(kClsId);
  for (const auto& tok : oracle::Tokenize(text, options.tokenizer)) {
    if (static_cast<int>(ids.size()) >= options.max_len) break;
    const int32_t word_id = vocab.Lookup(tok);
    ids.push_back(word_id == kUnknownTokenId ? kUnkId
                                             : kNumSpecialTokens + word_id);
  }
  while (static_cast<int>(ids.size()) < options.max_len) {
    ids.push_back(kPadId);
  }
  return ids;
}

/// TrafficStats' epoch statistics over the string path: the reference is
/// seeded from `reference`, then each chunk of `epochs` is one sealed
/// epoch. Mirrors serve/traffic_stats.cc field for field.
serve::TrafficProfile Profile(
    const std::vector<std::string>& reference,
    const std::vector<std::vector<std::string>>& epochs,
    const std::vector<std::vector<double>>& probs, size_t epoch_window) {
  constexpr size_t kBuckets = 64;
  constexpr size_t kCap = 1 << 16;
  std::unordered_set<uint64_t> ref, seen;
  for (const auto& text : reference) {
    for (const auto& token : oracle::Tokenize(text)) {
      const uint64_t h = HashToken(token);
      if (ref.size() < kCap) ref.insert(h);
      if (seen.size() < kCap) seen.insert(h);
    }
  }
  struct Epoch {
    uint64_t count = 0, positives = 0, bytes = 0, tokens = 0, oov = 0,
             distinct = 0, fresh = 0;
    double entropy = 0.0;
  };
  std::deque<Epoch> sealed;
  uint64_t total = 0;
  for (size_t e = 0; e < epochs.size(); ++e) {
    Epoch epoch;
    std::vector<uint32_t> buckets(kBuckets, 0);
    std::unordered_set<uint64_t> distinct;
    for (size_t r = 0; r < epochs[e].size(); ++r) {
      const std::string& text = epochs[e][r];
      const std::vector<std::string> tokens = oracle::Tokenize(text);
      ++total;
      epoch.count += 1;
      epoch.positives += probs[e][r] >= 0.5 ? 1 : 0;
      epoch.bytes += text.size();
      epoch.tokens += tokens.size();
      for (const auto& token : tokens) {
        const uint64_t h = HashToken(token);
        ++buckets[h % kBuckets];
        if (ref.count(h) == 0) ++epoch.oov;
        if (distinct.insert(h).second) {
          ++epoch.distinct;
          if (seen.count(h) == 0) {
            ++epoch.fresh;
            if (seen.size() < kCap) seen.insert(h);
          }
        }
      }
    }
    if (epoch.tokens > 0) {
      const double n = static_cast<double>(epoch.tokens);
      for (const uint32_t c : buckets) {
        if (c == 0) continue;
        const double p = static_cast<double>(c) / n;
        epoch.entropy -= p * std::log2(p);
      }
    }
    sealed.push_back(epoch);
    if (sealed.size() > epoch_window) sealed.pop_front();
  }
  serve::TrafficProfile profile;
  profile.total = total;
  profile.total_epochs = epochs.size();
  profile.epochs = sealed.size();
  profile.vocab_size = seen.size();
  uint64_t count = 0, positives = 0, bytes = 0, tokens = 0, oov = 0,
           distinct = 0, fresh = 0;
  double entropy_weighted = 0.0;
  for (const Epoch& epoch : sealed) {
    count += epoch.count;
    positives += epoch.positives;
    bytes += epoch.bytes;
    tokens += epoch.tokens;
    oov += epoch.oov;
    distinct += epoch.distinct;
    fresh += epoch.fresh;
    entropy_weighted += epoch.entropy * static_cast<double>(epoch.tokens);
  }
  profile.count = count;
  if (count > 0) {
    profile.positive_ratio = static_cast<double>(positives) / count;
    profile.mean_length = static_cast<double>(bytes) / count;
  }
  profile.oov_rate = static_cast<double>(oov) /
                     static_cast<double>(std::max<uint64_t>(tokens, 1));
  profile.vocab_churn = static_cast<double>(fresh) /
                        static_cast<double>(std::max<uint64_t>(distinct, 1));
  if (tokens > 0) profile.token_entropy = entropy_weighted / tokens;
  profile.dirtiness =
      std::min(1.0, 2.0 * profile.oov_rate + profile.vocab_churn);
  return profile;
}

}  // namespace oracle

// ---------------------------------------------------------------------------
// Comparisons
// ---------------------------------------------------------------------------

bool SameBytes(const la::SparseVector& a, const la::SparseVector& b) {
  return a.nnz() == b.nnz() &&
         (a.nnz() == 0 ||
          std::memcmp(a.entries().data(), b.entries().data(),
                      a.nnz() * sizeof(la::SparseEntry)) == 0);
}

void ExpectSameVocabulary(const Vocabulary& v, const oracle::Vocab& o) {
  ASSERT_EQ(static_cast<size_t>(v.size()), o.tokens.size());
  for (int32_t id = 0; id < v.size(); ++id) {
    ASSERT_EQ(v.TokenOf(id), o.tokens[id]) << "id " << id;
    ASSERT_EQ(v.DocFreqOf(id), o.doc_freqs[id]) << "id " << id;
  }
}

/// Fits both paths on `corpus` and checks every text of `probe`: the
/// tokens and their hashes, each n-gram's hash, the Transform bytes, and
/// the Encode ids.
void ExpectFeaturizationIdentical(const std::vector<std::string>& corpus,
                                  const std::vector<std::string>& probe,
                                  const BowOptions& options) {
  BowVectorizer bow(options);
  bow.Fit(corpus);
  oracle::Bow old;
  old.options = options;
  old.Fit(corpus);
  ExpectSameVocabulary(bow.vocabulary(), old.vocab);

  SequenceEncoderOptions seq_options;
  seq_options.max_len = 20;
  seq_options.tokenizer = options.tokenizer;
  SequenceEncoder seq(seq_options);
  seq.Fit(corpus);
  std::vector<std::vector<std::string>> docs;
  for (const auto& t : corpus) {
    docs.push_back(oracle::Tokenize(t, options.tokenizer));
  }
  const oracle::Vocab old_words = oracle::Build(
      docs, seq_options.min_doc_freq, seq_options.max_words);
  ExpectSameVocabulary(seq.word_vocabulary(), old_words);

  TokenBuffer tokens;
  la::SparseVector reused;
  for (size_t i = 0; i < probe.size(); ++i) {
    const std::string& text = probe[i];
    const std::vector<std::string> want =
        oracle::Tokenize(text, options.tokenizer);
    tokens.Assign(text, options.tokenizer);
    ASSERT_EQ(tokens.size(), want.size()) << "text " << i;
    for (size_t t = 0; t < want.size(); ++t) {
      ASSERT_EQ(tokens.token(t), want[t]) << "text " << i;
      ASSERT_EQ(tokens.hash(t), oracle::HashToken(want[t])) << "text " << i;
    }
    const std::vector<std::string> grams =
        oracle::ExtractNgrams(want, options.min_ngram, options.max_ngram);
    size_t g = 0;
    ForEachNgram(tokens, options.min_ngram, options.max_ngram,
                 [&](uint64_t hash, std::string_view gram) {
                   ASSERT_LT(g, grams.size());
                   EXPECT_EQ(gram, grams[g]);
                   EXPECT_EQ(hash, oracle::HashToken(grams[g]));
                   ++g;
                 });
    EXPECT_EQ(g, grams.size()) << "text " << i;

    const la::SparseVector expected = old.Transform(text);
    EXPECT_TRUE(SameBytes(bow.Transform(text), expected)) << "text " << i;
    bow.Transform(text, &reused);
    EXPECT_TRUE(SameBytes(reused, expected)) << "text " << i;
    EXPECT_EQ(seq.Encode(text), oracle::Encode(seq_options, old_words, text))
        << "text " << i;
  }
}

void ExpectProfilesIdentical(const std::vector<std::string>& reference,
                             const std::vector<std::string>& stream) {
  constexpr size_t kEpochs = 3;
  constexpr size_t kWindow = 2;  // the first epoch slides out
  std::vector<std::vector<std::string>> epochs(kEpochs);
  std::vector<std::vector<double>> probs(kEpochs);
  serve::TrafficStats stats(64, 0, kWindow);
  stats.SeedReferenceFromTexts(reference);
  for (size_t i = 0; i < stream.size(); ++i) {
    const size_t e = i * kEpochs / stream.size();
    const double p = static_cast<double>(i % 7) / 6.0;
    epochs[e].push_back(stream[i]);
    probs[e].push_back(p);
  }
  for (size_t e = 0; e < kEpochs; ++e) {
    for (size_t r = 0; r < epochs[e].size(); ++r) {
      stats.Record(std::string_view(epochs[e][r]), probs[e][r]);
    }
    ASSERT_TRUE(stats.AdvanceEpoch());
  }
  const serve::TrafficProfile got = stats.Profile();
  const serve::TrafficProfile want =
      oracle::Profile(reference, epochs, probs, kWindow);
  EXPECT_EQ(got.total, want.total);
  EXPECT_EQ(got.total_epochs, want.total_epochs);
  EXPECT_EQ(got.epochs, want.epochs);
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.vocab_size, want.vocab_size);
  EXPECT_EQ(got.positive_ratio, want.positive_ratio);
  EXPECT_EQ(got.mean_length, want.mean_length);
  EXPECT_EQ(got.oov_rate, want.oov_rate);
  EXPECT_EQ(got.vocab_churn, want.vocab_churn);
  EXPECT_EQ(got.token_entropy, want.token_entropy);
  EXPECT_EQ(got.dirtiness, want.dirtiness);
}

/// The options the models use, and one that exercises the other
/// tokenizer branches (case kept, punctuation tokens, trigrams, df 1).
std::vector<BowOptions> OptionVariants() {
  BowOptions other;
  other.tokenizer.lowercase = false;
  other.tokenizer.keep_punctuation = true;
  other.max_ngram = 3;
  other.min_doc_freq = 1;
  return {BowOptions{}, other};
}

std::vector<std::string> CorpusTexts(const std::string& name) {
  data::DatasetSpec spec = data::FindSpec(name).ValueOrDie();
  spec.scaled_records = std::min(spec.scaled_records, 1500);
  return data::BuildDataset(spec).Texts();
}

class CorpusIdentityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CorpusIdentityTest, TransformAndEncodeMatchStringPath) {
  const std::vector<std::string> texts = CorpusTexts(GetParam());
  ASSERT_GT(texts.size(), 100u);
  const std::vector<std::string> train(texts.begin(),
                                       texts.begin() + texts.size() / 2);
  for (const BowOptions& options : OptionVariants()) {
    ExpectFeaturizationIdentical(train, texts, options);
  }
}

TEST_P(CorpusIdentityTest, TrafficProfileMatchesStringPath) {
  const std::vector<std::string> texts = CorpusTexts(GetParam());
  const std::vector<std::string> reference(
      texts.begin(), texts.begin() + texts.size() / 2);
  const std::vector<std::string> stream(texts.begin() + texts.size() / 2,
                                        texts.end());
  ExpectProfilesIdentical(reference, stream);
}

INSTANTIATE_TEST_SUITE_P(Corpora, CorpusIdentityTest,
                         ::testing::Values("SUGG", "HETER", "FUNNY",
                                           "AMAZON"));

// ---------------------------------------------------------------------------
// Hostile input
// ---------------------------------------------------------------------------

std::vector<std::string> HostileTexts() {
  std::vector<std::string> texts = {
      "",
      "one",
      "ONE",
      "HeLLo WORLD SHOUTING Mixed CaSe",
      "'leading trailing' 'both' don't it''s rock'n'roll '' ' x'y",
      "a'' b''c ''d e'f'g h'''i",
      "abc123 4567 x1y2z3 007 3.14 1,000 2nd",
      "!!! ??? ... ,,, ;;; ::: !?.,;: wow!!! no?? yes. end;",
      "tabs\tnew\nlines\r\nand   spaces",
      "caf\xc3\xa9 na\xc3\xafve \xe2\x80\x9cquoted\xe2\x80\x9d \xff\xfe\x80 x",
      "_under_scores_ snake_case __init__",
      "hyphen-ated and/slashed, (paren) [brackets] {braces} #tag @user",
  };
  constexpr char kNuls[] = "nul\0byte\0\0inside a\0b";
  texts.push_back(std::string(kNuls, sizeof(kNuls) - 1));
  std::string all_bytes;
  for (int c = 0; c < 256; ++c) {
    all_bytes.push_back(static_cast<char>(c));
    all_bytes.push_back(c % 3 == 0 ? ' ' : static_cast<char>('a' + c % 26));
  }
  texts.push_back(all_bytes);
  std::string big;
  for (size_t i = 0; big.size() < 64 * 1024; ++i) {
    big += texts[i % texts.size()];
    big += i % 5 == 0 ? "!! " : " ";
  }
  big.resize(64 * 1024);
  texts.push_back(big);
  return texts;
}

TEST(HostileIdentityTest, TokenizeMatchesStringPathUnderEveryOption) {
  for (const bool lowercase : {true, false}) {
    for (const bool punct : {true, false}) {
      TokenizerOptions options;
      options.lowercase = lowercase;
      options.keep_punctuation = punct;
      for (const std::string& text : HostileTexts()) {
        EXPECT_EQ(Tokenize(text, options), oracle::Tokenize(text, options))
            << "lowercase=" << lowercase << " punct=" << punct;
      }
    }
  }
}

TEST(HostileIdentityTest, TransformEncodeAndProfileMatchStringPath) {
  std::vector<std::string> corpus = CorpusTexts("SUGG");
  corpus.resize(300);
  const std::vector<std::string> hostile = HostileTexts();
  // Fit over the hostile strings too (twice, to pass min_doc_freq 2), so
  // their odd tokens are in the vocabulary and hit, not just miss.
  std::vector<std::string> fit = corpus;
  fit.insert(fit.end(), hostile.begin(), hostile.end());
  fit.insert(fit.end(), hostile.begin(), hostile.end());
  for (const BowOptions& options : OptionVariants()) {
    ExpectFeaturizationIdentical(fit, hostile, options);
  }
  ExpectProfilesIdentical(corpus, hostile);
  std::vector<std::string> mixed = hostile;
  mixed.insert(mixed.end(), corpus.begin(), corpus.begin() + 50);
  ExpectProfilesIdentical({}, mixed);
}

// ---------------------------------------------------------------------------
// Probe chains
// ---------------------------------------------------------------------------

TEST(VocabularyIndexTest, ProbeChainsResolveExactly) {
  // Group candidate tokens by the low 12 bits of their hash: within a
  // group every token starts probing at the same slot of any table of up
  // to 4096 slots, so the index has to walk (and stop at the end of)
  // long chains.
  std::unordered_map<uint64_t, std::vector<std::string>> by_low_bits;
  for (int i = 0; i < 200000; ++i) {
    const std::string token = "w" + std::to_string(i);
    by_low_bits[HashToken(token) & 0xfff].push_back(token);
  }
  std::vector<std::vector<std::string>> groups;
  for (auto& [low, group] : by_low_bits) {
    if (group.size() >= 40) groups.push_back(std::move(group));
    if (groups.size() == 8) break;
  }
  ASSERT_EQ(groups.size(), 8u);

  // Add 30 of each group (240 tokens, a 512-slot table: chains of 30+),
  // keeping the rest of each group as misses sharing the low bits.
  Vocabulary vocab;
  oracle::Vocab old;
  std::vector<std::string> misses;
  for (const auto& group : groups) {
    for (size_t i = 0; i < group.size(); ++i) {
      if (i < 30) {
        const int32_t id = vocab.Add(group[i], static_cast<int64_t>(i));
        old.index.emplace(group[i], id);
      } else {
        misses.push_back(group[i]);
      }
    }
  }
  for (const auto& [token, id] : old.index) {
    EXPECT_EQ(vocab.Lookup(token), id) << token;
    EXPECT_EQ(vocab.Find(HashToken(token), token), id) << token;
    EXPECT_EQ(vocab.TokenOf(id), token);
  }
  for (const std::string& token : misses) {
    EXPECT_EQ(vocab.Lookup(token), kUnknownTokenId) << token;
  }
  // A hash hit with a different token is a miss: the index compares the
  // stored token, not just the hash.
  const std::string& present = groups[0][0];
  EXPECT_EQ(vocab.Find(HashToken(present), present + "x"), kUnknownTokenId);
  EXPECT_EQ(vocab.Find(HashToken(present), "w"), kUnknownTokenId);
  // Copies keep a working index.
  const Vocabulary copy = vocab;
  for (const auto& [token, id] : old.index) {
    EXPECT_EQ(copy.Lookup(token), id) << token;
  }
}

}  // namespace
}  // namespace semtag::text
