// Heap-allocation counts on the featurization path. This binary replaces
// the global operator new/delete with counting versions, so it is its own
// test executable: after one warm-up pass (scratch buffers grow to the
// longest text), tokenizing into a TokenBuffer, resolving tokens with
// Vocabulary::Lookup(string_view), featurizing into a reused SparseVector,
// and scoring with a linear SVM must not allocate at all — for every
// text up to TokenBuffer::kRetainedTextBytes. A longer text's scratch is
// released again by the next text within that bound.

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/specs.h"
#include "la/sparse.h"
#include "models/simple/linear_svm.h"
#include "text/bow_vectorizer.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace {
std::atomic<long> g_allocations{0};
std::atomic<long> g_frees{0};

void* CountedAlloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void CountedFree(void* p) {
  if (p != nullptr) g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }

namespace semtag::text {
namespace {

data::Dataset Corpus() {
  data::DatasetSpec spec = data::FindSpec("SUGG").ValueOrDie();
  spec.scaled_records = 1000;
  return data::BuildDataset(spec);
}

/// Allocations made by `fn`.
template <typename Fn>
long CountAllocations(Fn&& fn) {
  const long before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// Frees made by `fn`.
template <typename Fn>
long CountFrees(Fn&& fn) {
  const long before = g_frees.load(std::memory_order_relaxed);
  fn();
  return g_frees.load(std::memory_order_relaxed) - before;
}

TEST(AllocationTest, CounterSeesAllocations) {
  std::string s;
  EXPECT_GE(CountAllocations([&] { s.assign(1000, 'x'); }), 1);
  EXPECT_EQ(s.size(), 1000u);
}

TEST(AllocationTest, FeaturizationAllocatesNothingAfterWarmUp) {
  std::vector<std::string> texts = Corpus().Texts();
  // The longest text whose scratch is kept between calls.
  texts.push_back(std::string(TokenBuffer::kRetainedTextBytes - 13, 'x') +
                  " Don't STOP!!");
  ASSERT_EQ(texts.back().size(), TokenBuffer::kRetainedTextBytes);
  BowVectorizer bow;
  bow.Fit(texts);
  const Vocabulary& vocab = bow.vocabulary();

  TokenBuffer tokens;
  la::SparseVector features;
  int64_t hits = 0;
  const auto pass = [&] {
    for (const std::string& text : texts) {
      tokens.Assign(text);
      for (size_t i = 0; i < tokens.size(); ++i) {
        hits += vocab.Lookup(tokens.token(i)) != kUnknownTokenId;
      }
      bow.Transform(text, &features);
      hits += static_cast<int64_t>(features.nnz());
    }
  };
  pass();  // warm-up
  EXPECT_EQ(CountAllocations(pass), 0);
  EXPECT_GT(hits, 0);
}

TEST(AllocationTest, OversizedTextScratchIsReleasedByTheNextText) {
  const std::string normal = "Please add a dark mode, it's too bright!";
  std::string oversized;
  while (oversized.size() <= 4 * TokenBuffer::kRetainedTextBytes) {
    oversized += "Word ";
  }
  TokenBuffer tokens;
  tokens.Assign(normal);
  const size_t normal_tokens = tokens.size();

  EXPECT_GE(CountAllocations([&] { tokens.Assign(oversized); }), 1);
  EXPECT_EQ(tokens.size(), oversized.size() / 5);
  EXPECT_GE(CountFrees([&] { tokens.Assign(normal); }), 1)
      << "the oversized text's scratch must not be kept";
  EXPECT_EQ(tokens.size(), normal_tokens);
  EXPECT_EQ(tokens.gram(0, 2), "please_add");
  EXPECT_EQ(CountAllocations([&] { tokens.Assign(normal); }), 0);
}

TEST(AllocationTest, SvmScoreAllocatesNothingAfterWarmUp) {
  const data::Dataset dataset = Corpus();
  models::LinearSvm svm;
  ASSERT_TRUE(svm.Train(dataset).ok());
  const std::vector<std::string> texts = dataset.Texts();
  double sum = 0.0;
  const auto pass = [&] {
    for (const std::string& text : texts) sum += svm.Score(text);
  };
  pass();  // warm-up
  EXPECT_EQ(CountAllocations(pass), 0);
  EXPECT_NE(sum, 0.0);
}

}  // namespace
}  // namespace semtag::text
