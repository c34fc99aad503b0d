#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "text/ngram.h"

namespace semtag::text {
namespace {

// The grams ForEachNgram yields for `text`, checking on the way that each
// hash is the hash of the gram it comes with.
std::vector<std::string> Grams(std::string_view text, int min_n, int max_n) {
  TokenBuffer tokens;
  tokens.Assign(text);
  std::vector<std::string> out;
  ForEachNgram(tokens, min_n, max_n,
               [&](uint64_t hash, std::string_view gram) {
                 EXPECT_EQ(hash, HashToken(gram)) << gram;
                 out.emplace_back(gram);
               });
  return out;
}

TEST(NgramTest, UnigramsOnly) {
  EXPECT_EQ(Grams("a b c", 1, 1),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(NgramTest, UnigramsAndBigrams) {
  EXPECT_EQ(Grams("Try the cakes!", 1, 2),
            (std::vector<std::string>{"try", "the", "cakes", "try_the",
                                      "the_cakes"}));
}

TEST(NgramTest, TrigramsJoinAllWords) {
  EXPECT_EQ(Grams("a b c d", 3, 3),
            (std::vector<std::string>{"a_b_c", "b_c_d"}));
}

TEST(NgramTest, ShortInputYieldsNoHigherGrams) {
  EXPECT_EQ(Grams("solo", 1, 2), (std::vector<std::string>{"solo"}));
  EXPECT_TRUE(Grams("", 1, 2).empty());
}

TEST(NgramTest, CountsMatchFormula) {
  // n tokens yield n unigrams + (n-1) bigrams.
  EXPECT_EQ(Grams("w w w w w w w w w w", 1, 2).size(), 10u + 9u);
}

}  // namespace
}  // namespace semtag::text
