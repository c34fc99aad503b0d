#include "text/tokenizer.h"

#include <array>

namespace semtag::text {

namespace {

// Byte classes. Word characters are exactly std::isalnum's in the "C"
// locale (the library never calls setlocale): ASCII digits and letters;
// bytes >= 0x80 are separators.
enum : uint8_t { kSeparator = 0, kWord = 1, kPunct = 2 };

constexpr std::array<uint8_t, 256> MakeClasses() {
  std::array<uint8_t, 256> classes{};
  for (int c = '0'; c <= '9'; ++c) classes[c] = kWord;
  for (int c = 'A'; c <= 'Z'; ++c) classes[c] = kWord;
  for (int c = 'a'; c <= 'z'; ++c) classes[c] = kWord;
  for (const char c : {'!', '?', '.', ',', ';', ':'}) {
    classes[static_cast<unsigned char>(c)] = kPunct;
  }
  return classes;
}

constexpr std::array<char, 256> MakeLower() {
  std::array<char, 256> lower{};
  for (int c = 0; c < 256; ++c) {
    lower[c] = static_cast<char>(c >= 'A' && c <= 'Z' ? c + ('a' - 'A') : c);
  }
  return lower;
}

constexpr std::array<uint8_t, 256> kClasses = MakeClasses();
constexpr std::array<char, 256> kLower = MakeLower();

bool IsWord(char c) {
  return kClasses[static_cast<unsigned char>(c)] == kWord;
}

}  // namespace

void TokenBuffer::Assign(std::string_view text,
                         const TokenizerOptions& options) {
  if (joined_.size() > 2 * kRetainedTextBytes &&
      text.size() <= kRetainedTextBytes) {
    std::string().swap(joined_);
    std::vector<size_t>().swap(starts_);
    std::vector<uint64_t>().swap(hashes_);
  }
  starts_.clear();
  hashes_.clear();
  // Every output byte is an input byte or a separator between two tokens,
  // so twice the text bounds the joined length.
  if (joined_.size() < 2 * text.size()) joined_.resize(2 * text.size());
  char* const out = joined_.data();
  size_t len = 0;
  const size_t n = text.size();
  size_t i = 0;
  while (i < n) {
    const char first = text[i];
    const uint8_t cls = kClasses[static_cast<unsigned char>(first)];
    if (cls == kSeparator ||
        (cls == kPunct && !options.keep_punctuation)) {
      ++i;
      continue;
    }
    if (!hashes_.empty()) out[len++] = '_';
    starts_.push_back(len);
    uint64_t h = kFnvOffsetBasis;
    if (cls == kPunct) {
      // A punctuation mark is a one-character token of its own.
      out[len++] = first;
      h = (h ^ static_cast<unsigned char>(first)) * kFnvPrime;
      hashes_.push_back(h);
      ++i;
      continue;
    }
    // A word: alphanumerics, plus an apostrophe between two of them.
    for (;;) {
      const char c = options.lowercase
                         ? kLower[static_cast<unsigned char>(text[i])]
                         : text[i];
      out[len++] = c;
      h = (h ^ static_cast<unsigned char>(c)) * kFnvPrime;
      ++i;
      if (i < n && IsWord(text[i])) continue;
      if (i + 1 < n && text[i] == '\'' && IsWord(text[i + 1])) {
        out[len++] = '\'';
        h = (h ^ static_cast<unsigned char>('\'')) * kFnvPrime;
        ++i;
        continue;
      }
      break;
    }
    hashes_.push_back(h);
  }
  starts_.push_back(len + 1);
}

std::vector<std::string> Tokenize(std::string_view text,
                                  const TokenizerOptions& options) {
  TokenBuffer buffer;
  buffer.Assign(text, options);
  std::vector<std::string> tokens;
  tokens.reserve(buffer.size());
  for (size_t i = 0; i < buffer.size(); ++i) {
    tokens.emplace_back(buffer.token(i));
  }
  return tokens;
}

}  // namespace semtag::text
