#ifndef SEMTAG_TEXT_TOKENIZER_H_
#define SEMTAG_TEXT_TOKENIZER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace semtag::text {

/// Options for Tokenize.
struct TokenizerOptions {
  /// Lowercase ASCII letters before emitting tokens.
  bool lowercase = true;
  /// Emit punctuation marks ('!', '?', ...) as single-character tokens;
  /// useful for humor/suggestion detection where "!!!!" carries signal.
  bool keep_punctuation = false;
};

/// 64-bit FNV-1a: the one token hash of the text layer. The vocabulary
/// index (text/vocabulary.h) and the serving traffic profiler
/// (serve/traffic_stats.h) both key on it.
inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
inline constexpr uint64_t kFnvPrime = 1099511628211ULL;

/// Continues an FNV-1a state over `bytes`. FNV-1a is a left fold over the
/// bytes, so FnvExtend(HashToken(a), b) == HashToken(a + b): that is what
/// lets an n-gram's hash continue its first token's hash instead of
/// hashing a joined string.
inline uint64_t FnvExtend(uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

inline uint64_t HashToken(std::string_view token) {
  return FnvExtend(kFnvOffsetBasis, token);
}

/// Reusable tokenization scratch: the one tokenizer core every consumer
/// (BoW featurization, sequence encoding, the traffic profiler) runs.
///
/// Assign() splits a text into word tokens — a token is a maximal run of
/// alphanumeric ASCII characters, plus apostrophes inside words so
/// "don't" stays one token; everything else is a separator — and stores
/// them, lowercased per the options, joined by '_' in one buffer, each
/// with its HashToken(). Tokens never contain '_', so the tokens [i, i+n)
/// are themselves a contiguous view: the '_'-joined n-gram, with no string
/// built. Once the buffers have grown to the longest text seen, Assign()
/// allocates nothing.
///
/// Retained memory: the buffers keep their size between calls only while
/// it fits a text of kRetainedTextBytes (about 160 KiB at most, '_'-joined
/// bytes plus 16 B per token). A longer text — a serving frame may be up
/// to 1 MiB — grows them for that call, and the next text within the
/// bound releases them, so an oversized request does not pin its scratch
/// to a thread for the life of the process.
class TokenBuffer {
 public:
  static constexpr size_t kRetainedTextBytes = 16 * 1024;

  void Assign(std::string_view text, const TokenizerOptions& options = {});

  size_t size() const { return hashes_.size(); }

  std::string_view token(size_t i) const { return gram(i, 1); }
  uint64_t hash(size_t i) const { return hashes_[i]; }

  /// Tokens [i, i+n) joined with '_'. Valid until the next Assign().
  std::string_view gram(size_t i, size_t n) const {
    return std::string_view(joined_.data() + starts_[i],
                            starts_[i + n] - 1 - starts_[i]);
  }

  /// HashToken(gram(i, n)), continuing token i's hash over the rest.
  uint64_t gram_hash(size_t i, size_t n) const {
    if (n == 1) return hashes_[i];
    const size_t end = starts_[i + 1] - 1;
    return FnvExtend(hashes_[i],
                     std::string_view(joined_.data() + end,
                                      starts_[i + n] - 1 - end));
  }

 private:
  std::string joined_;          // tokens separated by '_'
  std::vector<size_t> starts_;  // token i begins at starts_[i]; plus a
                                // sentinel at joined length + 1
  std::vector<uint64_t> hashes_;
};

/// The tokens of `text` as strings: a thin wrapper over TokenBuffer for
/// cold callers (corpus analysis, vocabulary building in tools).
std::vector<std::string> Tokenize(std::string_view text,
                                  const TokenizerOptions& options = {});

}  // namespace semtag::text

#endif  // SEMTAG_TEXT_TOKENIZER_H_
