#include "serve/protocol.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/string_util.h"

namespace semtag::serve {
namespace {

void PutU32(uint32_t v, std::string* out) {
  char b[4] = {static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff),
               static_cast<char>((v >> 16) & 0xff),
               static_cast<char>((v >> 24) & 0xff)};
  out->append(b, 4);
}

uint32_t GetU32(const char* p) {
  const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint64_t GetU64(const char* p) {
  const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | u[i];
  return v;
}

}  // namespace

void AppendFrame(uint8_t tag, std::string_view payload, std::string* out) {
  PutU32(static_cast<uint32_t>(payload.size() + 1), out);
  out->push_back(static_cast<char>(tag));
  out->append(payload.data(), payload.size());
}

std::string ScorePayload(uint64_t ticket, std::string_view text) {
  std::string payload;
  payload.reserve(8 + text.size());
  PutU64(ticket, &payload);
  payload.append(text.data(), text.size());
  return payload;
}

bool ParseScorePayload(std::string_view payload, uint64_t* ticket,
                       std::string_view* text) {
  if (payload.size() < 8) return false;
  *ticket = GetU64(payload.data());
  *text = payload.substr(8);
  return true;
}

namespace {

/// "<ticket> <version> <%.17g score>" into `buf`; returns its length.
size_t FormatScoreInto(uint64_t ticket, uint64_t version, double score,
                       char (&buf)[96]) {
  const int n = std::snprintf(buf, sizeof(buf), "%llu %llu %.17g",
                              static_cast<unsigned long long>(ticket),
                              static_cast<unsigned long long>(version),
                              score);
  return static_cast<size_t>(n);
}

}  // namespace

std::string FormatScoreResponse(uint64_t ticket, uint64_t version,
                                double score) {
  char buf[96];
  return std::string(buf, FormatScoreInto(ticket, version, score, buf));
}

void AppendScoreFrame(uint64_t ticket, uint64_t version, double score,
                      std::string* out) {
  char buf[96];
  AppendFrame(static_cast<uint8_t>(StatusCode::kOk),
              std::string_view(buf, FormatScoreInto(ticket, version, score,
                                                    buf)),
              out);
}

bool ParseScoreResponse(std::string_view payload, uint64_t* ticket,
                        uint64_t* version, double* score) {
  const std::vector<std::string> parts = Split(payload, ' ');
  if (parts.size() != 3) return false;
  int64_t t = 0, v = 0;
  if (!ParseInt64(parts[0], &t) || !ParseInt64(parts[1], &v) || t < 0 ||
      v < 0) {
    return false;
  }
  // Not ParseDouble: that helper rejects ERANGE, but strtod flags ERANGE
  // for subnormal underflow too, and a model score may legitimately be
  // subnormal — the bit-identity contract covers every finite double.
  if (parts[2].empty() || parts[2].size() >= 64) return false;
  char* end = nullptr;
  const double s = std::strtod(parts[2].c_str(), &end);
  if (end != parts[2].c_str() + parts[2].size() || !std::isfinite(s)) {
    return false;
  }
  *ticket = static_cast<uint64_t>(t);
  *version = static_cast<uint64_t>(v);
  *score = s;
  return true;
}

bool FrameReader::Feed(const char* data, size_t size) {
  if (violated_) return false;
  // Compact lazily: drop consumed bytes once they dominate the buffer so
  // a long-lived connection doesn't grow without bound.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
  // Validate the next pending length eagerly so a violating frame is
  // detected at header time, before any payload buffering.
  if (buffer_.size() - consumed_ >= kHeaderBytes) {
    const uint32_t len = GetU32(buffer_.data() + consumed_);
    if (len == 0 || len > kMaxFrameBytes) {
      violated_ = true;
      return false;
    }
  }
  return true;
}

bool FrameReader::Next(uint8_t* tag, std::string* payload) {
  std::string_view view;
  if (!Next(tag, &view)) return false;
  payload->assign(view.data(), view.size());
  return true;
}

bool FrameReader::Next(uint8_t* tag, std::string_view* payload) {
  if (violated_) return false;
  const size_t avail = buffer_.size() - consumed_;
  if (avail < kHeaderBytes) return false;
  const uint32_t len = GetU32(buffer_.data() + consumed_);
  if (len == 0 || len > kMaxFrameBytes) {
    violated_ = true;
    return false;
  }
  if (avail < kHeaderBytes + len) return false;
  *tag = static_cast<uint8_t>(buffer_[consumed_ + kHeaderBytes]);
  *payload = std::string_view(buffer_).substr(consumed_ + kHeaderBytes + 1,
                                             len - 1);
  consumed_ += kHeaderBytes + len;
  return true;
}

}  // namespace semtag::serve
