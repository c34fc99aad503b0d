// Serving stack (src/serve/): wire protocol framing, the CRC-sealed model
// registry with hot-swap, the dynamic-batching scheduler's edge cases
// (ISSUE 9 satellite: empty-queue deadline, cap=1 bit-identity, partial
// flush on shutdown, admission rejection, swap-mid-stream consistency),
// traffic stats, and an end-to-end socket test pinning responses
// bit-identical to offline Score().

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/csv.h"
#include "common/fault.h"
#include "common/file_io.h"
#include "common/string_util.h"
#include "data/dataset.h"
#include "data/specs.h"
#include "models/factory.h"
#include "models/simple/linear_svm.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/traffic_stats.h"

namespace semtag::serve {
namespace {

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST(ProtocolTest, FrameRoundTripByteAtATime) {
  std::string wire;
  AppendFrame(0x01, "hello", &wire);
  AppendFrame(0x02, "", &wire);
  AppendFrame(0x03, std::string(1000, 'x'), &wire);

  FrameReader reader;
  std::vector<std::pair<uint8_t, std::string>> frames;
  for (const char c : wire) {
    ASSERT_TRUE(reader.Feed(&c, 1));
    uint8_t tag = 0;
    std::string payload;
    while (reader.Next(&tag, &payload)) frames.emplace_back(tag, payload);
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], (std::pair<uint8_t, std::string>{0x01, "hello"}));
  EXPECT_EQ(frames[1].first, 0x02);
  EXPECT_TRUE(frames[1].second.empty());
  EXPECT_EQ(frames[2].second.size(), 1000u);
  EXPECT_FALSE(reader.violated());
}

TEST(ProtocolTest, ZeroLengthFrameIsViolation) {
  // A length prefix of 0 cannot carry the mandatory tag byte.
  const char wire[4] = {0, 0, 0, 0};
  FrameReader reader;
  EXPECT_FALSE(reader.Feed(wire, sizeof(wire)));
  EXPECT_TRUE(reader.violated());
}

TEST(ProtocolTest, OversizedFrameIsViolation) {
  // "GET " little-endian is ~0x20544547 bytes — far over kMaxFrameBytes.
  const char wire[] = "GET / HTTP/1.1\r\n";
  FrameReader reader;
  EXPECT_FALSE(reader.Feed(wire, sizeof(wire) - 1));
  EXPECT_TRUE(reader.violated());
  // The reader stays violated: later feeds never yield frames.
  std::string good;
  AppendFrame(0x01, "x", &good);
  EXPECT_FALSE(reader.Feed(good.data(), good.size()));
}

TEST(ProtocolTest, ScorePayloadRoundTrip) {
  const std::string payload = ScorePayload(0x0123456789abcdefULL, "text");
  uint64_t ticket = 0;
  std::string_view text;
  ASSERT_TRUE(ParseScorePayload(payload, &ticket, &text));
  EXPECT_EQ(ticket, 0x0123456789abcdefULL);
  EXPECT_EQ(text, "text");

  EXPECT_FALSE(ParseScorePayload("short", &ticket, &text));
}

TEST(ProtocolTest, ScoreResponseRoundTripsDoubleBits) {
  // %.17g must round-trip arbitrary doubles exactly (the bit-identity
  // contract of the wire format).
  const double values[] = {1.0 / 3.0, -0.0, 1e-300, -123456.789012345678,
                           5.0e-324};
  for (const double v : values) {
    uint64_t ticket = 0;
    uint64_t version = 0;
    double parsed = 0.0;
    ASSERT_TRUE(ParseScoreResponse(FormatScoreResponse(7, 3, v), &ticket,
                                   &version, &parsed));
    EXPECT_EQ(ticket, 7u);
    EXPECT_EQ(version, 3u);
    EXPECT_EQ(std::memcmp(&parsed, &v, sizeof(double)), 0)
        << "value " << v << " did not round-trip bit-identically";
  }
}

// ---------------------------------------------------------------------------
// Model registry
// ---------------------------------------------------------------------------

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(ModelSpecTest, WriteLoadRoundTrip) {
  ModelSpec spec;
  spec.model = "CASCADE";
  spec.dataset = "HETER";
  spec.records = 220;
  spec.seed = 7;
  spec.cascade = "SVM+CNN";
  spec.budget_pts = 1.25;
  const std::string path = TempPath("spec_roundtrip.spec");
  ASSERT_TRUE(WriteModelSpecFile(path, spec).ok());

  auto loaded = LoadModelSpecFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->model, "CASCADE");
  EXPECT_EQ(loaded->dataset, "HETER");
  EXPECT_EQ(loaded->records, 220);
  EXPECT_EQ(loaded->seed, 7u);
  EXPECT_EQ(loaded->cascade, "SVM+CNN");
  EXPECT_DOUBLE_EQ(loaded->budget_pts, 1.25);
}

TEST(ModelSpecTest, CorruptSpecIsQuarantined) {
  ModelSpec spec;
  spec.model = "SVM";
  spec.dataset = "HETER";
  const std::string path = TempPath("spec_corrupt.spec");
  ASSERT_TRUE(WriteModelSpecFile(path, spec).ok());
  // Flip a content byte under the seal.
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  std::string bytes = *content;
  bytes[bytes.find("HETER")] = 'X';
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());

  EXPECT_FALSE(LoadModelSpecFile(path).ok());
  // Quarantine moved the poisoned file aside.
  EXPECT_FALSE(ReadFileToString(path).ok());
}

TEST(ModelSpecTest, SemanticErrorDoesNotQuarantine) {
  // A well-formed, correctly-sealed spec with a semantic problem (both
  // dataset and file) is rejected but NOT quarantined: the file is exactly
  // what its writer intended, not corrupt.
  std::string body =
      "semtag-model-spec-v1\nmodel SVM\ndataset HETER\nfile /tmp/x\n";
  body += StrFormat("crc %08x\n", Crc32(body));
  const std::string path = TempPath("spec_semantic.spec");
  ASSERT_TRUE(WriteFileAtomic(path, body).ok());

  EXPECT_FALSE(LoadModelSpecFile(path).ok());
  EXPECT_TRUE(ReadFileToString(path).ok()) << "file must not be quarantined";
}

data::Dataset TinyDataset(uint64_t seed = 5) {
  data::DatasetSpec spec = data::FindSpec("HETER").ValueOrDie();
  spec.scaled_records = 220;
  spec.generator.seed = seed;
  return data::BuildDataset(spec);
}

std::unique_ptr<models::TaggingModel> TrainedSvm(
    const data::Dataset& dataset) {
  auto model = models::CreateModelSeeded(models::ModelKind::kSvm, 1);
  EXPECT_TRUE(model->Train(dataset).ok());
  return model;
}

TEST(ModelRegistryTest, InstallAcquireAndSwapBumpVersion) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  EXPECT_EQ(registry.version(), 0u);
  EXPECT_EQ(registry.Acquire(), nullptr);

  EXPECT_EQ(registry.Install(TrainedSvm(dataset), "svm-a"), 1u);
  EXPECT_EQ(registry.version(), 1u);
  const auto first = registry.Acquire();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->version, 1u);

  EXPECT_EQ(registry.Install(TrainedSvm(dataset), "svm-b"), 2u);
  EXPECT_EQ(registry.version(), 2u);
  // The old snapshot stays valid for in-flight batches.
  EXPECT_EQ(first->version, 1u);
  EXPECT_NE(first->model, nullptr);
}

TEST(ModelRegistryTest, SwapFromCheckpointSpecFile) {
  const data::Dataset dataset = TinyDataset();
  auto svm = TrainedSvm(dataset);
  const std::string checkpoint = TempPath("svm_checkpoint.bin");
  ASSERT_TRUE(
      static_cast<models::LinearSvm*>(svm.get())->Save(checkpoint).ok());

  ModelSpec spec;
  spec.model = "SVM";
  spec.file = checkpoint;
  const std::string path = TempPath("svm_swap.spec");
  ASSERT_TRUE(WriteModelSpecFile(path, spec).ok());

  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "initial");
  auto version = registry.SwapFromSpecFile(path);
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_EQ(*version, 2u);
  const auto servable = registry.Acquire();
  const std::string text = dataset[0].text;
  EXPECT_EQ(servable->model->Score(text), svm->Score(text));
}

// ---------------------------------------------------------------------------
// Swap failure paths under fault injection (common/fault.h)
// ---------------------------------------------------------------------------

/// Clears armed faults on scope exit, whatever the test asserted.
struct ScopedFaults {
  explicit ScopedFaults(const std::string& spec) {
    EXPECT_TRUE(SetFaultsFromSpec(spec).ok());
  }
  ~ScopedFaults() { ClearFaults(); }
};

TEST(SwapFaultTest, WriteFailSurfacesIoErrorAndLeavesNoSpecBehind) {
  ModelSpec spec;
  spec.model = "SVM";
  spec.dataset = "HETER";
  spec.records = 220;
  const std::string path = TempPath("fault_write.spec");
  // A prior run's success-path spec (written after the fault cleared)
  // must not masquerade as a partial write.
  std::remove(path.c_str());
  {
    ScopedFaults faults("write_fail:match=fault_write.spec");
    const Status st = WriteModelSpecFile(path, spec);
    EXPECT_FALSE(st.ok());
    EXPECT_GE(FaultTriggerCount(FaultPoint::kWriteFail), 1);
  }
  // The atomic-write protocol failed before the rename: no partial spec
  // file exists for a swapper to trip over.
  EXPECT_FALSE(ReadFileToString(path).ok());

  // With the fault cleared the identical call succeeds: nothing about the
  // failure was sticky.
  ASSERT_TRUE(WriteModelSpecFile(path, spec).ok());
  EXPECT_TRUE(LoadModelSpecFile(path).ok());
}

TEST(SwapFaultTest, ReadCorruptSwapKeepsOldModelAndQuarantines) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "initial");
  const auto before = registry.Acquire();
  const std::string text = dataset[0].text;
  const double before_score = before->model->Score(text);

  ModelSpec spec;
  spec.model = "SVM";
  spec.dataset = "HETER";
  spec.records = 220;
  const std::string path = TempPath("fault_read.spec");
  ASSERT_TRUE(WriteModelSpecFile(path, spec).ok());

  {
    // Flip a byte in the freshly read spec content: the CRC seal must
    // catch it, the swap must fail, and the old model must keep serving.
    ScopedFaults faults("read_corrupt:match=fault_read.spec");
    const auto swapped = registry.SwapFromSpecFile(path);
    EXPECT_FALSE(swapped.ok());
    EXPECT_GE(FaultTriggerCount(FaultPoint::kReadCorrupt), 1);
  }
  EXPECT_EQ(registry.version(), 1u) << "failed swap must not bump version";
  const auto after = registry.Acquire();
  EXPECT_EQ(after->model->Score(text), before_score)
      << "old model must keep serving bit-identically";

  // The poisoned file was quarantined aside, not left as a retry trap.
  EXPECT_FALSE(ReadFileToString(path).ok());
  EXPECT_TRUE(ReadFileToString(path + ".corrupt").ok())
      << "quarantine must preserve the evidence";

  // A clean rewrite swaps fine afterwards.
  ASSERT_TRUE(WriteModelSpecFile(path, spec).ok());
  const auto retried = registry.SwapFromSpecFile(path);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(*retried, 2u);
}

// ---------------------------------------------------------------------------
// Traffic stats
// ---------------------------------------------------------------------------

TEST(TrafficStatsTest, SlidingWindowEvicts) {
  TrafficStats stats(/*window=*/4);
  // 6 records: the first two (length 100, positive) slide out.
  stats.Record(100, 0.9);
  stats.Record(100, 0.9);
  for (int i = 0; i < 4; ++i) stats.Record(10, 0.1);

  const TrafficSnapshot snapshot = stats.Snapshot();
  EXPECT_EQ(snapshot.total, 6u);
  EXPECT_EQ(snapshot.window, 4u);
  EXPECT_DOUBLE_EQ(snapshot.positive_ratio, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.mean_length, 10.0);
}

TEST(TrafficStatsTest, PartialWindowAverages) {
  TrafficStats stats(/*window=*/100);
  stats.Record(10, 0.8);
  stats.Record(30, 0.2);
  const TrafficSnapshot snapshot = stats.Snapshot();
  EXPECT_EQ(snapshot.total, 2u);
  EXPECT_EQ(snapshot.window, 2u);
  EXPECT_DOUBLE_EQ(snapshot.positive_ratio, 0.5);
  EXPECT_DOUBLE_EQ(snapshot.mean_length, 20.0);
}

// ---------------------------------------------------------------------------
// Batcher edge cases
// ---------------------------------------------------------------------------

struct CollectedScores {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<ScoredRequest> results;

  ScoreCallback Collector() {
    return [this](const ScoredRequest& r) {
      std::lock_guard<std::mutex> lock(mu);
      results.push_back(r);
      cv.notify_all();
    };
  }
  bool WaitForCount(size_t n, int timeout_ms = 10000) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                       [&] { return results.size() >= n; });
  }
};

TEST(BatcherTest, EmptyQueueDeadlineIsANonEvent) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "svm");
  BatchingOptions options;
  options.deadline_us = 100;  // would fire constantly if armed while idle
  Batcher batcher(&registry, nullptr, options);
  batcher.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(batcher.BatchCount(), 0u);
  EXPECT_EQ(batcher.QueueDepth(), 0u);
  batcher.Stop();
}

TEST(BatcherTest, CapOneIsBitIdenticalToScore) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "svm");
  const auto servable = registry.Acquire();

  BatchingOptions options;
  options.batch_cap = 1;
  Batcher batcher(&registry, nullptr, options);
  batcher.Start();
  CollectedScores collected;
  const int n = 16;
  std::vector<std::string> texts;
  for (int i = 0; i < n; ++i) texts.push_back(dataset[i].text);
  for (const std::string& text : texts) {
    ASSERT_TRUE(batcher.Submit(text, collected.Collector()));
  }
  ASSERT_TRUE(collected.WaitForCount(n));
  batcher.Stop();

  // cap=1 batches are singletons: each response must carry exactly
  // Score(text) — the offline answer — bit for bit. Responses may complete
  // in order here (single submitter), so index-match.
  for (int i = 0; i < n; ++i) {
    const double offline = servable->model->Score(texts[i]);
    EXPECT_EQ(collected.results[i].score, offline) << "text " << i;
  }
}

TEST(BatcherTest, StopFlushesPartialBatch) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "svm");
  BatchingOptions options;
  options.batch_cap = 32;
  options.deadline_us = 10 * 1000 * 1000;  // would wait 10s for a full batch
  Batcher batcher(&registry, nullptr, options);
  batcher.Start();
  CollectedScores collected;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(batcher.Submit(dataset[i].text, collected.Collector()));
  }
  // Stop must flush the 3-request partial batch immediately, not wait out
  // the deadline: Stop() returning implies the callbacks ran.
  batcher.Stop();
  EXPECT_EQ(collected.results.size(), 3u);
  EXPECT_GE(batcher.BatchCount(), 1u);
}

TEST(BatcherTest, AdmissionControlShedsWhenFull) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "svm");
  BatchingOptions options;
  options.queue_cap = 2;
  options.batch_cap = 32;
  options.deadline_us = 10 * 1000 * 1000;
  Batcher batcher(&registry, nullptr, options);
  // Not started: nothing drains the queue, so the bound is exact.
  CollectedScores collected;
  EXPECT_TRUE(batcher.Submit(dataset[0].text, collected.Collector()));
  EXPECT_TRUE(batcher.Submit(dataset[1].text, collected.Collector()));
  EXPECT_FALSE(batcher.Submit(dataset[2].text, collected.Collector()));
  EXPECT_EQ(batcher.ShedCount(), 1u);
  // Draining answers the two admitted requests (never the shed one).
  batcher.Start();
  batcher.Stop();
  EXPECT_EQ(collected.results.size(), 2u);
}

TEST(BatcherTest, HotSwapMidStreamIsPerBatchConsistent) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  auto svm_a = TrainedSvm(dataset);
  auto lr = models::CreateModelSeeded(models::ModelKind::kLr, 1);
  ASSERT_TRUE(lr->Train(dataset).ok());
  const models::TaggingModel* model_v1 = svm_a.get();
  const models::TaggingModel* model_v2 = lr.get();
  // Keep scoring copies alive; the registry owns its own instances.
  auto svm_for_registry = TrainedSvm(dataset);
  registry.Install(std::move(svm_for_registry), "svm");

  BatchingOptions options;
  options.batch_cap = 4;
  options.deadline_us = 500;
  Batcher batcher(&registry, nullptr, options);
  batcher.Start();

  CollectedScores collected;
  std::vector<std::string> texts;
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    texts.push_back(dataset[i % dataset.size()].text);
  }
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(batcher.Submit(texts[i], collected.Collector()));
    if (i == n / 2) {
      auto replacement =
          models::CreateModelSeeded(models::ModelKind::kLr, 1);
      ASSERT_TRUE(replacement->Train(dataset).ok());
      registry.Install(std::move(replacement), "lr");
    }
  }
  ASSERT_TRUE(collected.WaitForCount(n));
  batcher.Stop();

  // Every response must be self-consistent: the score it carries is the
  // one the model version it names produces. A batch split across the
  // swap would break this.
  int v1 = 0;
  int v2 = 0;
  for (int i = 0; i < n; ++i) {
    const ScoredRequest& r = collected.results[i];
    if (r.model_version == 1) {
      EXPECT_EQ(r.score, model_v1->Score(texts[i])) << "request " << i;
      ++v1;
    } else {
      ASSERT_EQ(r.model_version, 2u);
      EXPECT_EQ(r.score, model_v2->Score(texts[i])) << "request " << i;
      ++v2;
    }
  }
  EXPECT_GT(v1, 0) << "swap landed before any v1 batch scored";
  EXPECT_GT(v2, 0) << "swap never became visible";
}

// ---------------------------------------------------------------------------
// End-to-end over a real socket
// ---------------------------------------------------------------------------

class TestClient {
 public:
  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    (void)::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) (void)::close(fd_);
  }

  bool Send(uint8_t tag, std::string_view payload) {
    std::string frame;
    AppendFrame(tag, payload, &frame);
    size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n =
          ::write(fd_, frame.data() + off, frame.size() - off);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Blocking read of the next frame (10s timeout).
  bool ReadFrame(uint8_t* tag, std::string* payload) {
    for (int spins = 0; spins < 1000; ++spins) {
      if (reader_.Next(tag, payload)) return true;
      struct pollfd pfd;
      pfd.fd = fd_;
      pfd.events = POLLIN;
      pfd.revents = 0;
      if (::poll(&pfd, 1, 10) <= 0) continue;
      char buf[4096];
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) return false;
      if (!reader_.Feed(buf, static_cast<size_t>(n))) return false;
    }
    return false;
  }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

TEST(ServerTest, EndToEndScoresBitIdenticalToOffline) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "svm");
  const auto servable = registry.Acquire();

  ServerOptions options;
  options.batching.batch_cap = 1;  // singleton batches == offline Score
  Server server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Ping.
  ASSERT_TRUE(client.Send(static_cast<uint8_t>(Opcode::kPing), ""));
  uint8_t tag = 0;
  std::string payload;
  ASSERT_TRUE(client.ReadFrame(&tag, &payload));
  EXPECT_EQ(tag, static_cast<uint8_t>(StatusCode::kOk));
  EXPECT_EQ(payload, "pong");

  // Pipelined scores: responses may arrive out of order; correlate by
  // ticket and pin every score to the offline answer bit for bit.
  const int n = 24;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(client.Send(static_cast<uint8_t>(Opcode::kScore),
                            ScorePayload(100 + i, dataset[i].text)));
  }
  int got = 0;
  while (got < n) {
    ASSERT_TRUE(client.ReadFrame(&tag, &payload)) << "after " << got;
    ASSERT_EQ(tag, static_cast<uint8_t>(StatusCode::kOk));
    uint64_t ticket = 0;
    uint64_t version = 0;
    double score = 0.0;
    ASSERT_TRUE(ParseScoreResponse(payload, &ticket, &version, &score));
    ASSERT_GE(ticket, 100u);
    ASSERT_LT(ticket, 100u + n);
    EXPECT_EQ(version, 1u);
    const std::string& text = dataset[ticket - 100].text;
    EXPECT_EQ(score, servable->model->Score(text))
        << "ticket " << ticket << " not bit-identical to offline";
    ++got;
  }

  // Stats op mentions the live model version.
  ASSERT_TRUE(client.Send(static_cast<uint8_t>(Opcode::kStats), ""));
  ASSERT_TRUE(client.ReadFrame(&tag, &payload));
  EXPECT_EQ(tag, static_cast<uint8_t>(StatusCode::kOk));
  EXPECT_NE(payload.find("\"version\": 1"), std::string::npos) << payload;

  server.Stop();
  EXPECT_FALSE(server.running());
  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.requests, static_cast<uint64_t>(n));
  EXPECT_EQ(counters.protocol_errors, 0u);
  EXPECT_EQ(counters.shed, 0u);
}

TEST(ServerTest, HotSwapOverTheWire) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "svm");

  // Replacement: an SVM checkpoint behind a sealed spec file.
  auto replacement = TrainedSvm(dataset);
  const std::string checkpoint = TempPath("e2e_swap_checkpoint.bin");
  ASSERT_TRUE(static_cast<models::LinearSvm*>(replacement.get())
                  ->Save(checkpoint)
                  .ok());
  ModelSpec spec;
  spec.model = "SVM";
  spec.file = checkpoint;
  const std::string spec_path = TempPath("e2e_swap.spec");
  ASSERT_TRUE(WriteModelSpecFile(spec_path, spec).ok());

  Server server(&registry, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  ASSERT_TRUE(client.Send(static_cast<uint8_t>(Opcode::kSwap), spec_path));
  uint8_t tag = 0;
  std::string payload;
  ASSERT_TRUE(client.ReadFrame(&tag, &payload));
  EXPECT_EQ(tag, static_cast<uint8_t>(StatusCode::kOk));
  EXPECT_EQ(payload, "v2");

  // Requests scored after the swap response carry the new version.
  ASSERT_TRUE(client.Send(static_cast<uint8_t>(Opcode::kScore),
                          ScorePayload(1, dataset[0].text)));
  ASSERT_TRUE(client.ReadFrame(&tag, &payload));
  ASSERT_EQ(tag, static_cast<uint8_t>(StatusCode::kOk));
  uint64_t ticket = 0;
  uint64_t version = 0;
  double score = 0.0;
  ASSERT_TRUE(ParseScoreResponse(payload, &ticket, &version, &score));
  EXPECT_EQ(version, 2u);

  // A bad path reports kError (and never kills the daemon).
  ASSERT_TRUE(client.Send(static_cast<uint8_t>(Opcode::kSwap),
                          TempPath("does_not_exist.spec")));
  ASSERT_TRUE(client.ReadFrame(&tag, &payload));
  EXPECT_EQ(tag, static_cast<uint8_t>(StatusCode::kError));

  server.Stop();
  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.swaps_ok, 1u);
  EXPECT_EQ(counters.swaps_failed, 1u);
}

TEST(ServerTest, SwapUnderReadCorruptFaultKeepsServingOldModel) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "svm");
  const auto servable = registry.Acquire();

  auto replacement = TrainedSvm(dataset);
  const std::string checkpoint = TempPath("e2e_fault_checkpoint.bin");
  ASSERT_TRUE(static_cast<models::LinearSvm*>(replacement.get())
                  ->Save(checkpoint)
                  .ok());
  ModelSpec spec;
  spec.model = "SVM";
  spec.file = checkpoint;
  const std::string spec_path = TempPath("e2e_fault_swap.spec");
  ASSERT_TRUE(WriteModelSpecFile(spec_path, spec).ok());

  ServerOptions options;
  options.batching.batch_cap = 1;
  Server server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  uint8_t tag = 0;
  std::string payload;
  {
    // The daemon reads a bit-flipped spec: kSwap must answer kError, not
    // crash, and scoring must continue on the old model/version.
    ScopedFaults faults("read_corrupt:match=e2e_fault_swap.spec");
    ASSERT_TRUE(
        client.Send(static_cast<uint8_t>(Opcode::kSwap), spec_path));
    ASSERT_TRUE(client.ReadFrame(&tag, &payload));
    EXPECT_EQ(tag, static_cast<uint8_t>(StatusCode::kError));
  }

  ASSERT_TRUE(client.Send(static_cast<uint8_t>(Opcode::kScore),
                          ScorePayload(9, dataset[0].text)));
  ASSERT_TRUE(client.ReadFrame(&tag, &payload));
  ASSERT_EQ(tag, static_cast<uint8_t>(StatusCode::kOk));
  uint64_t ticket = 0;
  uint64_t version = 0;
  double score = 0.0;
  ASSERT_TRUE(ParseScoreResponse(payload, &ticket, &version, &score));
  EXPECT_EQ(version, 1u) << "failed swap must leave the version alone";
  EXPECT_EQ(score, servable->model->Score(dataset[0].text));

  server.Stop();
  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.swaps_ok, 0u);
  EXPECT_EQ(counters.swaps_failed, 1u);
  // The poisoned spec was quarantined by the failed swap.
  EXPECT_FALSE(ReadFileToString(spec_path).ok());
  EXPECT_TRUE(ReadFileToString(spec_path + ".corrupt").ok());
}

TEST(ServerTest, ShedResponseWhenQueueFull) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "svm");

  ServerOptions options;
  options.batching.queue_cap = 1;
  options.batching.batch_cap = 1;
  options.batching.deadline_us = 0;
  Server server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Flood far past the queue bound; with queue_cap=1 some requests MUST
  // shed, and every request gets exactly one response either way.
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(client.Send(static_cast<uint8_t>(Opcode::kScore),
                            ScorePayload(i, dataset[0].text)));
  }
  int ok = 0;
  int shed = 0;
  for (int i = 0; i < n; ++i) {
    uint8_t tag = 0;
    std::string payload;
    ASSERT_TRUE(client.ReadFrame(&tag, &payload)) << "after " << i;
    if (tag == static_cast<uint8_t>(StatusCode::kOk)) {
      ++ok;
    } else {
      ASSERT_EQ(tag, static_cast<uint8_t>(StatusCode::kShed));
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, n);
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0) << "queue_cap=1 under a 64-deep flood must shed";
  server.Stop();
}

TEST(ServerTest, LoopWakesOncePerScoredBatchAndOnEverySwap) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "svm");
  const bool metrics_were_on = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  const obs::Counter& wakeups = obs::GetCounter("serve/loop_wakeups");
  const obs::Counter& batches = obs::GetCounter("serve/batches");

  ServerOptions options;
  options.batching.batch_cap = 32;
  // Long enough that only full batches flush: 64 requests are exactly two.
  options.batching.deadline_us = 2 * 1000 * 1000;
  Server server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  const uint64_t wakeups_before = wakeups.Value();
  const uint64_t batches_before = batches.Value();
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(client.Send(static_cast<uint8_t>(Opcode::kScore),
                            ScorePayload(i, dataset[i].text)));
  }
  uint8_t tag = 0;
  std::string payload;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(client.ReadFrame(&tag, &payload)) << "after " << i;
    ASSERT_EQ(tag, static_cast<uint8_t>(StatusCode::kOk));
  }
  const uint64_t scored_batches = batches.Value() - batches_before;
  const uint64_t loop_wakeups = wakeups.Value() - wakeups_before;
  EXPECT_EQ(scored_batches, 2u);
  EXPECT_EQ(loop_wakeups, scored_batches)
      << "the loop must be woken once per batch, not once per request";

  // A swap completion wakes the loop on its own (a bad path answers
  // kError through the same path a good one takes).
  const uint64_t before_swap = wakeups.Value();
  ASSERT_TRUE(client.Send(static_cast<uint8_t>(Opcode::kSwap),
                          TempPath("no_such_model.spec")));
  ASSERT_TRUE(client.ReadFrame(&tag, &payload));
  EXPECT_EQ(tag, static_cast<uint8_t>(StatusCode::kError));
  EXPECT_GT(wakeups.Value(), before_swap);

  server.Stop();
  obs::SetMetricsEnabled(metrics_were_on);
}

TEST(ServerTest, ProtocolViolationDropsConnectionOnly) {
  const data::Dataset dataset = TinyDataset();
  ModelRegistry registry;
  registry.Install(TrainedSvm(dataset), "svm");
  Server server(&registry, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  {
    TestClient bad;
    ASSERT_TRUE(bad.Connect(server.port()));
    ASSERT_TRUE(bad.Send(0x7f, "junk-opcode"));
    uint8_t tag = 0;
    std::string payload;
    EXPECT_FALSE(bad.ReadFrame(&tag, &payload));  // connection dropped
  }
  // The server survives and keeps serving new connections.
  TestClient good;
  ASSERT_TRUE(good.Connect(server.port()));
  ASSERT_TRUE(good.Send(static_cast<uint8_t>(Opcode::kPing), ""));
  uint8_t tag = 0;
  std::string payload;
  ASSERT_TRUE(good.ReadFrame(&tag, &payload));
  EXPECT_EQ(payload, "pong");

  server.Stop();
  EXPECT_GE(server.counters().protocol_errors, 1u);
}

}  // namespace
}  // namespace semtag::serve
