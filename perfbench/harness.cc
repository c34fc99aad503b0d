// Measurement harness of the semtag benchmark. perfbench/run.py builds it,
// pins it, and runs it once per benchmark run:
//
//   perfbench_harness run --daemon PATH --model CASCADE --seed N
//                     --serve-seconds T --trace 0|1 --run-dir DIR ...
//
// (every flag comes from perfbench/workloads.json). One run launches the
// semtag_serve daemon and drives it over TCP: set-up time per launch, a
// closed-loop pipelined client, an open loop at a fixed rate timed from each
// request's due time, a bisection of a fixed rate ladder, and a
// fixed-record pass whose decisions are checked against an in-process
// offline twin of the same spec. Between those phases it trains and scores
// the workload's grid cells in-process. With --trace 1 it also replays the
// workload in-process through the public functions of each module, with a
// span around every call group, and reports per-layer figures. Results go
// to DIR/result.json; progress and diagnostics go to stdout.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/cascade.h"
#include "common/logging.h"
#include "data/specs.h"
#include "eval/metrics.h"
#include "models/factory.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "serve/traffic_stats.h"
#include "text/bow_vectorizer.h"
#include "text/sequence_encoder.h"
#include "text/tokenizer.h"

namespace pb {

using semtag::data::Dataset;

// ---------------------------------------------------------------- basics

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
double NowS() { return static_cast<double>(NowNs()) * 1e-9; }

std::vector<pid_t> g_live_daemons;

/// Results the optimizer must not drop.
volatile size_t g_sink = 0;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_harness: %s\n", message.c_str());
  for (pid_t pid : g_live_daemons) {
    (void)::kill(pid, SIGKILL);
    (void)::waitpid(pid, nullptr, 0);
  }
  std::exit(1);
}

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
        Die(std::string("bad argument: ") + argv[i]);
      }
      values_[argv[i] + 2] = argv[i + 1];
      ++i;
    }
  }
  std::string Str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) Die("missing --" + key);
    return it->second;
  }
  double Num(const std::string& key) const {
    const std::string s = Str(key);
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0') Die("--" + key + ": not a number");
    return v;
  }
  int Int(const std::string& key) const {
    return static_cast<int>(std::lround(Num(key)));
  }

 private:
  std::map<std::string, std::string> values_;
};

std::vector<std::string> SplitList(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream in(s);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Quantile with linear interpolation between closest ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

/// The result file: metrics by name, correctness checks, request counts.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              uint64_t samples) {
    metrics_.push_back("    " + Quote(name) + ": {\"value\": " + Num(value) +
                       ", \"unit\": " + Quote(unit) +
                       ", \"samples\": " + std::to_string(samples) + "}");
    std::printf("  %-32s %16.6g %-8s (n=%llu)\n", name.c_str(), value,
                unit.c_str(), static_cast<unsigned long long>(samples));
  }
  void Check(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back("    {\"name\": " + Quote(name) + ", \"ok\": " +
                      (ok ? "true" : "false") +
                      ", \"detail\": " + Quote(detail) + "}");
    std::printf("  check %-26s %s  %s\n", name.c_str(), ok ? "ok  " : "FAIL",
                detail.c_str());
  }
  void Extra(const std::string& key, const std::string& json) {
    extras_.push_back("  " + Quote(key) + ": " + json);
  }
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Write(const std::string& path) const {
    std::string out = "{\n  \"attempted\": " + std::to_string(attempted_) +
                      ",\n  \"failed\": " + std::to_string(failed_) +
                      ",\n  \"metrics\": {\n";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      out += metrics_[i] + (i + 1 < metrics_.size() ? ",\n" : "\n");
    }
    out += "  },\n  \"checks\": [\n";
    for (size_t i = 0; i < checks_.size(); ++i) {
      out += checks_[i] + (i + 1 < checks_.size() ? ",\n" : "\n");
    }
    out += "  ]";
    for (const std::string& e : extras_) out += ",\n" + e;
    out += "\n}\n";
    std::ofstream file(path);
    file << out;
    if (!file) Die("cannot write " + path);
  }

 private:
  std::vector<std::string> metrics_;
  std::vector<std::string> checks_;
  std::vector<std::string> extras_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// A fixed arithmetic loop timed in the harness's own code: a small dense
/// float matrix product, cache-resident like the models' GEMMs. The program
/// never runs it, so drift in its time between sets of runs is host drift.
double ReferenceLoopNs() {
  constexpr int kN = 64;
  constexpr int kProducts = 32;  // about 1 ms per repetition
  std::vector<float> a(kN * kN, 1.001f), b(kN * kN, 0.999f), c(kN * kN, 0.0f);
  std::vector<double> per_madd;
  for (int rep = 0; rep < 15; ++rep) {
    const int64_t t0 = NowNs();
    for (int product = 0; product < kProducts; ++product) {
      for (int i = 0; i < kN; ++i) {
        for (int k = 0; k < kN; ++k) {
          const float x = a[i * kN + k];
          for (int j = 0; j < kN; ++j) c[i * kN + j] += x * b[k * kN + j];
        }
      }
    }
    const int64_t t1 = NowNs();
    g_sink = g_sink + static_cast<size_t>(c[rep]);
    per_madd.push_back(static_cast<double>(t1 - t0) /
                       (static_cast<double>(kProducts) * kN * kN * kN));
  }
  return Median(per_madd);
}

// ---------------------------------------------------------------- inputs

uint64_t MixSeed(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Workload seed of the fixed record set behind served_f1.
constexpr uint64_t kFixedRecordsSeed = 0xF1;

struct Records {
  std::vector<std::string> texts;
  std::vector<int> labels;
};

/// Fresh records of a dataset's distribution, drawn with the workload seed
/// (the dataset's own generator seed is replaced, so they are not the
/// records the daemon trains on).
Records StreamRecords(const std::string& dataset, uint64_t seed, int n) {
  semtag::data::DatasetSpec spec =
      semtag::data::FindSpec(dataset).ValueOrDie();
  spec.generator.seed = MixSeed(seed ^ 0x73747265616dULL);
  const Dataset d = semtag::data::GenerateDataset(
      semtag::data::SharedLanguage(), spec.generator, dataset + "/stream", n,
      spec.paper_positive);
  return Records{d.Texts(), d.Labels()};
}

// ---------------------------------------------------------------- tracing

/// Spans recorded by the harness around its calls into the program. Kept
/// in memory; written as JSON when the run ends.
class Recorder {
 public:
  struct Span {
    std::string name;  // "<layer>/<call>"
    int64_t start = 0;
    int64_t end = 0;
    int parent = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }

  int Begin(const std::string& name) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, NowNs(), 0,
                          stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end = NowNs();
    stack_.pop_back();
  }

  /// Self time per layer (the name's prefix before '/'), in seconds.
  std::map<std::string, double> SelfByLayer() const {
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const std::string& n = spans_[i].name;
      out[n.substr(0, n.find('/'))] += SelfNs(static_cast<int>(i)) * 1e-9;
    }
    return out;
  }
  /// Seconds of [start, end] that no top-level span covers.
  double UncoveredSeconds(int64_t start, int64_t end) const {
    int64_t covered = 0;
    for (const Span& s : spans_) {
      if (s.parent < 0 && s.start >= start && s.end <= end) {
        covered += s.end - s.start;
      }
    }
    return static_cast<double>(end - start - covered) * 1e-9;
  }
  void Write(const std::string& path) const {
    std::ofstream file(path);
    file << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      file << "  {\"name\": " << Quote(s.name) << ", \"start_ns\": " << s.start
           << ", \"end_ns\": " << s.end << ", \"parent\": " << s.parent
           << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    file << "]\n";
  }

 private:
  double SelfNs(int id) const {
    const Span& s = spans_[static_cast<size_t>(id)];
    int64_t self = s.end - s.start;
    for (const Span& c : spans_) {
      if (c.parent == id) self -= c.end - c.start;
    }
    return static_cast<double>(self);
  }

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Recorder g_rec;

class Scope {
 public:
  explicit Scope(const std::string& name) : id_(g_rec.Begin(name)) {}
  ~Scope() { g_rec.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

/// Sum of the la/gemm counters of the obs registry (calls across every
/// kernel tier, and flops).
struct GemmCount {
  double calls = 0.0;
  double flops = 0.0;
};
GemmCount ReadGemm() {
  GemmCount g;
  for (const auto& [name, value] : semtag::obs::SnapshotMetrics().counters) {
    if (name.rfind("la/gemm/calls", 0) == 0) g.calls += value;
    if (name == "la/gemm/flops") g.flops += value;
  }
  return g;
}

// ---------------------------------------------------------------- daemon

struct Daemon {
  pid_t pid = -1;
  int port = 0;
  int out_fd = -1;
  double setup_s = 0.0;
};

/// fork+exec the daemon; set-up time runs from just before exec to the
/// moment its "listening on port N" line is read.
Daemon SpawnDaemon(const std::string& binary,
                   const std::vector<std::string>& args,
                   const std::string& log_path) {
  int fds[2];
  if (::pipe(fds) != 0) Die("pipe failed");
  const int64_t t0 = NowNs();
  const pid_t pid = ::fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    (void)::close(fds[0]);
    (void)::dup2(fds[1], STDOUT_FILENO);
    (void)::close(fds[1]);
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                           0644);
    if (log >= 0) (void)::dup2(log, STDERR_FILENO);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  (void)::close(fds[1]);
  g_live_daemons.push_back(pid);
  std::string out;
  while (NowNs() - t0 < 120'000'000'000LL) {
    struct pollfd pfd = {fds[0], POLLIN, 0};
    if (::poll(&pfd, 1, 200) <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
    const size_t pos = out.find("listening on port ");
    int port = 0;
    if (pos != std::string::npos && out.find('\n', pos) != std::string::npos &&
        std::sscanf(out.c_str() + pos, "listening on port %d", &port) == 1) {
      Daemon d;
      d.pid = pid;
      d.port = port;
      d.out_fd = fds[0];
      d.setup_s = static_cast<double>(NowNs() - t0) * 1e-9;
      return d;
    }
  }
  Die("daemon did not start listening; see " + log_path);
}

/// SIGTERM (graceful drain) and reap. Returns the exit code, -1 when the
/// daemon died of a signal or had to be killed.
int StopDaemon(Daemon* d) {
  (void)::kill(d->pid, SIGTERM);
  int status = 0;
  pid_t got = 0;
  const int64_t t0 = NowNs();
  while ((got = ::waitpid(d->pid, &status, WNOHANG)) == 0 &&
         NowNs() - t0 < 30'000'000'000LL) {
    ::usleep(2000);
  }
  if (got == 0) {
    (void)::kill(d->pid, SIGKILL);
    (void)::waitpid(d->pid, &status, 0);
  }
  g_live_daemons.erase(
      std::remove(g_live_daemons.begin(), g_live_daemons.end(), d->pid),
      g_live_daemons.end());
  (void)::close(d->out_fd);
  d->pid = -1;
  return got > 0 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// utime + stime of every thread of `pid`, in seconds (/proc/<pid>/stat).
double ProcessCpuSeconds(pid_t pid) {
  std::ifstream file("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) Die("cannot read /proc stat of daemon");
  std::istringstream fields(stat.substr(close + 2));
  std::string skip;
  for (int i = 3; i < 14; ++i) fields >> skip;  // state .. cmajflt
  unsigned long long utime = 0, stime = 0;
  fields >> utime >> stime;
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// ---------------------------------------------------------------- client

/// One phase's connection. Tickets are 1..N within the phase; the frame
/// format is re-implemented here (not taken from the program) so a bug in
/// the program's codec cannot hide from the check.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    (void)::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Die("cannot connect to daemon");
    }
    const int one = 1;
    (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Client() { (void)::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  static void AppendRequest(uint64_t ticket, const std::string& text,
                            std::string* out) {
    const uint32_t len = static_cast<uint32_t>(1 + 8 + text.size());
    for (int i = 0; i < 4; ++i) {
      out->push_back(static_cast<char>(len >> (8 * i)));
    }
    out->push_back(static_cast<char>(0x01));
    for (int i = 0; i < 8; ++i) {
      out->push_back(static_cast<char>(ticket >> (8 * i)));
    }
    out->append(text);
  }

  bool Send(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
      if (n > 0) {
        off += static_cast<size_t>(n);
      } else if (n < 0 && errno != EINTR) {
        return false;
      }
    }
    return true;
  }

  /// Waits up to `timeout_ns` (< 0: forever) for bytes and reads them.
  /// False on EOF or error.
  bool Receive(int64_t timeout_ns) {
    struct pollfd pfd = {fd_, POLLIN, 0};
    struct timespec ts = {static_cast<time_t>(timeout_ns / 1'000'000'000),
                          static_cast<long>(timeout_ns % 1'000'000'000)};
    const int r = ::ppoll(&pfd, 1, timeout_ns < 0 ? nullptr : &ts, nullptr);
    if (r < 0) return errno == EINTR;
    if (r == 0) return true;
    if (pos_ > 65536 || (pos_ > 0 && pos_ == buf_.size())) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    char tmp[65536];
    const ssize_t n = ::read(fd_, tmp, sizeof(tmp));
    if (n <= 0) return n < 0 && errno == EINTR;
    buf_.append(tmp, static_cast<size_t>(n));
    return true;
  }

  /// Pops one complete response frame, if buffered.
  bool Next(uint8_t* tag, std::string_view* payload) {
    if (buf_.size() - pos_ < 4) return false;
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(static_cast<unsigned char>(buf_[pos_ + i]))
             << (8 * i);
    }
    if (len == 0 || buf_.size() - pos_ - 4 < len) return false;
    *tag = static_cast<uint8_t>(buf_[pos_ + 4]);
    *payload = std::string_view(buf_).substr(pos_ + 5, len - 1);
    pos_ += 4 + len;
    return true;
  }

 private:
  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

/// Requests sent / answered / shed / failed of one phase, with the answered
/// requests' scores and the model versions seen.
struct Phase {
  uint64_t sent = 0;
  uint64_t answered = 0;
  uint64_t shed = 0;
  uint64_t failed = 0;
  std::vector<double> scores;      // by ticket - 1 (answered only)
  std::vector<uint8_t> done;       // by ticket - 1
  std::vector<double> due_s;       // by ticket - 1
  std::vector<double> sent_s;      // by ticket - 1
  std::vector<double> latency_us;  // answered after the warm-up
  std::vector<double> late_us;     // generator lateness after warm-up
  uint64_t min_version = UINT64_MAX;
  uint64_t max_version = 0;
  std::string error;

  void Grow(uint64_t ticket) {
    if (done.size() < ticket) {
      scores.resize(ticket, 0.0);
      done.resize(ticket, 0);
      due_s.resize(ticket, 0.0);
      sent_s.resize(ticket, 0.0);
    }
  }
  /// Adds another segment's counts and timings (not its scores).
  void Merge(const Phase& o) {
    sent += o.sent;
    answered += o.answered;
    shed += o.shed;
    failed += o.failed;
    latency_us.insert(latency_us.end(), o.latency_us.begin(),
                      o.latency_us.end());
    late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
    min_version = std::min(min_version, o.min_version);
    max_version = std::max(max_version, o.max_version);
  }
  std::string Summary() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "sent %llu answered %llu shed %llu failed %llu",
                  static_cast<unsigned long long>(sent),
                  static_cast<unsigned long long>(answered),
                  static_cast<unsigned long long>(shed),
                  static_cast<unsigned long long>(failed));
    return buf;
  }
  std::string Json() const {
    return "{\"sent\": " + std::to_string(sent) +
           ", \"answered\": " + std::to_string(answered) +
           ", \"shed\": " + std::to_string(shed) +
           ", \"failed\": " + std::to_string(failed) + "}";
  }
};

/// Handles one response frame: parses it, matches its ticket, records it.
/// Returns the ticket (0 when the frame could not be matched).
uint64_t HandleResponse(uint8_t tag, std::string_view payload, Phase* p) {
  const std::string text(payload);
  if (tag == 0x00) {
    unsigned long long ticket = 0, version = 0;
    char score_buf[64] = {0};
    int consumed = 0;
    if (std::sscanf(text.c_str(), "%llu %llu %63s%n", &ticket, &version,
                    score_buf, &consumed) != 3 ||
        static_cast<size_t>(consumed) != text.size()) {
      p->error = "unparseable response: " + text;
      ++p->failed;
      return 0;
    }
    char* end = nullptr;
    const double score = std::strtod(score_buf, &end);
    if (*end != '\0' || ticket == 0 || ticket > p->sent ||
        p->done[ticket - 1] != 0) {
      p->error = "response does not match an open ticket: " + text;
      ++p->failed;
      return 0;
    }
    p->done[ticket - 1] = 1;
    p->scores[ticket - 1] = score;
    p->min_version = std::min<uint64_t>(p->min_version, version);
    p->max_version = std::max<uint64_t>(p->max_version, version);
    ++p->answered;
    return ticket;
  }
  if (tag == 0x01) {
    const unsigned long long ticket = std::strtoull(text.c_str(), nullptr, 10);
    if (ticket == 0 || ticket > p->sent || p->done[ticket - 1] != 0) {
      p->error = "shed response does not match an open ticket: " + text;
      ++p->failed;
      return 0;
    }
    p->done[ticket - 1] = 2;
    ++p->shed;
    return ticket;
  }
  p->error = "error response: " + text;
  ++p->failed;
  return 0;
}

struct ClosedResult {
  Phase phase;
  std::vector<double> window_qps;
  double cpu_s = 0.0;
  uint64_t measured = 0;  // answered inside the measured interval
};

/// Closed loop: `window` requests in flight on one pipelined connection;
/// each answer is replaced at once. After `warm_s`, answers are counted in
/// windows of `window_s`, and the daemon's CPU time is read at both ends
/// of the measured interval.
ClosedResult ClosedLoop(int port, pid_t daemon, const Records& rec, int window,
                        double warm_s, double measure_s, double window_s) {
  ClosedResult r;
  Client client(port);
  uint64_t next = 1;
  std::string out;
  const auto queue_one = [&] {
    r.phase.Grow(next);
    Client::AppendRequest(next, rec.texts[(next - 1) % rec.texts.size()],
                          &out);
    ++next;
    ++r.phase.sent;
  };
  for (int i = 0; i < window; ++i) queue_one();
  const double t0 = NowS();
  if (!client.Send(out)) Die("send failed");
  out.clear();
  const double t_measure = t0 + warm_s;
  const double t_end = t_measure + measure_s;
  bool measuring = false;
  double cpu0 = 0.0, win_start = 0.0;
  uint64_t count0 = 0, win_count = 0;
  while (r.phase.answered + r.phase.shed + r.phase.failed < r.phase.sent) {
    if (!client.Receive(-1)) Die("closed loop: connection lost");
    const double now = NowS();
    if (!measuring && now >= t_measure && now < t_end) {
      measuring = true;
      cpu0 = ProcessCpuSeconds(daemon);
      count0 = r.phase.answered;
      win_start = now;
      win_count = r.phase.answered;
    }
    if (measuring && now - win_start >= window_s) {
      r.window_qps.push_back(static_cast<double>(r.phase.answered - win_count) /
                             (now - win_start));
      win_start = now;
      win_count = r.phase.answered;
    }
    if (measuring && now >= t_end) {
      measuring = false;
      r.cpu_s = ProcessCpuSeconds(daemon) - cpu0;
      r.measured = r.phase.answered - count0;
    }
    uint8_t tag = 0;
    std::string_view payload;
    while (client.Next(&tag, &payload)) {
      HandleResponse(tag, payload, &r.phase);
      if (now < t_end) queue_one();
    }
    if (!r.phase.error.empty()) Die("closed loop: " + r.phase.error);
    if (!out.empty()) {
      if (!client.Send(out)) Die("send failed");
      out.clear();
    }
  }
  return r;
}

/// Sends records [0, n) once each, `window` in flight; returns the phase
/// with every record's served score.
Phase FixedPass(int port, const Records& rec, int n, int window) {
  Phase p;
  Client client(port);
  uint64_t next = 1;
  const uint64_t total = static_cast<uint64_t>(n);
  std::string out;
  const auto queue_one = [&] {
    p.Grow(next);
    Client::AppendRequest(next, rec.texts[next - 1], &out);
    ++next;
    ++p.sent;
  };
  while (next <= total && static_cast<int>(next) <= window) queue_one();
  while (p.answered + p.shed + p.failed < total) {
    if (!out.empty()) {
      if (!client.Send(out)) Die("send failed");
      out.clear();
    }
    if (!client.Receive(-1)) Die("fixed pass: connection lost");
    uint8_t tag = 0;
    std::string_view payload;
    while (client.Next(&tag, &payload)) {
      HandleResponse(tag, payload, &p);
      if (next <= total) queue_one();
    }
    if (!p.error.empty()) Die("fixed pass: " + p.error);
  }
  return p;
}

/// Open loop at a fixed rate: request i is due at t0 + i / rate, sent as
/// soon as the generator gets to it, and timed from its due time. Requests
/// due in the first `warm_s` are sent but not timed.
Phase OpenLoop(int port, const Records& rec, double rate, double warm_s,
               double measure_s, const std::string& name) {
  Phase p;
  Client client(port);
  const uint64_t total =
      static_cast<uint64_t>(std::llround(rate * (warm_s + measure_s)));
  const uint64_t warm = static_cast<uint64_t>(std::llround(rate * warm_s));
  p.Grow(total);
  const double t0 = NowS() + 0.001;
  uint64_t next = 1;
  std::string out;
  const double hard_stop = t0 + (warm_s + measure_s) * 4 + 10.0;
  while (p.answered + p.shed + p.failed < total) {
    double now = NowS();
    if (now > hard_stop) {
      p.failed += total - (p.answered + p.shed + p.failed);
      p.error = "requests unanswered at the hard stop";
      break;
    }
    while (next <= total && t0 + static_cast<double>(next - 1) / rate <= now) {
      p.due_s[next - 1] = t0 + static_cast<double>(next - 1) / rate;
      p.sent_s[next - 1] = now;
      Client::AppendRequest(next, rec.texts[(next - 1) % rec.texts.size()],
                            &out);
      ++next;
      ++p.sent;
    }
    if (!out.empty()) {
      if (!client.Send(out)) Die(name + ": send failed");
      out.clear();
    }
    now = NowS();
    const double next_due =
        next <= total ? t0 + static_cast<double>(next - 1) / rate : now + 0.05;
    const int64_t wait_ns =
        std::max<int64_t>(0, static_cast<int64_t>((next_due - now) * 1e9));
    if (!client.Receive(wait_ns)) Die(name + ": connection lost");
    const double recv = NowS();
    uint8_t tag = 0;
    std::string_view payload;
    while (client.Next(&tag, &payload)) {
      const uint64_t t = HandleResponse(tag, payload, &p);
      if (t > warm && p.done[t - 1] == 1) {
        p.latency_us.push_back((recv - p.due_s[t - 1]) * 1e6);
      }
    }
    if (!p.error.empty() && p.failed > 0) Die(name + ": " + p.error);
  }
  for (uint64_t t = warm + 1; t <= total; ++t) {
    p.late_us.push_back((p.sent_s[t - 1] - p.due_s[t - 1]) * 1e6);
  }
  return p;
}

// ---------------------------------------------------------------- serving
// replay (in-process, traced)

/// Forwarding model: scores through the wrapped model and timestamps each
/// ScoreAll call, so batch sizes, batch time and queue wait can be read
/// without touching the program.
class TimedModel : public semtag::models::TaggingModel {
 public:
  explicit TimedModel(const semtag::models::TaggingModel* inner)
      : inner_(inner) {}
  std::string name() const override { return inner_->name(); }
  bool is_deep() const override { return inner_->is_deep(); }
  semtag::Status Train(const Dataset&) override {
    return semtag::Status::OK();
  }
  double Score(std::string_view text) const override {
    return inner_->Score(text);
  }
  double DecisionThreshold() const override {
    return inner_->DecisionThreshold();
  }
  std::vector<double> ScoreAll(
      const std::vector<std::string>& texts) const override {
    const int64_t t0 = NowNs();
    std::vector<double> out = inner_->ScoreAll(texts);
    const int64_t t1 = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    batches_.push_back(Batch{t0, t1, texts.size()});
    return out;
  }
  struct Batch {
    int64_t start = 0;
    int64_t end = 0;
    size_t size = 0;
  };
  std::vector<Batch> batches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batches_;
  }

 private:
  const semtag::models::TaggingModel* inner_;
  mutable std::mutex mu_;
  mutable std::vector<Batch> batches_;
};

struct BatcherProbe {
  std::vector<double> e2e_us;    // Submit due time -> callback
  std::vector<double> wait_us;   // Submit -> ScoreAll entry
  std::vector<double> batch_us;  // ScoreAll time per batch
  std::vector<double> sizes;
  uint64_t shed = 0;
};

/// Open loop through serve::Batcher at `rate`, on a registry whose model is
/// the TimedModel decorator around `model`.
BatcherProbe ProbeBatcher(const semtag::models::TaggingModel* model,
                          const Records& rec, double rate, double seconds,
                          const semtag::serve::BatchingOptions& options) {
  // Everything the callbacks touch is declared before the batcher, so it
  // outlives the batcher thread.
  const size_t total = static_cast<size_t>(std::llround(rate * seconds));
  std::vector<int64_t> submit_ns(total, 0), due_ns(total, 0), done_ns(total, 0);
  std::vector<uint8_t> admitted(total, 0);
  std::mutex mu;
  std::condition_variable cv;
  size_t completed = 0;  // guarded by mu
  semtag::serve::ModelRegistry registry;
  auto timed_owner = std::make_unique<TimedModel>(model);
  TimedModel* timed = timed_owner.get();
  registry.Install(std::move(timed_owner), "perfbench");
  semtag::serve::TrafficStats stats(1024, 256, 8);
  semtag::serve::Batcher batcher(&registry, &stats, options);
  batcher.Start();
  const int64_t t0 = NowNs() + 1'000'000;
  BatcherProbe probe;
  for (size_t i = 0; i < total; ++i) {
    due_ns[i] = t0 + static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate);
    const int64_t wait = due_ns[i] - NowNs();
    if (wait > 0) {
      struct timespec ts = {static_cast<time_t>(wait / 1'000'000'000),
                            static_cast<long>(wait % 1'000'000'000)};
      ::nanosleep(&ts, nullptr);
    }
    submit_ns[i] = NowNs();
    const bool ok = batcher.Submit(
        rec.texts[i % rec.texts.size()],
        [i, &done_ns, &mu, &cv,
         &completed](const semtag::serve::ScoredRequest&) {
          done_ns[i] = NowNs();
          std::lock_guard<std::mutex> lock(mu);
          ++completed;
          cv.notify_one();
        });
    if (ok) {
      admitted[i] = 1;
    } else {
      ++probe.shed;
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed + probe.shed >= total; });
  }
  batcher.Stop();
  // Batches take requests in submission order, so batch k holds the next
  // `size` admitted requests.
  size_t idx = 0;
  for (const TimedModel::Batch& b : timed->batches()) {
    probe.batch_us.push_back(static_cast<double>(b.end - b.start) * 1e-3);
    probe.sizes.push_back(static_cast<double>(b.size));
    for (size_t k = 0; k < b.size; ++k) {
      while (idx < total && admitted[idx] == 0) ++idx;
      if (idx >= total) break;
      probe.wait_us.push_back(static_cast<double>(b.start - submit_ns[idx]) *
                              1e-3);
      ++idx;
    }
  }
  for (size_t i = 0; i < total; ++i) {
    if (admitted[i] != 0) {
      probe.e2e_us.push_back(static_cast<double>(done_ns[i] - due_ns[i]) *
                             1e-3);
    }
  }
  return probe;
}

std::vector<std::vector<std::string>> Chunks(const std::vector<std::string>& v,
                                             size_t size) {
  std::vector<std::vector<std::string>> out;
  for (size_t i = 0; i < v.size(); i += size) {
    out.emplace_back(v.begin() + static_cast<long>(i),
                     v.begin() +
                         static_cast<long>(std::min(v.size(), i + size)));
  }
  return out;
}

semtag::serve::ModelSpec ServeSpec(const Flags& f, const std::string& model) {
  semtag::serve::ModelSpec spec;
  spec.dataset = f.Str("dataset");
  spec.records = f.Int("records");
  spec.seed = static_cast<uint64_t>(f.Int("train-seed"));
  spec.model = model;
  if (model == "CASCADE") {
    spec.cascade = f.Str("cascade");
    spec.budget_pts = f.Num("budget");
  }
  return spec;
}

std::unique_ptr<semtag::models::TaggingModel> Build(
    const semtag::serve::ModelSpec& spec) {
  auto built = semtag::serve::BuildModelFromSpec(spec);
  if (!built.ok()) {
    Die("building " + spec.model + ": " + built.status().ToString());
  }
  return std::move(built).ValueOrDie();
}

/// Calls into each module over the stream, one span per call group. Each
/// call group runs over the whole stream, so the clock is read twice per
/// group, not per request.
struct ScoringProbes {
  double frame_decode_s = 0, response_encode_s = 0, traffic_record_s = 0;
  double tokenize_s = 0, bow_s = 0, seq_s = 0;
  double simple_s = 0, deep_b32_s = 0, deep_gathered_s = 0, cascade_s = 0;
  double served_s = 0;
  uint64_t escalated = 0;
  GemmCount served_gemm;
};

ScoringProbes RunScoringProbes(const Records& stream,
                               const std::vector<std::string>& train_texts,
                               const semtag::core::Cascade& cascade,
                               const semtag::models::TaggingModel& served,
                               const semtag::models::TaggingModel& deep) {
  ScoringProbes p;
  const auto timed = [](const std::string& name, const auto& fn) {
    const int64_t t0 = NowNs();
    {
      Scope s(name);
      fn();
    }
    return static_cast<double>(NowNs() - t0) * 1e-9;
  };
  const std::vector<std::string>& texts = stream.texts;
  const auto batches = Chunks(texts, 32);

  std::string wire;
  for (size_t i = 0; i < texts.size(); ++i) {
    Client::AppendRequest(i + 1, texts[i], &wire);
  }
  p.frame_decode_s = timed("serve/FrameReader", [&] {
    semtag::serve::FrameReader reader;
    uint8_t tag = 0;
    std::string payload;
    size_t n = 0;
    for (size_t off = 0; off < wire.size(); off += 4096) {
      reader.Feed(wire.data() + off, std::min<size_t>(4096, wire.size() - off));
      while (reader.Next(&tag, &payload)) n += payload.size();
    }
    g_sink = n;
  });
  p.response_encode_s = timed("serve/FormatScoreResponse", [&] {
    std::string out;
    for (size_t i = 0; i < texts.size(); ++i) {
      semtag::serve::AppendFrame(
          0, semtag::serve::FormatScoreResponse(i + 1, 1, 0.25 + 1e-3 * i),
          &out);
      if (out.size() > 65536) out.clear();
    }
    g_sink = out.size();
  });
  p.traffic_record_s = timed("serve/TrafficStats", [&] {
    semtag::serve::TrafficStats stats(1024, 256, 8);
    for (size_t i = 0; i < texts.size(); ++i) {
      stats.Record(std::string_view(texts[i]), (i % 3) * 0.4);
    }
    g_sink = stats.Snapshot().total;
  });
  p.tokenize_s = timed("text/Tokenize", [&] {
    size_t n = 0;
    for (const std::string& t : texts) n += semtag::text::Tokenize(t).size();
    g_sink = n;
  });
  semtag::text::BowVectorizer bow;
  semtag::text::SequenceEncoderOptions seq_options;
  seq_options.max_len = 20;
  semtag::text::SequenceEncoder seq(seq_options);
  {
    Scope s("text/Fit");
    bow.Fit(train_texts);
    seq.Fit(train_texts);
  }
  p.bow_s = timed("text/BowVectorizer::Transform", [&] {
    size_t n = 0;
    for (const std::string& t : texts) n += bow.Transform(t).nnz();
    g_sink = n;
  });
  p.seq_s = timed("text/SequenceEncoder::Encode", [&] {
    size_t n = 0;
    for (const std::string& t : texts) n += seq.Encode(t).size();
    g_sink = n;
  });
  std::vector<std::vector<std::string>> gathered;
  p.simple_s = timed("models/simple.ScoreAll", [&] {
    for (const auto& b : batches) {
      const std::vector<double> s = cascade.simple_model()->ScoreAll(b);
      std::vector<std::string> g;
      for (size_t i = 0; i < s.size(); ++i) {
        if (cascade.simple_model()->MarginFromScore(s[i]) <=
            cascade.threshold()) {
          g.push_back(b[i]);
        }
      }
      p.escalated += g.size();
      if (!g.empty()) gathered.push_back(std::move(g));
    }
  });
  p.deep_b32_s = timed("models/deep.ScoreAll(b32)", [&] {
    for (const auto& b : batches) g_sink = deep.ScoreAll(b).size();
  });
  p.deep_gathered_s = timed("models/deep.ScoreAll(gathered)", [&] {
    for (const auto& g : gathered) {
      g_sink = cascade.deep_model()->ScoreAll(g).size();
    }
  });
  p.cascade_s = timed("core/Cascade::ScoreAll", [&] {
    for (const auto& b : batches) g_sink = cascade.ScoreAll(b).size();
  });
  const GemmCount g0 = ReadGemm();
  p.served_s = timed("models/served.ScoreAll", [&] {
    for (const auto& b : batches) g_sink = served.ScoreAll(b).size();
  });
  const GemmCount g1 = ReadGemm();
  p.served_gemm = {g1.calls - g0.calls, g1.flops - g0.flops};
  return p;
}

// ---------------------------------------------------------------- models

/// A grid cell's model: "CASCADE:<S>+<D>" is the cascade with a pinned pair,
/// configured as the daemon's --cascade flag configures it; anything else
/// is a study model name for models::CreateModelSeeded.
std::unique_ptr<semtag::models::TaggingModel> MakeModel(const std::string& name,
                                                        uint64_t seed,
                                                        double budget_pts) {
  const auto kind_of = [](const std::string& n) {
    auto kind = semtag::models::ModelKindFromName(n);
    if (!kind.ok()) Die("unknown model " + n);
    return kind.ValueOrDie();
  };
  if (name.rfind("CASCADE:", 0) == 0) {
    const std::string pair = name.substr(8);
    const size_t plus = pair.rfind('+');
    if (plus == std::string::npos) Die("bad cascade cell " + name);
    semtag::core::CascadeOptions options;
    options.budget_pts = budget_pts;
    options.seed = seed;
    options.simple = kind_of(pair.substr(0, plus));
    options.deep = kind_of(pair.substr(plus + 1));
    options.auto_pair = false;
    options.allow_simple_only = false;
    return std::make_unique<semtag::core::Cascade>(options);
  }
  auto model = semtag::models::CreateModelSeeded(kind_of(name), seed);
  if (model == nullptr) Die("factory returned null for " + name);
  return model;
}

// ---------------------------------------------------------------- grid

struct Split {
  std::string name;
  Dataset train;
  std::vector<std::string> test_texts;
  std::vector<int> test_labels;
};

/// Generates and splits every grid dataset at its spec's own seed.
std::vector<Split> BuildSplits(const Flags& f) {
  std::vector<Split> out;
  for (const std::string& name : SplitList(f.Str("grid-datasets"))) {
    Scope s("data/BuildDataset+Split");
    semtag::data::DatasetSpec spec = semtag::data::FindSpec(name).ValueOrDie();
    if (f.Int("grid-records") > 0) spec.scaled_records = f.Int("grid-records");
    spec.scaled_records =
        std::min(spec.scaled_records, f.Int("grid-max-records"));
    const Dataset d = semtag::data::BuildDataset(spec);
    auto [train, test] = d.Split(spec.train_fraction);
    Split sp;
    sp.name = name;
    sp.test_texts = test.Texts();
    sp.test_labels = test.Labels();
    sp.train = std::move(train);
    out.push_back(std::move(sp));
  }
  return out;
}

struct CellResult {
  double seconds = 0.0;
  double f1 = 0.0;
  double simple_train_s = 0.0;
  double deep_train_s = 0.0;
  GemmCount gemm;
};

/// One cell: create, Train, PredictAll on the test split, F1Score.
CellResult RunCell(const Flags& f, const Split& split,
                   const std::string& name) {
  CellResult r;
  const bool counting = semtag::obs::MetricsEnabled();
  const GemmCount g0 = counting ? ReadGemm() : GemmCount{};
  const int64_t t0 = NowNs();
  auto model = MakeModel(name, static_cast<uint64_t>(f.Int("train-seed")),
                         f.Num("budget"));
  const auto* cascade = dynamic_cast<const semtag::core::Cascade*>(model.get());
  const std::string layer = cascade != nullptr ? "core/" : "models/";
  {
    Scope s(layer + model->name() + ".Train");
    const semtag::Status st = model->Train(split.train);
    if (!st.ok()) Die("training " + model->name() + ": " + st.ToString());
  }
  std::vector<int> pred;
  {
    Scope s(layer + model->name() + ".PredictAll");
    pred = model->PredictAll(split.test_texts);
  }
  {
    Scope s("eval/F1Score");
    r.f1 = semtag::eval::F1Score(split.test_labels, pred);
  }
  r.seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  if (cascade != nullptr) {
    r.simple_train_s = cascade->simple_model()->train_seconds();
    if (cascade->deep_model() != nullptr) {
      r.deep_train_s = cascade->deep_model()->train_seconds();
    }
  } else {
    (model->is_deep() ? r.deep_train_s : r.simple_train_s) =
        model->train_seconds();
  }
  if (counting) {
    const GemmCount g1 = ReadGemm();
    r.gemm = {g1.calls - g0.calls, g1.flops - g0.flops};
  }
  return r;
}

/// Per-layer figures of one traced grid pass.
struct GridTrace {
  uint64_t cells = 0;
  double simple_train_s = 0, deep_train_s = 0;
  GemmCount per_cell;
  double generate_s = 0;
};

/// The grid's cells, run in rotation a few per round so that each cell's
/// repetitions are spread over the whole run.
class Grid {
 public:
  explicit Grid(const Flags& f)
      : f_(f), models_(SplitList(f.Str("grid-models"))) {}

  /// Generates and splits every dataset (timed: the grid's set-up).
  void Setup() {
    const int64_t t0 = NowNs();
    splits_ = BuildSplits(f_);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    if (cell_s.empty()) {
      cell_s.resize(splits_.size() * models_.size());
      cell_f1.resize(cell_s.size());
    }
  }

  /// Runs the next `count` cells of the rotation.
  void RunCells(int count) {
    for (int i = 0; i < count; ++i) {
      const size_t cell = next_++ % cell_s.size();
      const Split& sp = splits_[cell / models_.size()];
      const std::string& model = models_[cell % models_.size()];
      const CellResult r = RunCell(f_, sp, model);
      if (cell_s[cell].empty()) {
        std::printf("  cell %-8s %-16s %8.3f s  F1 %.5f\n", sp.name.c_str(),
                    model.c_str(), r.seconds, r.f1);
        cell_f1[cell] = r.f1;
      } else {
        mismatches += r.f1 != cell_f1[cell];
      }
      cell_s[cell].push_back(r.seconds);
    }
  }

  /// One traced pass over every cell, with the obs counters armed.
  GridTrace Trace() {
    GridTrace t;
    semtag::obs::SetMetricsEnabled(true);
    g_rec.set_enabled(true);
    const int64_t t0 = NowNs();
    const std::vector<Split> traced = BuildSplits(f_);
    t.generate_s = static_cast<double>(NowNs() - t0) * 1e-9;
    for (const Split& sp : traced) {
      for (const std::string& m : models_) {
        const CellResult r = RunCell(f_, sp, m);
        t.simple_train_s += r.simple_train_s;
        t.deep_train_s += r.deep_train_s;
        t.per_cell.calls += r.gemm.calls;
        t.per_cell.flops += r.gemm.flops;
        ++t.cells;
      }
    }
    t.per_cell.calls /= static_cast<double>(t.cells);
    t.per_cell.flops /= static_cast<double>(t.cells);
    semtag::obs::SetMetricsEnabled(false);
    g_rec.set_enabled(false);
    return t;
  }

  /// Wall time of one pass over the grid: the sum of every cell's median.
  double PassSeconds() const {
    double total = 0.0;
    for (const auto& v : cell_s) total += Median(v);
    return total;
  }
  size_t MinRepetitions() const {
    size_t n = SIZE_MAX;
    for (const auto& v : cell_s) n = std::min(n, v.size());
    return n;
  }

  std::vector<double> setup_s;
  std::vector<std::vector<double>> cell_s;  // by cell, every repetition
  std::vector<double> cell_f1;              // by cell, first repetition
  int mismatches = 0;

 private:
  const Flags& f_;
  const std::vector<std::string> models_;
  std::vector<Split> splits_;
  size_t next_ = 0;
};

// ---------------------------------------------------------------- traced
// replay of the serving path

/// Reports every per-layer metric: the serving layers from an in-process
/// replay of the workload's stream, the training layers from the traced
/// grid pass.
void ServingTrace(const Flags& f, const Records& stream, double socket_p50_us,
                  double shed_frac, uint64_t ladder_attempted,
                  double cpu_us_per_req, const GridTrace& grid,
                  Report* report) {
  std::printf("traced replay: %zu requests of the workload stream\n",
              stream.texts.size());
  const std::string served_name = f.Str("model");
  semtag::obs::SetMetricsEnabled(true);
  g_rec.set_enabled(true);
  const int64_t replay_start = NowNs();

  semtag::data::DatasetSpec ds =
      semtag::data::FindSpec(f.Str("dataset")).ValueOrDie();
  ds.scaled_records = f.Int("records");
  std::vector<std::string> train_texts;
  {
    Scope s("data/BuildDataset+Split");
    const Dataset d = semtag::data::BuildDataset(ds);
    train_texts = d.Split(ds.train_fraction).first.Texts();
  }
  std::unique_ptr<semtag::models::TaggingModel> cascade_model;
  {
    Scope s("core/BuildModelFromSpec(CASCADE)");
    cascade_model = Build(ServeSpec(f, "CASCADE"));
  }
  const auto* cascade =
      dynamic_cast<const semtag::core::Cascade*>(cascade_model.get());
  if (cascade == nullptr || cascade->deep_model() == nullptr) {
    Die("the cascade spec did not build a two-tier cascade");
  }
  const semtag::models::TaggingModel* served = cascade_model.get();
  std::unique_ptr<semtag::models::TaggingModel> served_owner;
  if (served_name != "CASCADE") {
    Scope s("models/BuildModelFromSpec(" + served_name + ")");
    served_owner = Build(ServeSpec(f, served_name));
    served = served_owner.get();
  }
  const semtag::models::TaggingModel* deep =
      served->is_deep() ? served : cascade->deep_model();
  int64_t untraced_ns = 0;  // replay time spent with tracing off

  // A warm-up pass, then untraced and traced passes over the same calls,
  // alternated: the difference of their medians is the cost of the spans
  // and the obs counters. The last traced pass gives the figures.
  const auto pass = [&](bool traced) {
    semtag::obs::SetMetricsEnabled(traced);
    g_rec.set_enabled(traced);
    const int64_t t0 = NowNs();
    ScoringProbes p =
        RunScoringProbes(stream, train_texts, *cascade, *served, *deep);
    untraced_ns += traced ? 0 : NowNs() - t0;
    return std::make_pair(p, static_cast<double>(NowNs() - t0) * 1e-9);
  };
  (void)pass(false);
  std::vector<double> untraced_s, traced_s;
  ScoringProbes p;
  for (int i = 0; i < 2; ++i) {
    untraced_s.push_back(pass(false).second);
    auto [probes, seconds] = pass(true);
    traced_s.push_back(seconds);
    p = probes;
  }
  semtag::serve::BatchingOptions batching;
  batching.batch_cap = f.Int("batch-cap");
  batching.deadline_us = f.Int("deadline-us");
  batching.queue_cap = f.Int("queue-cap");
  BatcherProbe bp;
  {
    Scope s("serve/Batcher");
    bp = ProbeBatcher(served, stream, f.Num("open-rate"),
                      std::max(1.0, 0.15 * f.Num("serve-seconds")), batching);
  }
  const int64_t replay_end = NowNs();
  semtag::obs::SetMetricsEnabled(false);
  g_rec.set_enabled(false);

  const double n = static_cast<double>(stream.texts.size());
  const uint64_t un = stream.texts.size();
  const uint64_t esc = std::max<uint64_t>(p.escalated, 1);
  report->Metric("serve.frame_decode_ns", p.frame_decode_s / n * 1e9, "ns", un);
  report->Metric("serve.response_encode_ns", p.response_encode_s / n * 1e9,
                 "ns", un);
  report->Metric("serve.traffic_record_us", p.traffic_record_s / n * 1e6, "us",
                 un);
  report->Metric("serve.queue_wait_p50_us", Median(bp.wait_us), "us",
                 bp.wait_us.size());
  report->Metric("serve.queue_wait_p90_us", Quantile(bp.wait_us, 0.9), "us",
                 bp.wait_us.size());
  report->Metric("serve.batch_size_mean", Mean(bp.sizes), "count",
                 bp.sizes.size());
  report->Metric("serve.batch_score_us", Median(bp.batch_us), "us",
                 bp.batch_us.size());
  const double inproc_p50 = Median(bp.e2e_us);
  std::printf("  in-process Submit->callback p50 %.1f us, socket p50 %.1f us "
              "(shed in-process: %llu)\n",
              inproc_p50, socket_p50_us,
              static_cast<unsigned long long>(bp.shed));
  report->Metric("serve.socket_loop_us", socket_p50_us - inproc_p50, "us",
                 bp.e2e_us.size());
  report->Metric("serve.shed_frac", shed_frac, "fraction", ladder_attempted);
  report->Metric("text.tokenize_us", p.tokenize_s / n * 1e6, "us", un);
  report->Metric("text.bow_transform_us", p.bow_s / n * 1e6, "us", un);
  report->Metric("text.seq_encode_us", p.seq_s / n * 1e6, "us", un);
  report->Metric("models.simple_score_us", p.simple_s / n * 1e6, "us", un);
  report->Metric("models.deep_score_us_b32", p.deep_b32_s / n * 1e6, "us", un);
  report->Metric("models.deep_score_us_gathered",
                 p.deep_gathered_s / static_cast<double>(esc) * 1e6, "us", esc);
  report->Metric("models.simple_train_s", grid.simple_train_s, "s", grid.cells);
  report->Metric("models.deep_train_s", grid.deep_train_s, "s", grid.cells);
  report->Metric("core.cascade_escalated_frac",
                 static_cast<double>(p.escalated) / n, "fraction", un);
  report->Metric("core.cascade_score_us", p.cascade_s / n * 1e6, "us", un);
  report->Metric("core.cascade_train_s", cascade->train_seconds(), "s", 1);
  report->Metric("la.gemm_calls_per_req", p.served_gemm.calls / n, "count", un);
  report->Metric("la.gemm_flops_per_req", p.served_gemm.flops / n, "count", un);
  report->Metric("la.gemm_calls_per_cell", grid.per_cell.calls, "count",
                 grid.cells);
  report->Metric("la.gemm_flops_per_cell", grid.per_cell.flops, "count",
                 grid.cells);
  report->Metric("data.generate_s", grid.generate_s, "s", 1);
  report->Metric("obs.trace_overhead_pct",
                 (Median(traced_s) / Median(untraced_s) - 1.0) * 100.0, "%",
                 traced_s.size() + untraced_s.size());
  // The untraced passes are not part of the traced replay.
  const double off_s = static_cast<double>(untraced_ns) * 1e-9;
  const double wall =
      static_cast<double>(replay_end - replay_start) * 1e-9 - off_s;
  const double uncovered =
      g_rec.UncoveredSeconds(replay_start, replay_end) - off_s;
  report->Metric("trace.remainder_pct", uncovered / wall * 100.0, "%", 1);

  std::printf("  self time by layer over the %.3f s traced replay and the "
              "traced grid pass:\n", wall);
  for (const auto& [layer, s] : g_rec.SelfByLayer()) {
    std::printf("    %-8s %9.4f s\n", layer.c_str(), s);
  }
  std::printf("    %-8s %9.4f s  (replay time no span covers)\n", "(none)",
              uncovered);
  const double path_us[] = {p.frame_decode_s / n * 1e6,
                            p.traffic_record_s / n * 1e6, p.served_s / n * 1e6,
                            p.response_encode_s / n * 1e6};
  const double path_sum = path_us[0] + path_us[1] + path_us[2] + path_us[3];
  std::printf("  per request on the served path: frame decode %.2f + traffic "
              "record %.2f + served model %.2f + response encode %.2f = %.2f "
              "us of the end-to-end cpu_us_per_req %.2f us; the remaining "
              "%.2f us (event loop, syscalls, batcher) no span covers\n",
              path_us[0], path_us[1], path_us[2], path_us[3], path_sum,
              cpu_us_per_req, cpu_us_per_req - path_sum);
  std::printf("  untraced pass %.3f s, traced pass %.3f s\n",
              Median(untraced_s), Median(traced_s));
  g_rec.Write(f.Str("run-dir") + "/spans.json");
}

// ---------------------------------------------------------------- serve

std::vector<std::string> DaemonArgs(const Flags& f) {
  const std::string model = f.Str("model");
  std::vector<std::string> args = {
      "--dataset",     f.Str("dataset"),     "--records",   f.Str("records"),
      "--seed",        f.Str("train-seed"),  "--model",     model,
      "--port",        "0",                  "--batch-cap", f.Str("batch-cap"),
      "--deadline-us", f.Str("deadline-us"), "--queue-cap", f.Str("queue-cap")};
  if (model == "CASCADE") {
    for (const char* k : {"cascade", "budget"}) {
      args.push_back(std::string("--") + k);
      args.push_back(f.Str(k));
    }
  }
  return args;
}

/// The serving measurements, accumulated over rounds.
struct Serving {
  std::vector<double> setup_s;
  std::vector<int> exit_codes;
  Phase closed, fixed, open;
  std::vector<double> window_qps;
  double cpu_s = 0.0;
  uint64_t measured = 0;
  std::vector<double> round_p50_us, round_p90_us;
  std::vector<double> rungs;
  struct Probe {
    double rate = 0.0;
    double p90_us = 0.0;
    bool met = false;
    Phase phase;
  };
  std::vector<Probe> probes;  // of the ladder, in order
  std::vector<double> reference_ns;  // before the run, each round, after

  void AddClosed(const ClosedResult& r) {
    closed.Merge(r.phase);
    window_qps.insert(window_qps.end(), r.window_qps.begin(),
                      r.window_qps.end());
    cpu_s += r.cpu_s;
    measured += r.measured;
  }
};

/// A run is `rounds` rounds; each round runs a closed-loop segment, an
/// open-loop segment, its share of the rate-ladder probes and a few grid
/// cells. Interleaving spreads every metric's samples over the whole run,
/// so a host slowdown lasting a few seconds moves each median only a
/// little. The daemon is launched --setup-reps times, each launch serving
/// a contiguous block of rounds.
int RunMain(const Flags& f) {
  const uint64_t seed = static_cast<uint64_t>(f.Num("seed"));
  const bool trace = f.Int("trace") != 0;
  const double seconds = f.Num("serve-seconds");
  const int rounds = std::max(1, f.Int("rounds"));
  const int reps = std::min(rounds, std::max(1, f.Int("setup-reps")));
  const std::string run_dir = f.Str("run-dir");
  const std::string daemon_bin = f.Str("daemon");
  const std::string log = run_dir + "/daemon.log";
  const std::vector<std::string> args = DaemonArgs(f);
  Report report;
  Serving sv;
  sv.reference_ns.push_back(ReferenceLoopNs());
  const Records stream = StreamRecords(f.Str("dataset"), seed, f.Int("stream"));
  // served_f1 is scored on one fixed record set, the same for every seed,
  // so identical code gives an identical figure.
  const int fixed_n = f.Int("fixed");
  const Records fixed_records =
      StreamRecords(f.Str("dataset"), kFixedRecordsSeed, fixed_n);

  double rate = f.Num("ladder-lo");
  for (int r = 0; r < f.Int("ladder-rungs"); ++r) {
    sv.rungs.push_back(std::round(rate));
    rate *= f.Num("ladder-ratio");
  }
  // slo_qps bisects the fixed ladder for the highest rung that meets the
  // limit, one probe per round: k steps settle 2^k - 1 rungs. A host stall
  // can make a rung miss but never make it meet, so a rung counts as missed
  // only when two probes miss it; 2k probes must fit in the rounds.
  const size_t rung_count = sv.rungs.size();
  int met = -1;                                 // highest rung known to meet
  int missed = static_cast<int>(rung_count);    // lowest rung known to miss
  std::vector<int> strikes(rung_count, 0);
  // Shares of --serve-seconds: closed loop 0.35 and open loop 0.35 over the
  // run, and 0.075 for each ladder probe.
  const double closed_s = 0.35 * seconds / rounds;
  const double open_s = 0.35 * seconds / rounds;
  const double probe_s = 0.075 * seconds;
  const double p90_limit = f.Num("p90-limit-us");

  Grid grid(f);
  const int cells_per_round = f.Int("grid-cells-per-round");

  Daemon d;
  for (int round = 0; round < rounds; ++round) {
    const int launch = round * reps / rounds;
    sv.reference_ns.push_back(ReferenceLoopNs());
    if (d.pid < 0) {
      d = SpawnDaemon(daemon_bin, args, log);
      sv.setup_s.push_back(d.setup_s);
    }
    if (round == 0) {
      sv.fixed = FixedPass(d.port, fixed_records, fixed_n, f.Int("window"));
    }
    sv.AddClosed(ClosedLoop(d.port, d.pid, stream, f.Int("window"),
                            0.2 * closed_s, closed_s, 0.1));
    const Phase open = OpenLoop(d.port, stream, f.Num("open-rate"),
                                0.1 * open_s, open_s, "open");
    sv.round_p50_us.push_back(Median(open.latency_us));
    sv.round_p90_us.push_back(Quantile(open.latency_us, 0.9));
    sv.open.Merge(open);
    // A probe meets the limit when its p90 does and it shed, failed and
    // left behind nothing.
    if (met + 1 < missed) {
      const int r = (met + missed) / 2;
      Serving::Probe p;
      p.rate = sv.rungs[r];
      p.phase = OpenLoop(d.port, stream, p.rate, 0.2 * probe_s, probe_s,
                         "rung");
      p.p90_us = Quantile(p.phase.latency_us, 0.9);
      p.met = p.phase.shed == 0 && p.phase.failed == 0 &&
              p.phase.answered == p.phase.sent && p.p90_us <= p90_limit;
      if (p.met) {
        met = r;
      } else if (++strikes[r] == 2) {
        missed = r;
      }
      sv.probes.push_back(std::move(p));
    }
    if (round + 1 == rounds || (round + 1) * reps / rounds != launch) {
      sv.exit_codes.push_back(StopDaemon(&d));
    }
    grid.Setup();
    grid.RunCells(cells_per_round);
  }
  while (grid.MinRepetitions() < static_cast<size_t>(f.Int("min-passes"))) {
    grid.RunCells(1);
  }

  // Offline twin: the same spec trained in-process scores the same records.
  const auto offline = Build(ServeSpec(f, f.Str("model")));
  const std::vector<std::string>& fixed_texts = fixed_records.texts;
  const std::vector<int>& fixed_labels = fixed_records.labels;
  const std::vector<double> offline_scores = offline->ScoreAll(fixed_texts);
  const double threshold = offline->DecisionThreshold();
  std::vector<int> served_pred(fixed_n), offline_pred(fixed_n);
  int decision_diff = 0, score_diff = 0;
  for (int i = 0; i < fixed_n; ++i) {
    served_pred[i] = sv.fixed.scores[i] >= threshold ? 1 : 0;
    offline_pred[i] = offline_scores[i] >= threshold ? 1 : 0;
    decision_diff += served_pred[i] != offline_pred[i];
    score_diff += sv.fixed.scores[i] != offline_scores[i];
  }
  const double served_f1 = semtag::eval::F1Score(fixed_labels, served_pred);
  const double offline_f1 = semtag::eval::F1Score(fixed_labels, offline_pred);
  sv.reference_ns.push_back(ReferenceLoopNs());

  // ---- end-to-end metrics
  std::printf("phases: closed %s | fixed %s | open %s\n",
              sv.closed.Summary().c_str(), sv.fixed.Summary().c_str(),
              sv.open.Summary().c_str());
  const bool grid_setup = f.Str("setup-from") == "grid";
  const std::vector<double>& setup = grid_setup ? grid.setup_s : sv.setup_s;
  report.Metric("setup_s", Median(setup), "s", setup.size());
  report.Metric("qps", Median(sv.window_qps), "1/s", sv.window_qps.size());
  const double cpu_us =
      sv.cpu_s * 1e6 / static_cast<double>(std::max<uint64_t>(sv.measured, 1));
  report.Metric("cpu_us_per_req", cpu_us, "us", sv.measured);
  // Latency percentiles are taken per round; the metric is their median,
  // so a host stall that spoils one round moves it little.
  const std::vector<double>& lat = sv.open.latency_us;
  report.Metric("p50_us", Median(sv.round_p50_us), "us", lat.size());
  report.Metric("p90_us", Median(sv.round_p90_us), "us", lat.size());
  report.Metric("slo_qps", met >= 0 ? sv.rungs[met] : 0.0, "1/s",
                sv.probes.size());
  report.Metric("served_f1", served_f1, "f1", fixed_n);
  size_t cell_runs = 0;
  for (const auto& v : grid.cell_s) cell_runs += v.size();
  report.Metric("grid_s", grid.PassSeconds(), "s", cell_runs);
  report.Metric("grid_f1", Mean(grid.cell_f1), "f1", grid.cell_f1.size());
  std::printf("  diag p99_us %.1f (n=%zu); generator lateness p50 %.1f us "
              "p99 %.1f us max %.1f us\n",
              Quantile(lat, 0.99), lat.size(), Median(sv.open.late_us),
              Quantile(sv.open.late_us, 0.99),
              Quantile(sv.open.late_us, 1.0));
  std::printf("  diag daemon set-up s:");
  for (double x : sv.setup_s) std::printf(" %.4f", x);
  std::printf("\n  diag ladder probes, rate:p90 us (x: missed):");
  for (const Serving::Probe& p : sv.probes) {
    std::printf(" %.0f:%.0f%s", p.rate, p.p90_us, p.met ? "" : "x");
  }
  if (met < 0) std::printf("; NO RUNG MET the %.0f us limit", p90_limit);
  std::printf("; round p90 us:");
  for (double x : sv.round_p90_us) std::printf(" %.0f", x);
  // Host drift within the run: the reference loop's median over the second
  // half of its samples against the first half, flagged beyond 15%.
  const auto mid = sv.reference_ns.begin() + sv.reference_ns.size() / 2;
  const double ref_drift =
      Median(std::vector<double>(mid, sv.reference_ns.end())) /
          Median(std::vector<double>(sv.reference_ns.begin(), mid)) -
      1.0;
  std::printf("\n  diag reference loop ns per multiply-add:");
  for (double x : sv.reference_ns) std::printf(" %.4f", x);
  std::printf("; second half over first half %+.1f%%%s\n", 100.0 * ref_drift,
              std::abs(ref_drift) > 0.15 ? "  HOST DRIFT" : "");
  report.Metric("ref_loop_ns", Median(sv.reference_ns), "ns",
                sv.reference_ns.size());

  // ---- correctness checks
  std::vector<const Phase*> phases = {&sv.closed, &sv.fixed, &sv.open};
  for (const Serving::Probe& p : sv.probes) phases.push_back(&p.phase);
  uint64_t min_v = UINT64_MAX, max_v = 0, failed = 0, unanswered = 0;
  for (const Phase* p : phases) {
    min_v = std::min(min_v, p->min_version);
    max_v = std::max(max_v, p->max_version);
    failed += p->failed;
    report.Count(p->sent, p->failed);
  }
  for (const Phase* p : {&sv.closed, &sv.fixed, &sv.open}) {
    unanswered += p->sent - p->answered;
  }
  report.Count(cell_runs, 0);
  report.Check("responses_match_tickets", failed == 0 && unanswered == 0,
               "failed " + std::to_string(failed) +
                   ", unanswered outside the ladder " +
                   std::to_string(unanswered));
  report.Check("model_version_constant", min_v == max_v && max_v == 1,
               "versions " + std::to_string(min_v) + ".." +
                   std::to_string(max_v));
  bool drained = true;
  for (int c : sv.exit_codes) drained = drained && c == 0;
  report.Check("daemon_sigterm_exit_0", drained,
               std::to_string(sv.exit_codes.size()) + " daemons");
  report.Check("served_f1_matches_offline",
               served_f1 == offline_f1 && decision_diff == 0,
               "served " + Num(served_f1) + " offline " + Num(offline_f1) +
                   ", decisions differ on " + std::to_string(decision_diff) +
                   ", scores on " + std::to_string(score_diff));
  report.Check("grid_f1_repeats_exactly",
               grid.mismatches == 0 && grid.MinRepetitions() >= 2,
               std::to_string(cell_runs) + " cell runs, " +
                   std::to_string(grid.mismatches) + " F1 mismatches");

  std::string ladder_json = "[";
  uint64_t ladder_sent = 0, ladder_shed = 0;
  for (size_t i = 0; i < sv.probes.size(); ++i) {
    const Phase& p = sv.probes[i].phase;
    ladder_sent += p.sent;
    ladder_shed += p.shed;
    ladder_json += (i ? ", " : "") + std::string("{\"rate\": ") +
                   Num(sv.probes[i].rate) + ", \"p90_us\": " +
                   Num(sv.probes[i].p90_us) + ", \"phase\": " +
                   p.Json() + "}";
  }
  ladder_json += "]";
  report.Extra("phases", "{\"closed\": " + sv.closed.Json() +
                             ", \"fixed\": " + sv.fixed.Json() +
                             ", \"open\": " + sv.open.Json() +
                             ", \"ladder\": " + ladder_json + "}");
  report.Extra("diagnostics",
               "{\"p99_us\": " + Num(Quantile(lat, 0.99)) +
                   ", \"lateness_p50_us\": " + Num(Median(sv.open.late_us)) +
                   ", \"lateness_p99_us\": " +
                   Num(Quantile(sv.open.late_us, 0.99)) +
                   ", \"reference_loop_drift\": " + Num(ref_drift) + "}");

  if (trace) {
    // Cross-check: the daemon's own obs snapshot over the fixed records.
    std::vector<std::string> metric_args = args;
    metric_args.push_back("--metrics=" + run_dir + "/daemon_metrics.json");
    Daemon md = SpawnDaemon(daemon_bin, metric_args, log);
    const Phase cross =
        FixedPass(md.port, fixed_records, fixed_n, f.Int("window"));
    const int code = StopDaemon(&md);
    // The same daemon serving nothing: its snapshot holds the training's
    // la/gemm work alone, so the difference is the serving's.
    std::vector<std::string> idle_args = args;
    idle_args.push_back("--metrics=" + run_dir + "/daemon_metrics_idle.json");
    Daemon idle = SpawnDaemon(daemon_bin, idle_args, log);
    const int idle_code = StopDaemon(&idle);
    report.Count(cross.sent, cross.failed);
    report.Check("metrics_daemon_exit_0",
                 code == 0 && idle_code == 0 && cross.failed == 0,
                 cross.Summary());
    int64_t escalated = -1;
    if (const auto* c =
            dynamic_cast<const semtag::core::Cascade*>(offline.get())) {
      escalated = 0;
      for (uint8_t m : c->EscalationMask(fixed_texts)) escalated += m;
    }
    report.Extra("cross_check",
                 "{\"metrics_path\": " +
                     Quote(run_dir + "/daemon_metrics.json") +
                     ", \"fixed_records\": " + std::to_string(fixed_n) +
                     ", \"offline_escalated\": " + std::to_string(escalated) +
                     "}");
    const GridTrace gt = grid.Trace();
    ServingTrace(f, stream, Median(lat),
                 ladder_sent > 0 ? static_cast<double>(ladder_shed) /
                                       static_cast<double>(ladder_sent)
                                 : 0.0,
                 ladder_sent, cpu_us, gt, &report);
  }
  report.Write(run_dir + "/result.json");
  return 0;
}

}  // namespace pb

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench_harness: refusing to measure a build "
                       "without NDEBUG (build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 1;
#endif
  semtag::SetLogLevel(semtag::LogLevel::kWarning);
  semtag::core::EnsureCascadeRegistered();
  if (argc < 2 || std::string(argv[1]) != "run") {
    std::fprintf(stderr, "usage: perfbench_harness run --flag value ...\n");
    return 2;
  }
  return pb::RunMain(pb::Flags(argc, argv, 2));
}
