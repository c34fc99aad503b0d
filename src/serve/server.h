#ifndef SEMTAG_SERVE_SERVER_H_
#define SEMTAG_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "serve/batcher.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "serve/replanner.h"
#include "serve/traffic_stats.h"

namespace semtag::serve {

struct ServerOptions {
  /// Bind address. The daemon is an internal service; default loopback.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port (tests/benches read it back via port()).
  int port = 0;
  BatchingOptions batching;
  /// Accepted connections beyond this are closed immediately.
  int max_connections = 1024;
  /// TrafficStats sliding-window size.
  int traffic_window = 1024;
  /// Online re-planning loop (serve/replanner.h). Its epoch geometry
  /// (epoch_records/epoch_window) always shapes TrafficStats, so the
  /// profile gauges work even with the loop disabled.
  ReplanOptions replan;
  /// Watch the process ShutdownSignal self-pipe (common/signal.h) and
  /// drain gracefully on SIGINT/SIGTERM. The daemon sets this; tests
  /// drive Stop() directly instead.
  bool watch_signals = false;
};

/// Counters the server accumulates outside the obs registry (always on,
/// cheap), surfaced by kStats and the drain summary.
struct ServerCounters {
  uint64_t accepted = 0;
  uint64_t rejected_connections = 0;
  uint64_t requests = 0;
  uint64_t shed = 0;
  uint64_t protocol_errors = 0;
  uint64_t swaps_ok = 0;
  uint64_t swaps_failed = 0;
};

/// The online tagging daemon's front end (DESIGN.md "Serving
/// architecture"): a single-threaded epoll event loop over non-blocking
/// sockets speaking the length-prefixed protocol (serve/protocol.h),
/// feeding the dynamic batcher (serve/batcher.h) and serving scores from
/// the hot-swappable registry (serve/model_registry.h).
///
/// Threads: the event loop owns all connection state; the batcher thread
/// scores and posts completions through a queue + eventfd wakeup — one
/// wakeup per scored batch, not per request; swap requests build their
/// replacement model on short-lived worker threads and wake the loop as
/// soon as they finish. No connection state is ever touched off the loop
/// thread.
///
/// Graceful drain (SIGTERM via the ShutdownSignal fd, or Stop()): close
/// the listen socket, stop reading, flush queued requests as final
/// partial batches, write every pending response, then exit and publish a
/// final metrics snapshot. A second signal aborts the flush wait.
class Server {
 public:
  /// The registry must outlive the server and hold a model before
  /// requests arrive (Install first, then Start).
  Server(ModelRegistry* registry, ServerOptions options);
  ~Server();

  /// Binds, listens, and starts the loop + batcher threads.
  Status Start();

  /// Bound port (valid after Start; the ephemeral-port answer).
  int port() const { return port_; }

  /// Requests a graceful drain and joins every thread. Idempotent.
  void Stop();

  /// True until the event loop exits.
  bool running() const { return running_.load(); }

  ServerCounters counters() const;
  TrafficStats& traffic_stats() { return stats_; }
  /// Null unless options.replan.enabled.
  Replanner* replanner() { return replanner_.get(); }

  /// One-line JSON used by the kStats op and the drain log.
  std::string StatsJson() const;

 private:
  struct Connection;
  struct Completion {
    uint64_t conn_id = 0;
    /// A score response (request_start_us > 0) is formatted on the loop,
    /// straight into the connection's output buffer; any other carries
    /// its framed bytes.
    double request_start_us = 0.0;   // 0 = not a score completion
    uint64_t ticket = 0;
    uint64_t model_version = 0;
    double score = 0.0;
    std::string frame;
  };

  void RunLoop();
  void HandleAccept();
  void HandleReadable(Connection* conn);
  void HandleWritable(Connection* conn);
  bool HandleFrame(Connection* conn, uint8_t opcode,
                   std::string_view payload);
  /// Queues one completion and wakes the loop (kSwap replies).
  void PostCompletion(Completion completion);
  /// Batch-done hook: moves the batch's score completions to the loop's
  /// queue under one lock and wakes the loop once.
  void PostScoredBatch();
  /// Writes the eventfd; counted as serve/loop_wakeups.
  void WakeLoop();
  /// Appends every queued response to its connection, then writes each
  /// touched connection once.
  void DrainCompletions();
  void FlushAndClose();
  void CloseConnection(uint64_t conn_id);
  void UpdateEpoll(Connection* conn);
  void SendNow(Connection* conn, StatusCode code, std::string_view payload);

  ModelRegistry* registry_;
  const ServerOptions options_;
  TrafficStats stats_;
  std::unique_ptr<Replanner> replanner_;  // before batcher_: polled by it
  Batcher batcher_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: completions + external Stop
  int port_ = 0;
  uint64_t next_conn_id_ = 1;
  std::map<uint64_t, std::unique_ptr<Connection>> connections_;

  std::mutex completions_mu_;
  std::vector<Completion> completions_;
  std::vector<Completion> scored_;       // batcher thread only
  std::vector<Connection*> touched_;     // loop thread only
  std::vector<std::thread> swap_threads_;

  mutable std::mutex counters_mu_;
  ServerCounters counters_;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
  bool started_ = false;
  std::thread loop_thread_;
};

}  // namespace semtag::serve

#endif  // SEMTAG_SERVE_SERVER_H_
