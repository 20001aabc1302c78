// The production front door: a loopback TCP server wrapping an
// EvalService behind the CoFHEE wire protocol (net/wire.hpp).
//
//   ChipFarm farm(4);
//   EvalService svc(scheme, farm, opts);          // tenancy limits live here
//   EvalServer server(svc);                       // ephemeral loopback port
//   // clients connect to 127.0.0.1:server.port() (net/client.hpp)
//
// One accept thread hands each connection to its own session thread.  A
// session speaks framed requests -- Hello/Submit/StatsRequest/Bye -- and
// every admission failure the service raises (rate limit, quota, queue
// full, oversized batch, shutdown) is translated into a typed kReject
// frame on the SAME connection: an over-limit tenant gets a catchable
// error with a retry-after hint, never a dropped socket.  Only losing the
// framing itself (bad magic, CRC failure) costs the connection.
//
// The same port doubles as the observability endpoint: a session whose
// first bytes are "GET " is served one HTTP response -- the Prometheus
// text exposition of obs::export_service_stats over the live
// EvalService::stats() snapshot plus the server's own cofhee_net_*
// counters -- and closed, so `curl http://127.0.0.1:PORT/metrics` works
// against the same front door the clients use.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket_util.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/service_export.hpp"
#include "service/eval_service.hpp"

namespace cofhee::net {

/// Runtime configuration of an EvalServer.
struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back via EvalServer::port()).
  std::uint16_t port = 0;
  /// Most concurrent client sessions; a connection past the limit is sent
  /// a kReject{kServerBusy} frame and closed (polite backpressure, not a
  /// silent RST).  Normalized to >= 1.
  std::size_t max_connections = 64;
  /// Listen backlog handed to listen(2).
  int backlog = 64;
};

/// Monotonic transport-layer counters (wire traffic, not service work).
struct NetServerStats {
  /// Connections accepted (including ones rejected as busy).
  std::uint64_t connections_accepted = 0;
  /// Connections rejected with kServerBusy at the limit.
  std::uint64_t connections_busy_rejected = 0;
  /// Sessions currently open.
  std::uint64_t connections_active = 0;
  /// Frames read from clients (valid headers only).
  std::uint64_t frames_rx = 0;
  /// Frames written to clients (results, acks, rejects, stats).
  std::uint64_t frames_tx = 0;
  /// kReject frames sent (all causes).
  std::uint64_t rejects_sent = 0;
  /// HTTP GET /metrics requests served.
  std::uint64_t http_requests = 0;
  /// Sessions dropped for unrecoverable framing damage (bad magic/CRC).
  std::uint64_t bad_frames = 0;
};

/// Loopback TCP front end over an EvalService.
class EvalServer {
 public:
  /// Bind 127.0.0.1, start the accept thread.  `svc` must outlive the
  /// server.  Throws SocketError when the socket cannot be bound.
  explicit EvalServer(service::EvalService& svc, ServerOptions opts = {});
  /// Stops and joins (see stop()).
  ~EvalServer();

  EvalServer(const EvalServer&) = delete;
  EvalServer& operator=(const EvalServer&) = delete;

  /// The bound TCP port (the ephemeral pick when ServerOptions::port == 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Stop accepting, close the listener, join every session thread.
  /// In-flight sessions finish their current request first.  Idempotent.
  void stop();

  /// Transport-counter snapshot.
  [[nodiscard]] NetServerStats stats() const;

  /// The Prometheus text exposition served on HTTP GET and kStatsRequest:
  /// export_service_stats over a live EvalService::stats() snapshot plus
  /// the cofhee_net_* transport counters, rendered from a registry that
  /// persists across scrapes (counters are monotonic as Prometheus
  /// expects).  Thread-safe; scrapes are serialized.
  [[nodiscard]] std::string metrics_text();

 private:
  void accept_loop();
  /// Join the session threads that have recorded themselves finished.
  void reap_sessions();
  void session(int fd);
  /// Dispatch one decoded frame; returns false when the session must end
  /// (kBye, or a reply could not be sent).
  bool handle_frame(int fd, const FrameHeader& hdr,
                    const std::vector<std::uint8_t>& payload,
                    service::SubmitOptions* defaults);
  /// Run a decoded submit against the service and reply (kResultBatch on
  /// admission, kReject on a typed admission failure).
  void handle_submit(int fd, SubmitFrame sf);
  /// Send a kReject frame (counted; send failures are swallowed -- the
  /// session loop notices the dead socket on its next read).
  void send_reject(int fd, RejectCode code, double retry_after_seconds,
                   const std::string& message);

  service::EvalService& svc_;
  ServerOptions opts_;
  ScopedFd listen_fd_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> busy_rejected_{0};
  std::atomic<std::uint64_t> active_{0};
  std::atomic<std::uint64_t> frames_rx_{0};
  std::atomic<std::uint64_t> frames_tx_{0};
  std::atomic<std::uint64_t> rejects_sent_{0};
  std::atomic<std::uint64_t> http_requests_{0};
  std::atomic<std::uint64_t> bad_frames_{0};

  std::mutex sessions_mu_;  // guards the three session lists below
  std::vector<std::thread> session_threads_;
  std::vector<std::thread::id> finished_sessions_;  // to join (accept_loop)
  std::vector<int> session_fds_;          // live session sockets (for stop())
  std::mutex metrics_mu_;                 // serializes scrapes over registry_
  obs::MetricsRegistry registry_;
  std::thread accept_thread_;
};

}  // namespace cofhee::net
