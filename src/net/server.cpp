#include "net/server.hpp"

#include <algorithm>
#include <cstring>
#include <system_error>
#include <utility>

#include "service/errors.hpp"

namespace cofhee::net {

namespace {

/// Bound on the HTTP request head we are willing to buffer before replying.
constexpr std::size_t kMaxHttpHead = 8192;

}  // namespace

EvalServer::EvalServer(service::EvalService& svc, ServerOptions opts)
    : svc_(svc), opts_(opts) {
  opts_.max_connections = std::max<std::size_t>(1, opts_.max_connections);
  listen_fd_.reset(::socket(AF_INET, SOCK_STREAM, 0));
  if (!listen_fd_.valid())
    throw SocketError(std::string("net: socket failed: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opts_.port);
  if (::bind(listen_fd_.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0)
    throw SocketError(std::string("net: bind failed: ") + std::strerror(errno));
  if (::listen(listen_fd_.get(), opts_.backlog) != 0)
    throw SocketError(std::string("net: listen failed: ") + std::strerror(errno));
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    throw SocketError(std::string("net: getsockname failed: ") + std::strerror(errno));
  port_ = ntohs(addr.sin_port);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

EvalServer::~EvalServer() { stop(); }

void EvalServer::stop() {
  if (stopping_.exchange(true)) return;  // first caller tears down
  // Wake the accept loop and join it first, so no new session can appear,
  // then kick every live session off its blocking read (shutdown, not
  // close -- the owning session thread still closes).
  if (listen_fd_.valid()) ::shutdown(listen_fd_.get(), SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    for (int fd : session_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    threads.swap(session_threads_);
  }
  for (auto& t : threads)
    if (t.joinable()) t.join();
  listen_fd_.reset();
}

NetServerStats EvalServer::stats() const {
  NetServerStats s;
  s.connections_accepted = accepted_.load();
  s.connections_busy_rejected = busy_rejected_.load();
  s.connections_active = active_.load();
  s.frames_rx = frames_rx_.load();
  s.frames_tx = frames_tx_.load();
  s.rejects_sent = rejects_sent_.load();
  s.http_requests = http_requests_.load();
  s.bad_frames = bad_frames_.load();
  return s;
}

std::string EvalServer::metrics_text() {
  std::lock_guard<std::mutex> lk(metrics_mu_);
  obs::export_service_stats(svc_.stats(), registry_);
  const NetServerStats ns = stats();
  const auto c = [&](const char* name, const char* help, std::uint64_t v) {
    registry_.counter(name, help).set(static_cast<double>(v));
  };
  c("cofhee_net_connections_total", "TCP connections accepted.",
    ns.connections_accepted);
  c("cofhee_net_connections_busy_rejected_total",
    "Connections rejected with kServerBusy at the session limit.",
    ns.connections_busy_rejected);
  c("cofhee_net_frames_rx_total", "Wire frames received (valid headers).",
    ns.frames_rx);
  c("cofhee_net_frames_tx_total", "Wire frames sent.", ns.frames_tx);
  c("cofhee_net_rejects_sent_total", "kReject frames sent (all causes).",
    ns.rejects_sent);
  c("cofhee_net_http_requests_total", "HTTP metrics scrapes served.",
    ns.http_requests);
  c("cofhee_net_bad_frames_total",
    "Sessions dropped for unrecoverable framing damage.", ns.bad_frames);
  registry_.gauge("cofhee_net_connections_active", "Client sessions open now.")
      .set(static_cast<double>(ns.connections_active));
  return registry_.render_text();
}

void EvalServer::accept_loop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (stop()) or unrecoverable
    }
    accepted_.fetch_add(1);
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    reap_sessions();
    if (active_.load() >= opts_.max_connections) {
      // Polite backpressure: a typed reject, not a silent hangup.
      busy_rejected_.fetch_add(1);
      send_reject(fd, RejectCode::kServerBusy, 0,
                  "server at its connection limit; retry later");
      ::close(fd);
      continue;
    }
    active_.fetch_add(1);
    bool started = true;
    {
      std::lock_guard<std::mutex> lk(sessions_mu_);
      session_fds_.push_back(fd);
      try {
        session_threads_.emplace_back([this, fd] { session(fd); });
      } catch (const std::system_error&) {
        session_fds_.pop_back();
        started = false;
      }
    }
    if (!started) {
      // No thread to serve it (thread or mapping limit): shed the
      // connection like one past max_connections instead of terminating.
      active_.fetch_sub(1);
      busy_rejected_.fetch_add(1);
      send_reject(fd, RejectCode::kServerBusy, 0,
                  "server cannot start a session; retry later");
      ::close(fd);
    }
  }
}

void EvalServer::reap_sessions() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    for (const std::thread::id id : finished_sessions_) {
      const auto it = std::find_if(session_threads_.begin(), session_threads_.end(),
                                   [id](const std::thread& t) { return t.get_id() == id; });
      done.push_back(std::move(*it));
      *it = std::move(session_threads_.back());
      session_threads_.pop_back();
    }
    finished_sessions_.clear();
  }
  for (auto& t : done) t.join();
}

void EvalServer::session(int fd) {
  ScopedFd conn(fd);
  service::SubmitOptions defaults;
  std::uint8_t sniff[4];
  try {
    if (read_exact(fd, sniff, sizeof(sniff))) {
      if (std::memcmp(sniff, "GET ", 4) == 0) {
        // One-shot HTTP scrape: drain the request head (bounded), answer
        // with the Prometheus text, close.
        http_requests_.fetch_add(1);
        std::string head(reinterpret_cast<const char*>(sniff), 4);
        std::uint8_t b = 0;
        while (head.size() < kMaxHttpHead && head.find("\r\n\r\n") == std::string::npos &&
               read_exact(fd, &b, 1))
          head.push_back(static_cast<char>(b));
        const std::string body = metrics_text();
        const std::string resp =
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
            "Content-Length: " + std::to_string(body.size()) + "\r\n"
            "Connection: close\r\n\r\n" + body;
        write_all(fd, reinterpret_cast<const std::uint8_t*>(resp.data()), resp.size());
      } else {
        // Framed session: the sniffed bytes are the first 4 header bytes.
        std::vector<std::uint8_t> prefix(sniff, sniff + sizeof(sniff));
        FrameHeader hdr;
        std::vector<std::uint8_t> payload;
        bool open = read_frame(fd, &hdr, &payload, prefix);
        while (open) {
          frames_rx_.fetch_add(1);
          try {
            if (!handle_frame(fd, hdr, payload, &defaults)) break;
          } catch (const WireError& e) {
            // Header was fine and the payload fully read: framing is
            // intact, so reject the request and keep the session.
            send_reject(fd, e.code(), 0, e.what());
          }
          open = read_frame(fd, &hdr, &payload);
        }
      }
    }
  } catch (const WireError& e) {
    // Header-level damage (magic/CRC/flags): resynchronizing the stream is
    // impossible, so reject once and drop the connection.
    bad_frames_.fetch_add(1);
    send_reject(fd, e.code(), 0, e.what());
  } catch (const SocketError&) {
    // Peer went away mid-frame; nothing to answer.
  }
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    const auto it = std::find(session_fds_.begin(), session_fds_.end(), fd);
    if (it != session_fds_.end()) session_fds_.erase(it);
    finished_sessions_.push_back(std::this_thread::get_id());
  }
  active_.fetch_sub(1);
}

bool EvalServer::handle_frame(int fd, const FrameHeader& hdr,
                              const std::vector<std::uint8_t>& payload,
                              service::SubmitOptions* defaults) {
  if (hdr.version != kWireVersion) {
    send_reject(fd, RejectCode::kVersionUnsupported, 0,
                "server speaks wire protocol v" + std::to_string(kWireVersion) +
                    ", got v" + std::to_string(hdr.version));
    return true;  // framing is version-independent; the session survives
  }
  switch (hdr.kind) {
    case FrameKind::kHello: {
      const HelloFrame h = decode_hello(payload);
      if (h.version != kWireVersion) {
        send_reject(fd, RejectCode::kVersionUnsupported, 0,
                    "unsupported protocol version in hello");
        return true;
      }
      *defaults = h.defaults;
      HelloFrame ack;
      ack.version = kWireVersion;
      ack.defaults = *defaults;
      send_frame(fd, FrameKind::kHelloAck, encode_hello(ack));
      frames_tx_.fetch_add(1);
      return true;
    }
    case FrameKind::kSubmit: {
      SubmitFrame sf = decode_submit(payload);
      // A submit tagged with all-default options inherits the session
      // defaults from hello (how a connection "carries" its tenant).
      const service::SubmitOptions none;
      if (sf.options.tenant == none.tenant && sf.options.priority == none.priority &&
          sf.options.weight == none.weight)
        sf.options = *defaults;
      handle_submit(fd, std::move(sf));
      return true;
    }
    case FrameKind::kStatsRequest: {
      Writer w;
      w.str(metrics_text());
      send_frame(fd, FrameKind::kStatsReply, w.take());
      frames_tx_.fetch_add(1);
      return true;
    }
    case FrameKind::kBye:
      return false;
    default:
      // Server-to-client kinds arriving at the server are a protocol
      // violation, but the framing is intact -- reject and keep going.
      send_reject(fd, RejectCode::kMalformedRequest,
                  0, std::string("unexpected frame kind at the server: ") +
                         std::to_string(static_cast<int>(hdr.kind)));
      return true;
  }
}

void EvalServer::handle_submit(int fd, SubmitFrame sf) {
  std::vector<std::future<bfv::Ciphertext>> futures;
  try {
    futures = svc_.submit_batch(std::move(sf.requests), sf.options);
  } catch (const service::RateLimitedError& e) {
    send_reject(fd, RejectCode::kRateLimited, e.retry_after_seconds(), e.what());
    return;
  } catch (const service::TenantQuotaError& e) {
    send_reject(fd, RejectCode::kQuotaExceeded, 0, e.what());
    return;
  } catch (const service::BatchTooLargeError& e) {
    send_reject(fd, RejectCode::kBatchTooLarge, 0, e.what());
    return;
  } catch (const service::QueueFullError& e) {
    send_reject(fd, RejectCode::kQueueFull, 0, e.what());
    return;
  } catch (const service::ServiceStoppedError& e) {
    send_reject(fd, RejectCode::kServiceStopped, 0, e.what());
    return;
  } catch (const std::invalid_argument& e) {
    send_reject(fd, RejectCode::kMalformedRequest, 0, e.what());
    return;
  } catch (const std::exception& e) {
    send_reject(fd, RejectCode::kInternal, 0, e.what());
    return;
  }
  // Admission succeeded: every request now settles individually.  Waiting
  // here blocks only this session's thread, which is the back-to-back
  // request/response discipline the protocol promises.
  std::vector<ResultItem> items;
  items.reserve(futures.size());
  for (auto& fu : futures) {
    ResultItem item;
    try {
      item.value = fu.get();
      item.ok = true;
    } catch (const std::exception& e) {
      item.ok = false;
      item.code = RejectCode::kInternal;
      item.message = e.what();
    }
    items.push_back(std::move(item));
  }
  send_frame(fd, FrameKind::kResultBatch, encode_result_batch(items));
  frames_tx_.fetch_add(1);
}

void EvalServer::send_reject(int fd, RejectCode code, double retry_after_seconds,
                             const std::string& message) {
  RejectFrame rj;
  rj.code = code;
  rj.retry_after_seconds = retry_after_seconds;
  rj.message = message;
  try {
    send_frame(fd, FrameKind::kReject, encode_reject(rj));
    rejects_sent_.fetch_add(1);
    frames_tx_.fetch_add(1);
  } catch (const SocketError&) {
    // The peer is gone; the session loop notices on its next read.
  }
}

}  // namespace cofhee::net
