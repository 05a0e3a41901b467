#include "transport/socket_net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "obs/stats.hpp"
#include "transport/socket_wire.hpp"

namespace hydra::transport {
namespace {

using Clock = std::chrono::steady_clock;

/// Full write with EINTR handling. MSG_NOSIGNAL: a peer that died mid-run
/// must surface as a failed write, not a process-killing SIGPIPE.
bool write_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Full read. Returns 1 on success, 0 on clean EOF before the first byte
/// (orderly connection end at a frame boundary), -1 on error or truncation.
int read_exact(int fd, std::uint8_t* data, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) return got == 0 ? 0 : -1;
    got += static_cast<std::size_t>(n);
  }
  return 1;
}

enum class ReadFrame { kOk, kEof, kBad };

/// Reads one length-prefixed frame body. The length prefix is validated
/// BEFORE any allocation: zero or above wire::kMaxFrameBytes is a framing
/// attack (or stream corruption) and poisons the connection.
ReadFrame read_frame(int fd, Bytes& body) {
  std::uint8_t prefix[4];
  switch (read_exact(fd, prefix, sizeof prefix)) {
    case 0: return ReadFrame::kEof;
    case -1: return ReadFrame::kBad;
    default: break;
  }
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= std::uint32_t{prefix[i]} << (8 * i);
  if (len == 0 || len > wire::kMaxFrameBytes) return ReadFrame::kBad;
  body.resize(len);
  return read_exact(fd, body.data(), len) == 1 ? ReadFrame::kOk : ReadFrame::kBad;
}

/// One frame = one buffer = one send(): prefix + body, serialized per link
/// by `mutex` (the party's writer thread and the watchdog's FIN share fds).
bool write_frame(int fd, std::mutex& mutex, const Bytes& body) {
  Bytes frame;
  frame.reserve(4 + body.size());
  const auto len = static_cast<std::uint32_t>(body.size());
  for (int i = 0; i < 4; ++i) frame.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  frame.insert(frame.end(), body.begin(), body.end());
  const std::lock_guard lock(mutex);
  return write_all(fd, frame.data(), frame.size());
}

void set_nodelay(int fd, bool uds) {
  if (uds) return;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

void set_recv_timeout(int fd, long seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

/// "host:port" with a numeric IPv4 host (the socket backend does not
/// resolve names — deployment docs say to pass addresses).
std::optional<sockaddr_in> parse_tcp(const std::string& endpoint) {
  const auto colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0) return std::nullopt;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  const std::string host = endpoint.substr(0, colon);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return std::nullopt;
  const long port = std::strtol(endpoint.c_str() + colon + 1, nullptr, 10);
  if (port < 0 || port > 65535) return std::nullopt;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  return addr;
}

std::optional<sockaddr_un> parse_uds(const std::string& endpoint) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (endpoint.empty() || endpoint.size() >= sizeof addr.sun_path) return std::nullopt;
  std::memcpy(addr.sun_path, endpoint.c_str(), endpoint.size() + 1);
  return addr;
}

/// Binds + listens on `endpoint`; for tcp port 0 the endpoint string is
/// rewritten with the kernel-assigned port. Returns -1 on failure.
int listen_on(std::string& endpoint, bool uds) {
  if (uds) {
    const auto addr = parse_uds(endpoint);
    if (!addr) return -1;
    ::unlink(endpoint.c_str());
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&*addr), sizeof *addr) != 0 ||
        ::listen(fd, 64) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  auto addr = parse_tcp(endpoint);
  if (!addr) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&*addr), sizeof *addr) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return -1;
  }
  if (addr->sin_port == 0) {
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      ::close(fd);
      return -1;
    }
    char host[INET_ADDRSTRLEN] = {};
    ::inet_ntop(AF_INET, &bound.sin_addr, host, sizeof host);
    endpoint = std::string(host) + ":" + std::to_string(ntohs(bound.sin_port));
  }
  return fd;
}

/// Connects to `endpoint`, retrying until `deadline` — in multi-process mode
/// peers come up at their own pace. Returns -1 once the deadline passes.
/// Every dial (including retries) bumps `attempts`, so the health report
/// shows how long peers kept each other waiting.
int connect_retry(const std::string& endpoint, bool uds, Clock::time_point deadline,
                  std::atomic<std::uint64_t>& attempts) {
  for (;;) {
    attempts.fetch_add(1, std::memory_order_relaxed);
    int fd = -1;
    if (uds) {
      if (const auto addr = parse_uds(endpoint)) {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd >= 0 &&
            ::connect(fd, reinterpret_cast<const sockaddr*>(&*addr), sizeof *addr) == 0) {
          return fd;
        }
      }
    } else {
      if (const auto addr = parse_tcp(endpoint)) {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd >= 0 &&
            ::connect(fd, reinterpret_cast<const sockaddr*>(&*addr), sizeof *addr) == 0) {
          set_nodelay(fd, uds);
          return fd;
        }
      }
    }
    if (fd >= 0) ::close(fd);
    if (Clock::now() >= deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

}  // namespace

std::string validate_uds_endpoint(const std::string& endpoint) {
  if (endpoint.empty()) return "uds endpoint is empty";
  const std::size_t limit = sizeof(sockaddr_un{}.sun_path);
  if (endpoint.size() >= limit) {
    return "uds endpoint \"" + endpoint + "\" is " +
           std::to_string(endpoint.size()) +
           " bytes, but AF_UNIX socket paths are limited to " +
           std::to_string(limit - 1) +
           " bytes (sockaddr_un::sun_path); use a shorter path, e.g. under "
           "/tmp";
  }
  return "";
}


SocketNetwork::SocketNetwork(net::BackendConfig config, bool uds,
                             std::unique_ptr<sim::DelayModel> delay_model)
    : ThreadNetwork(std::move(config), std::move(delay_model)),
      uds_(uds),
      fin_sent_(config_.n, false) {
  const std::size_t n = config_.n;
  if (!config_.local_parties.empty()) {
    local_.assign(n, false);
    for (const PartyId id : config_.local_parties) {
      HYDRA_ASSERT_MSG(id < n, "socket transport: local party id >= n");
      local_[id] = true;
    }
  }
  all_local_ = std::all_of(local_.begin(), local_.end(), [](bool b) { return b; });
  out_queues_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out_queues_.push_back(std::make_unique<Mailbox>());
  out_fds_.assign(n * n, -1);
}

void SocketNetwork::enqueue(PartyId to, Mailbox::Item item) {
  // Self-deliveries bypass the socket (local computation, same as the
  // in-process transport); everything else is queued for the sender's
  // writer, which serializes the frame when its delay elapses.
  const PartyId from = item.from;
  item.seq = arrival_seq_.fetch_add(1, std::memory_order_relaxed);
  if (from == to) {
    mailboxes_[to]->push(std::move(item));
    HealthAtomics::raise(health_.mailbox_hwm, mailboxes_[to]->size());
    return;
  }
  item.from = to;  // writer-queue convention: `from` holds the DESTINATION
  out_queues_[from]->push(std::move(item));
  HealthAtomics::raise(health_.egress_hwm, out_queues_[from]->size());
}

bool SocketNetwork::send_frame(int fd, std::mutex& mutex, const Bytes& body) {
  health_.frame_bytes_buckets[net::TransportHealth::bucket_of(body.size())]
      .fetch_add(1, std::memory_order_relaxed);
  // Flush latency is lock wait + kernel send() — under backpressure (full
  // socket buffers) this is where the stall shows up, which is exactly what
  // the histogram is for.
  const auto t0 = Clock::now();
  const bool ok = write_frame(fd, mutex, body);
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  health_.flush_ns_buckets[net::TransportHealth::bucket_of(ns)].fetch_add(
      1, std::memory_order_relaxed);
  if (ok) health_.frames_sent.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

bool SocketNetwork::flush_link(int fd, std::mutex& mutex, const Bytes& buffer,
                               std::uint32_t frames) {
  const auto t0 = Clock::now();
  bool ok;
  {
    const std::lock_guard lock(mutex);
    ok = write_all(fd, buffer.data(), buffer.size());
  }
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  health_.flush_ns_buckets[net::TransportHealth::bucket_of(ns)].fetch_add(
      1, std::memory_order_relaxed);
  health_.flushes.fetch_add(1, std::memory_order_relaxed);
  if (ok) health_.frames_sent.fetch_add(frames, std::memory_order_relaxed);
  return ok;
}

net::TransportHealth SocketNetwork::snapshot_health() const {
  net::TransportHealth out;
  out.connect_attempts = health_.connect_attempts.load(std::memory_order_relaxed);
  out.connects = health_.connects.load(std::memory_order_relaxed);
  out.accepts = health_.accepts.load(std::memory_order_relaxed);
  out.frames_sent = health_.frames_sent.load(std::memory_order_relaxed);
  out.flushes = health_.flushes.load(std::memory_order_relaxed);
  out.frames_received = health_.frames_received.load(std::memory_order_relaxed);
  out.egress_hwm = health_.egress_hwm.load(std::memory_order_relaxed);
  out.mailbox_hwm = health_.mailbox_hwm.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < net::TransportHealth::kBuckets; ++i) {
    out.flush_ns_buckets[i] =
        health_.flush_ns_buckets[i].load(std::memory_order_relaxed);
    out.frame_bytes_buckets[i] =
        health_.frame_bytes_buckets[i].load(std::memory_order_relaxed);
  }
  return out;
}

void SocketNetwork::writer_loop(PartyId from) {
  const std::size_t n = config_.n;
  // Per-destination coalescing buffers, reused across flush windows: every
  // frame due in a window is appended length-prefixed to its link's buffer,
  // then each touched link gets ONE kernel send — under multi-instance load
  // thousands of tiny frames share a syscall instead of paying one each.
  std::vector<Bytes> buffers(n);
  std::vector<std::uint32_t> frames(n, 0);
  std::vector<PartyId> touched;
  for (;;) {
    auto item = out_queues_[from]->pop_due([this] { return now_ticks(); },
                                           [this](Time at) { return tick_deadline(at); },
                                           kTimeInfinity);
    if (!item) return;  // queue closed: shutdown
    const Time now = now_ticks();
    for (;;) {
      const PartyId to = item->from;  // destination, by writer-queue convention
      if (out_fds_[from * n + to] >= 0) {
        const Bytes body = wire::encode_msg(from, to, item->cause, item->msg);
        // Per-frame size accounting happens at append; the flush-latency
        // histogram covers the whole coalesced write (flush_link).
        health_.frame_bytes_buckets[net::TransportHealth::bucket_of(body.size())]
            .fetch_add(1, std::memory_order_relaxed);
        Bytes& buffer = buffers[to];
        const auto len = static_cast<std::uint32_t>(body.size());
        for (int i = 0; i < 4; ++i) {
          buffer.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
        }
        buffer.insert(buffer.end(), body.begin(), body.end());
        if (frames[to]++ == 0) touched.push_back(to);
      }
      // Drain every sibling already due so it rides the same flush. The
      // non-blocking probe keeps delay semantics exact: a frame whose
      // deadline is still in the future waits for its own window.
      auto next = out_queues_[from]->try_pop_due(now);
      if (!next) break;
      item = std::move(next);
    }
    for (const PartyId to : touched) {
      if (!flush_link(out_fds_[from * n + to], *link_mutexes_[from * n + to],
                      buffers[to], frames[to]) &&
          !stop_.load(std::memory_order_acquire)) {
        HYDRA_LOG_ERROR("socket_net: write to party %u failed (%s)", to,
                        std::strerror(errno));
      }
      buffers[to].clear();
      frames[to] = 0;
    }
    touched.clear();
  }
}

void SocketNetwork::poison(int fd) {
  decode_dropped_.fetch_add(1, std::memory_order_relaxed);
  // The fd stays registered in conn_fds_ (closed at teardown); shutdown()
  // alone is what makes the peer read EOF now rather than at run end.
  ::shutdown(fd, SHUT_RDWR);
}

void SocketNetwork::reader_loop(int fd, PartyId bound_from, PartyId local_to) {
  const std::size_t n = config_.n;
  Bytes body;
  while (!stop_.load(std::memory_order_acquire)) {
    switch (read_frame(fd, body)) {
      case ReadFrame::kEof:
        return;  // orderly close at a frame boundary
      case ReadFrame::kBad:
        // Framing error — the stream is desynchronized; nothing after this
        // point can be trusted, so the connection is poisoned and closed.
        poison(fd);
        return;
      case ReadFrame::kOk:
        break;
    }
    auto frame = wire::decode_frame(body);
    if (!frame) {
      poison(fd);
      return;  // parse failure: also a poisoned stream
    }
    health_.frames_received.fetch_add(1, std::memory_order_relaxed);
    switch (frame->type) {
      case wire::FrameType::kMsg: {
        // Authenticated-sender enforcement: the connection speaks for
        // exactly the PartyId it bound at handshake. A frame claiming any
        // other identity is dropped and counted — the connection survives
        // (one forged frame must not censor the honest traffic behind it).
        if (const char* why =
                wire::validate_msg(frame->msg, bound_from, local_to, n,
                                   config_.instance_tag_limit)) {
          (std::strcmp(why, "auth") == 0 ? auth_dropped_ : decode_dropped_)
              .fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        sim::Message msg{frame->msg.key, frame->msg.kind,
                         std::move(frame->msg.payload)};
        mailboxes_[local_to]->push(
            Mailbox::Item{now_ticks(),
                          arrival_seq_.fetch_add(1, std::memory_order_relaxed),
                          frame->msg.seq, bound_from, std::move(msg)});
        HealthAtomics::raise(health_.mailbox_hwm, mailboxes_[local_to]->size());
        break;
      }
      case wire::FrameType::kFin:
        if (frame->fin.from != bound_from) {
          auth_dropped_.fetch_add(1, std::memory_order_relaxed);
        } else if (!is_local(bound_from)) {
          // The remote party's host reports it finished. (A FIN naming a
          // party this process hosts tells the watchdog nothing.)
          mark_done(bound_from);
        }
        break;
      case wire::FrameType::kHello:
        // A second handshake mid-stream is protocol misuse, not fatal.
        decode_dropped_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }
}

void SocketNetwork::serve_connection(int fd, PartyId local_to) {
  const std::size_t n = config_.n;
  set_recv_timeout(fd, 5);
  Bytes body;
  std::optional<wire::Frame> frame;
  if (read_frame(fd, body) == ReadFrame::kOk) frame = wire::decode_frame(body);
  // Wire-version mismatch gets its own actionable rejection: decode_frame
  // deliberately parses ANY version's HELLO (docs/DEPLOYMENT.md wire
  // contract) so this layer can tell the operator which side to upgrade
  // instead of silently dropping the peer.
  if (frame && frame->type == wire::FrameType::kHello &&
      frame->hello.version != wire::kVersion) {
    HYDRA_LOG_ERROR(
        "socket_net: peer party %u speaks wire version %u, this build "
        "speaks %u — upgrade the older side (mixed-version runs are not "
        "supported); rejecting connection",
        frame->hello.from, frame->hello.version, wire::kVersion);
    poison(fd);
    return;
  }
  if (!frame || frame->type != wire::FrameType::kHello ||
      frame->hello.run_id != config_.seed || frame->hello.n != n ||
      frame->hello.from >= n) {
    poison(fd);
    return;  // never bound: no identity, no frames accepted
  }
  set_recv_timeout(fd, 0);
  health_.accepts.fetch_add(1, std::memory_order_relaxed);
  // The bound HELLO counts as received here; reader_loop counts the rest
  // (keeps frames_sent/frames_received symmetric on a healthy mesh).
  health_.frames_received.fetch_add(1, std::memory_order_relaxed);
  reader_loop(fd, frame->hello.from, local_to);
}

void SocketNetwork::accept_loop(PartyId local_to) {
  for (;;) {
    const int fd = ::accept(listen_fds_[local_to], nullptr, nullptr);
    if (stop_.load(std::memory_order_acquire)) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down
    }
    set_nodelay(fd, uds_);
    const std::lock_guard lock(conn_mutex_);
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd, local_to] { serve_connection(fd, local_to); });
  }
}

void SocketNetwork::open() {
  const std::size_t n = config_.n;

  // ---------------------------------------------------------- endpoints
  endpoints_ = config_.endpoints;
  if (endpoints_.empty()) {
    HYDRA_ASSERT_MSG(all_local_,
                     "socket transport: self-assigned endpoints require every "
                     "party local (pass endpoints for serve/join mode)");
    if (uds_) {
      char tmpl[] = "/tmp/hydra-uds-XXXXXX";
      HYDRA_ASSERT_MSG(::mkdtemp(tmpl) != nullptr,
                       "socket transport: mkdtemp failed for uds endpoints");
      auto_tmpdir_ = tmpl;
      for (std::size_t i = 0; i < n; ++i) {
        endpoints_.push_back(auto_tmpdir_ + "/p" + std::to_string(i) + ".sock");
      }
    } else {
      endpoints_.assign(n, "127.0.0.1:0");
    }
  }
  HYDRA_ASSERT_MSG(endpoints_.size() == n,
                   "socket transport: endpoints must name every party");
  if (uds_) {
    // Last-resort check — the CLI validates user-supplied paths at parse
    // time; this catches programmatic callers before an inscrutable
    // bind/connect failure.
    for (const auto& endpoint : endpoints_) {
      const std::string error = validate_uds_endpoint(endpoint);
      HYDRA_ASSERT_MSG(error.empty(), error.c_str());
    }
  }
  for (std::size_t i = 0; i < n * n; ++i) {
    link_mutexes_.push_back(std::make_unique<std::mutex>());
  }

  // ---------------------------------------------------------- listeners
  listen_fds_.assign(n, -1);
  for (PartyId id = 0; id < n; ++id) {
    if (!is_local(id)) continue;
    listen_fds_[id] = listen_on(endpoints_[id], uds_);
    HYDRA_ASSERT_MSG(listen_fds_[id] >= 0,
                     "socket transport: cannot listen on party endpoint");
  }

  // ----------------------------------------------------------- connects
  // Outbound links first: every connection sits in the peer's accept
  // backlog until its acceptor runs, so ordering is deadlock-free even when
  // every process does this sequentially. Multi-process peers may still be
  // starting up — hence the retry window.
  const auto setup_deadline =
      Clock::now() + std::chrono::milliseconds(std::max<std::int64_t>(
                         1000, config_.timeout_ms));
  for (PartyId from = 0; from < n; ++from) {
    if (!is_local(from)) continue;
    for (PartyId to = 0; to < n; ++to) {
      if (to == from) continue;
      const int fd = connect_retry(endpoints_[to], uds_, setup_deadline,
                                   health_.connect_attempts);
      HYDRA_ASSERT_MSG(fd >= 0, "socket transport: cannot connect to peer");
      health_.connects.fetch_add(1, std::memory_order_relaxed);
      const Bytes hello = wire::encode_hello(
          {.run_id = config_.seed, .from = from, .n = static_cast<std::uint32_t>(n)});
      HYDRA_ASSERT_MSG(send_frame(fd, *link_mutexes_[from * n + to], hello),
                       "socket transport: handshake write failed");
      out_fds_[from * n + to] = fd;
    }
  }
}

void SocketNetwork::start_io() {
  // One acceptor per local listener; each accepted connection gets its own
  // thread that performs the HELLO handshake (under a receive timeout, so a
  // silent client cannot pin it) and then becomes the connection's reader,
  // bound to the claimed PartyId. Acceptors start only now, after the clock:
  // a reader stamps arrivals with now_ticks().
  for (PartyId id = 0; id < config_.n; ++id) {
    if (!is_local(id)) continue;
    acceptors_.emplace_back([this, id] { accept_loop(id); });
    writers_.emplace_back([this, id] { writer_loop(id); });
  }
}

void SocketNetwork::on_poll() {
  // FIN frames are written directly, serialized with the writer by the link
  // mutex; the runtime's watchdog waits for the remotes' FINs before
  // stopping (a crash-windowed remote is excused, it can never FIN).
  if (all_local_) return;
  const std::size_t n = config_.n;
  for (PartyId id = 0; id < n; ++id) {
    if (!is_local(id) || fin_sent_[id] || !done(id)) continue;
    fin_sent_[id] = true;
    const Bytes fin = wire::encode_fin(id);
    for (PartyId to = 0; to < n; ++to) {
      if (to == id || is_local(to)) continue;
      const int fd = out_fds_[id * n + to];
      if (fd >= 0) send_frame(fd, *link_mutexes_[id * n + to], fin);
    }
  }
}

void SocketNetwork::stop_io() {
  for (PartyId id = 0; id < config_.n; ++id) {
    if (is_local(id)) out_queues_[id]->close();
  }
  // Order matters: silence the listeners and join the acceptors first, so
  // no connection can register after the wake-up sweep below.
  for (const int fd : listen_fds_) {
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& t : acceptors_) t.join();
  {
    const std::lock_guard lock(conn_mutex_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (const int fd : out_fds_) {
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
}

void SocketNetwork::join_io() {
  for (auto& t : writers_) t.join();
  for (auto& t : conn_threads_) t.join();
  for (const int fd : conn_fds_) ::close(fd);
  for (const int fd : out_fds_) {
    if (fd >= 0) ::close(fd);
  }
  for (PartyId id = 0; id < config_.n; ++id) {
    if (listen_fds_[id] < 0) continue;
    ::close(listen_fds_[id]);
    if (uds_) ::unlink(endpoints_[id].c_str());
  }
  if (!auto_tmpdir_.empty()) ::rmdir(auto_tmpdir_.c_str());
}

void SocketNetwork::add_stats(net::BackendStats& stats) const {
  stats.frames_auth_dropped = auth_dropped_.load(std::memory_order_relaxed);
  stats.frames_decode_dropped = decode_dropped_.load(std::memory_order_relaxed);
  stats.health = snapshot_health();
}

void SocketNetwork::add_heartbeat(obs::StatsSnapshot& snapshot) {
  snapshot.auth_dropped = auth_dropped_.load(std::memory_order_relaxed);
  snapshot.decode_dropped = decode_dropped_.load(std::memory_order_relaxed);
  for (PartyId id = 0; id < config_.n; ++id) {
    if (is_local(id)) snapshot.egress_depth += out_queues_[id]->size();
  }
}

void register_socket_backends() {
  for (const bool uds : {false, true}) {
    net::register_backend(
        uds ? "uds" : "tcp",
        [uds](const net::BackendConfig& config,
              std::unique_ptr<sim::DelayModel> delay_model)
            -> std::unique_ptr<net::Backend> {
          return std::make_unique<SocketNetwork>(config, uds, std::move(delay_model));
        });
  }
}

}  // namespace hydra::transport
