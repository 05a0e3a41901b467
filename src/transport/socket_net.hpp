// Socket transport: parties speaking length-prefixed frames over TCP or
// Unix-domain sockets (wire format in socket_wire.hpp).
//
// The same sim::IParty protocol objects run unchanged; what changes versus
// the in-process thread transport is that every non-self message crosses the
// OS — serialized into a {instance, from, to, seq, payload} frame, written
// to a per-link socket, and decoded on the receiving side through the
// hardened common/serialize.hpp readers. A process may host all n parties
// (the single-process `--backend=tcp` mode, full mesh over loopback) or any
// subset (`hydra serve`/`hydra join`: one party per process, peers named by
// endpoint).
//
// SocketNetwork is the wall-clock party runtime (thread_net.hpp) plus what
// crosses the OS: the runtime keeps the clock, the workers, the send step
// (all egress policy in net::EgressPipeline, applied at SOCKET EGRESS before
// the frame is queued for its link, so drop/dup/reorder/partition fault
// plans behave identically to sim/threads), the watchdog and the
// progress/timeout report; this class adds listeners, connects with HELLO,
// the coalescing writers, the authenticated readers and the FIN handshake
// through the runtime's hooks.
//
// Threading: per local party, one worker (the runtime's) and one writer
// (pops the party's deadline-ordered egress queue and writes due frames to
// the destination link); per local listener, one acceptor; per inbound
// connection, one reader bound at handshake to the peer's claimed PartyId.
// Frames whose header `from` disagrees with the bound id are dropped and
// counted (authenticated-sender enforcement).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "net/backend.hpp"
#include "net/wire_stats.hpp"
#include "sim/delay.hpp"
#include "transport/mailbox.hpp"
#include "transport/thread_net.hpp"

namespace hydra::transport {

/// Validates a uds endpoint path at PARSE time, before any socket call:
/// returns "" when usable, else an actionable error naming the limit
/// (sockaddr_un::sun_path, ~108 bytes) — a too-long path would otherwise
/// surface as an inscrutable bind/connect failure deep inside the run.
[[nodiscard]] std::string validate_uds_endpoint(const std::string& endpoint);

class SocketNetwork final : public ThreadNetwork {
 public:
  /// `uds` selects AF_UNIX instead of TCP over loopback. Beyond the
  /// runtime's fields, uses `config.endpoints` (one address per party:
  /// "host:port" with a numeric IPv4 host, or a socket path; empty =>
  /// self-assigned, which requires all parties local), `local_parties`
  /// (empty => all) and `instance_tag_limit`. In multi-process mode the
  /// wire totals cover the LOCAL parties' sends — each process accounts for
  /// its own — and remote parties report only the FIN/crash flags this
  /// process can observe.
  SocketNetwork(net::BackendConfig config, bool uds,
                std::unique_ptr<sim::DelayModel> delay_model);

 private:
  void open() override;
  void start_io() override;
  void enqueue(PartyId to, Mailbox::Item item) override;
  /// Multi-process shutdown handshake: announces each newly finished local
  /// party to every remote party with a FIN frame.
  void on_poll() override;
  void stop_io() override;
  void join_io() override;
  void add_stats(net::BackendStats& stats) const override;
  void add_heartbeat(obs::StatsSnapshot& snapshot) override;

  void accept_loop(PartyId local_to);
  /// HELLO handshake under a receive timeout, then reader_loop.
  void serve_connection(int fd, PartyId local_to);
  void reader_loop(int fd, PartyId bound_from, PartyId local_to);
  void writer_loop(PartyId from);
  /// Counts one malformed frame or rejected handshake and shuts the
  /// connection down at once, so the peer reads EOF (docs/DEPLOYMENT.md).
  void poison(int fd);
  /// write_frame with health accounting: frame-size + flush-latency
  /// histograms and the frames_sent counter. Every frame this process emits
  /// outside the writer's coalesced flushes (HELLO/FIN) goes through here.
  bool send_frame(int fd, std::mutex& mutex, const Bytes& body);
  /// Coalesced-flush variant: writes an already length-prefixed buffer of
  /// `frames` frames as ONE kernel send, with the same flush-latency
  /// accounting plus the flushes counter. The writer loop batches every
  /// due frame per destination link into such buffers.
  bool flush_link(int fd, std::mutex& mutex, const Bytes& buffer,
                  std::uint32_t frames);
  [[nodiscard]] net::TransportHealth snapshot_health() const;

  const bool uds_;
  bool all_local_ = true;
  std::vector<std::string> endpoints_;
  std::string auto_tmpdir_;  ///< self-assigned uds dir, cleaned up at exit

  /// Tie-breaks for mailbox and egress-queue items: one arrival counter
  /// shared by socket ingress and every post.
  std::atomic<std::uint64_t> arrival_seq_{0};

  /// Per local party, the deadline-ordered egress queue its writer drains.
  /// Item convention (writer queues only): `from` holds the DESTINATION,
  /// `cause` the send id. FIN frames bypass these queues — the watchdog
  /// writes them directly, serialized with the writer by the link mutex.
  std::vector<std::unique_ptr<Mailbox>> out_queues_;

  /// out_fds_[from * n + to]: connected socket for the from->to link
  /// (local `from` only; -1 elsewhere). Writes are serialized by
  /// link_mutexes_[from * n + to] (writer thread + watchdog FINs).
  std::vector<int> out_fds_;
  std::vector<std::unique_ptr<std::mutex>> link_mutexes_;
  std::vector<int> listen_fds_;

  std::vector<bool> fin_sent_;  ///< watchdog thread only
  std::atomic<std::uint64_t> auth_dropped_{0};
  std::atomic<std::uint64_t> decode_dropped_{0};

  /// Concurrent accumulation side of net::TransportHealth — every counter a
  /// relaxed atomic (writer threads, acceptors, readers and the watchdog all
  /// touch them); snapshot_health() flattens into the plain struct.
  struct HealthAtomics {
    std::atomic<std::uint64_t> connect_attempts{0};
    std::atomic<std::uint64_t> connects{0};
    std::atomic<std::uint64_t> accepts{0};
    std::atomic<std::uint64_t> frames_sent{0};
    std::atomic<std::uint64_t> flushes{0};
    std::atomic<std::uint64_t> frames_received{0};
    std::atomic<std::uint64_t> egress_hwm{0};
    std::atomic<std::uint64_t> mailbox_hwm{0};
    std::array<std::atomic<std::uint64_t>, net::TransportHealth::kBuckets>
        flush_ns_buckets{};
    std::array<std::atomic<std::uint64_t>, net::TransportHealth::kBuckets>
        frame_bytes_buckets{};

    static void raise(std::atomic<std::uint64_t>& hwm, std::uint64_t v) noexcept {
      std::uint64_t cur = hwm.load(std::memory_order_relaxed);
      while (v > cur &&
             !hwm.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
      }
    }
  };
  HealthAtomics health_;

  // The I/O threads, declared after everything they use; join_io() joins
  // them all before run() returns.
  std::vector<std::thread> acceptors_;
  std::vector<std::thread> writers_;
  std::mutex conn_mutex_;  ///< guards conn_fds_ and conn_threads_
  std::vector<int> conn_fds_;
  std::vector<std::thread> conn_threads_;
};

/// Registers SocketNetwork as net backends "tcp" and "uds" (one code path;
/// the name selects the address family). Idempotent, called from
/// harness::ensure_backends_registered() like register_thread_backend().
void register_socket_backends();

}  // namespace hydra::transport
