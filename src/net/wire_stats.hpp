// Backend-neutral wire statistics.
//
// Every backend (sim::Simulation, and the wall-clock runtime
// transport::ThreadNetwork that the socket transport derives from) accounts
// for network traffic through the shared net::EgressPipeline and publishes
// the result in this common shape — SimStats derives from WireStats, and
// BackendStats::wire carries it — so harness code can read message/byte
// totals without knowing which backend produced them.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace hydra::net {

struct WireStats {
  /// Wire traffic only: self-deliveries are local computation and are
  /// excluded from every message/byte count below.
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  /// Messages sent per party (index = PartyId): per-party bandwidth lens,
  /// e.g. to spot a spamming Byzantine slot or asymmetric load.
  std::vector<std::uint64_t> sent_per_party;
  /// Per-round communication accounting, index = floor(send time / delta).
  /// Collected only while observability is enabled (obs::enabled()) and only
  /// by backends with deterministic virtual time (EgressConfig::per_round);
  /// empty otherwise so the disabled hot path stays a single branch.
  std::vector<std::uint64_t> messages_per_round;
  std::vector<std::uint64_t> bytes_per_round;
};

/// Socket-transport health accounting (backends "tcp"/"uds"; all-zero on
/// the in-process transports). Counters plus two log2 histograms, exported
/// through BackendStats → RunResult into the metrics JSON
/// "transport_health" block and the rendered report.
struct TransportHealth {
  /// Bucket count shared by both histograms; bucket k holds the values of
  /// bit width k + 1, i.e. [2^k, 2^(k+1)) (bucket 0 also takes 0) — one
  /// bucket below obs::Profiler's layout. Read with
  /// obs::log2_bucket_percentile at kBucketShift.
  static constexpr std::size_t kBuckets = 40;
  static constexpr int kBucketShift = 1;

  static constexpr std::size_t bucket_of(std::uint64_t v) {
    const auto w = static_cast<std::size_t>(std::bit_width(v));
    return w == 0 ? 0 : (w - 1 < kBuckets ? w - 1 : kBuckets - 1);
  }

  std::uint64_t connect_attempts = 0;  ///< dial attempts incl. retries
  std::uint64_t connects = 0;          ///< dials that completed
  std::uint64_t accepts = 0;           ///< inbound connections bound at HELLO
  std::uint64_t frames_sent = 0;       ///< frames written (HELLO/MSG/FIN)
  /// Coalesced writer flushes: each is ONE kernel send covering every frame
  /// that was due in the flush window, so frames_sent / flushes is the
  /// batching factor the multi-instance serving load achieves.
  std::uint64_t flushes = 0;
  std::uint64_t frames_received = 0;   ///< frames read and decoded
  /// High-water marks across all queues of the kind.
  std::uint64_t egress_hwm = 0;   ///< deepest outbound (writer) queue seen
  std::uint64_t mailbox_hwm = 0;  ///< deepest inbound (delivery) queue seen
  /// log2 histogram of write_frame wall latency, in nanoseconds.
  std::array<std::uint64_t, kBuckets> flush_ns_buckets{};
  /// log2 histogram of sent frame body sizes, in bytes.
  std::array<std::uint64_t, kBuckets> frame_bytes_buckets{};

  [[nodiscard]] bool any() const {
    if (connect_attempts || connects || accepts || frames_sent || flushes ||
        frames_received || egress_hwm || mailbox_hwm) {
      return true;
    }
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (flush_ns_buckets[i] || frame_bytes_buckets[i]) return true;
    }
    return false;
  }
};

/// Per-party progress snapshot, filled in by the wall-clock runtime's
/// watchdog after the run (empty on the simulator, whose quiescence
/// detection makes a stall impossible to confuse with completion).
struct PartyProgress {
  bool finished = false;       ///< `finished` predicate held at shutdown
  bool crash_stopped = false;  ///< a fault-plan crash-stop silenced the party
  std::uint64_t events = 0;    ///< messages + timers the party handled
  Time last_progress = 0;      ///< tick of the party's last handled event
};

}  // namespace hydra::net
