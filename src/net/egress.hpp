// Backend-neutral egress pipeline: the single send-side code path shared by
// the discrete-event simulator and the real-thread transport.
//
// One message posted by a party flows through exactly one sequence of
// decisions regardless of backend:
//
//   1. wire accounting     self-deliveries are local computation — exempt
//                          from every message/byte count (Thm 5.19 bounds
//                          wire traffic, and the accounting is pre-injector
//                          by contract: duplicates and drops are network
//                          behaviour, not party sends);
//   2. fault injection     FaultInjector outcome -> drop / duplicate / delay;
//   3. id allocation       trace send-event ids, plus queue tie-break
//                          sequence numbers for deadline-ordered mailboxes;
//   4. observability       metric counters, per-round accounting and the
//                          delay/Delta histogram under deterministic virtual
//                          time, the monitor on_send hook, and the trace
//                          `send` event followed by fault drop/dup events.
//
// The backend supplies scheduling only: it enqueues the returned copies at
// now + delay using its own queue discipline. Keeping both transports on
// this one path is what keeps their accounting, fault handling, and trace
// semantics from drifting (PR 4 had to patch self-delivery accounting in two
// hand-rolled loops; this layer makes that class of drift structurally
// impossible).
//
// The pipeline is a template over its counter representation so each backend
// pays only for the concurrency it needs: the single-threaded simulator
// instantiates plain uint64 counters (EgressPipeline — the disabled path is
// one obs::enabled() load plus plain arithmetic, held to < 2% overhead by
// bench_obs_overhead), while the thread transport instantiates relaxed
// atomics (ConcurrentEgressPipeline — post() runs concurrently on every
// sender thread). The counter type also fixes the rest of the policy
// (BasicEgressPipeline::kVirtualTime).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "faults/faults.hpp"
#include "net/wire_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"
#include "sim/message.hpp"

namespace hydra::net {

struct EgressConfig {
  std::size_t n = 0;
  Duration delta = 1000;  ///< the public bound Delta, in ticks
};

/// What the backend must schedule for one posted message.
struct Egress {
  std::uint32_t copies = 0;  ///< 0 = dropped (crashed endpoint); 1; 2 = dup
  std::array<Duration, 2> delay{};     ///< [0] primary, [1] duplicate copy
  std::array<std::uint64_t, 2> seq{};  ///< queue tie-breaks (wall clock only)
  /// Trace send-event id: compose_send_id(from, counter) — globally unique
  /// across PROCESSES, not just within a run, because the high bits carry
  /// the origin party and serve/join processes host disjoint party sets.
  /// That is what lets a remote deliver's `cause` (shipped in the MSG frame)
  /// resolve against the origin's trace with no id translation when
  /// per-process traces are stitched (obs/merge.hpp). A duplicate shares the
  /// original's id: one `send` event, two `deliver`s with the same cause.
  /// 0 = none allocated (lazy mode with observability off).
  std::uint64_t send_id = 0;
};

/// Send-id layout: (from + 1) in the high 32 bits, a 1-based per-pipeline
/// counter in the low 32. The +1 keeps the high word nonzero, so 0 can stay
/// the "no id" sentinel everywhere. The low word wrapping would need 2^32
/// sends from one pipeline — beyond any supported run length.
[[nodiscard]] constexpr std::uint64_t compose_send_id(
    PartyId from, std::uint64_t counter) noexcept {
  return ((std::uint64_t{from} + 1) << 32) | (counter & 0xffffffffull);
}

/// The origin party encoded in a send id (send ids are never 0).
[[nodiscard]] constexpr PartyId send_id_party(std::uint64_t id) noexcept {
  return static_cast<PartyId>((id >> 32) - 1);
}

namespace detail {

/// Single-threaded counter: plain arithmetic, zero synchronization cost.
struct PlainCounter {
  std::uint64_t value = 0;
  void add(std::uint64_t x) noexcept { value += x; }
  std::uint64_t fetch_add_one() noexcept { return value++; }
  [[nodiscard]] std::uint64_t load() const noexcept { return value; }
};

/// Multi-threaded counter: relaxed atomics — totals need no ordering, only
/// eventual consistency at the post-join read.
struct RelaxedCounter {
  std::atomic<std::uint64_t> value{0};
  void add(std::uint64_t x) noexcept {
    value.fetch_add(x, std::memory_order_relaxed);
  }
  std::uint64_t fetch_add_one() noexcept {
    return value.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t load() const noexcept {
    return value.load(std::memory_order_relaxed);
  }
};

}  // namespace detail

template <typename Counter>
class BasicEgressPipeline {
  /// Plain counters mean the simulator's deterministic virtual time, relaxed
  /// counters mean wall clock, and the clock fixes the rest of the policy:
  ///  * Wall clock allocates a sequence number for EVERY send, observability
  ///    on or off: deadline-ordered mailboxes need the tie-break, and the
  ///    trace send id is then seq + 1 so 0 keeps meaning "no cause". Virtual
  ///    time allocates ids lazily — only while observability is enabled — so
  ///    the disabled path stays untouched and same-seed traces stay identical.
  ///  * Virtual time keeps per-round message/byte vectors and the delay/Delta
  ///    histogram; wall-clock round boundaries are not comparable across
  ///    nondeterministic schedules.
  ///  * The simulator exports sim.* metric names, wall clock net.*.
  static constexpr bool kVirtualTime = std::is_same_v<Counter, detail::PlainCounter>;

 public:
  explicit BasicEgressPipeline(const EgressConfig& config)
      : config_(config), sent_per_party_(config.n) {
    HYDRA_ASSERT(config_.n >= 1);
  }

  BasicEgressPipeline(const BasicEgressPipeline&) = delete;
  BasicEgressPipeline& operator=(const BasicEgressPipeline&) = delete;

  /// The single send-side code path. `base` is the backend's DelayModel draw
  /// (0 for self-delivery, >= 1 otherwise); `injector` may be null (the
  /// fault-free fast path is a single branch). Returns what to enqueue.
  Egress on_send(PartyId from, PartyId to, const sim::Message& msg, Time now,
                 Duration base, faults::FaultInjector* injector) {
    const bool self = from == to;
    HYDRA_ASSERT(self || base >= 1);
    if (!self) {
      messages_.add(1);
      bytes_.add(msg.wire_size());
      sent_per_party_[from].add(1);
    }
    Egress out;
    out.copies = 1;
    out.delay[0] = base;
    const char* drop_reason = nullptr;
    if (injector != nullptr) {
      const auto outcome = injector->on_message(from, to, now, base);
      out.delay[0] = outcome.delays[0];
      if (outcome.dropped) {
        out.copies = 0;
        drop_reason = outcome.reason;
      } else if (outcome.duplicated) {
        out.copies = 2;
        out.delay[1] = outcome.delays[1];
      }
    }
    if (eager_ids_) {
      // A dropped message still consumes a sequence number, keeping the id
      // stream a pure function of the post order under any fault plan.
      out.seq[0] = ids_.fetch_add_one();
      out.send_id = compose_send_id(from, out.seq[0] + 1);
      if (out.copies == 2) out.seq[1] = ids_.fetch_add_one();
    }
    // Disabled hot path ends here: one obs::enabled() load and nothing else.
    // The whole enabled branch lives in a noinline helper so its body (the
    // profiler scope in particular) never inflates on_send past the inliner
    // threshold at call sites — bench_obs_overhead gates this path.
    if (obs::enabled()) {
      out.send_id = observe(from, to, msg, now, out.copies, out.delay[0], out.send_id,
                            drop_reason);
    }
    return out;
  }

  /// Folds the wire totals into `out`. Call after the run: on the thread
  /// backend this must happen once senders are joined (relaxed counters).
  void export_stats(WireStats& out) const {
    out.messages = messages_.load();
    out.bytes = bytes_.load();
    out.sent_per_party.assign(sent_per_party_.size(), 0);
    for (std::size_t i = 0; i < sent_per_party_.size(); ++i) {
      out.sent_per_party[i] = sent_per_party_[i].load();
    }
    out.messages_per_round = messages_per_round_;
    out.bytes_per_round = bytes_per_round_;
  }

  [[nodiscard]] std::uint64_t messages() const noexcept { return messages_.load(); }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_.load(); }

 private:
  /// Enabled-path tail of on_send: lazy send-id allocation plus record(),
  /// bracketed by the net.egress profiler phase; returns the send id.
  /// noinline keeps on_send small enough to inline at every call site
  /// whatever this body grows to; cold moves the body out of the hot
  /// sections entirely. It takes scalars and returns the id rather than
  /// touching the caller's Egress, so that struct never needs an address
  /// and stays in registers on the disabled path.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline, cold))
#endif
  std::uint64_t observe(PartyId from, PartyId to, const sim::Message& msg, Time now,
                        std::uint32_t copies, Duration delay, std::uint64_t send_id,
                        const char* drop_reason) {
    HYDRA_PROF_SCOPE("net.egress");
    if constexpr (kVirtualTime) {
      send_id = compose_send_id(from, ids_.fetch_add_one() + 1);
    }
    record(from, to, msg, now, copies, delay, send_id, drop_reason);
    return send_id;
  }

  /// Observability slow path. Event order is part of the trace contract:
  /// counters and per-round accounting, the monitor hook, then the `send`
  /// trace event (self-deliveries stay visible in the trace — they carry
  /// causality — but never touch a counter), then any fault drop/dup event.
  void record(PartyId from, PartyId to, const sim::Message& msg, Time now,
              std::uint32_t copies, Duration delay, std::uint64_t send_id,
              const char* drop_reason) {
    if (from != to) {
      auto& registry = obs::registry();
      registry.counter(kVirtualTime ? "sim.messages" : "net.messages").inc();
      registry.counter(kVirtualTime ? "sim.bytes" : "net.bytes").inc(msg.wire_size());
      if (kVirtualTime && config_.delta > 0) {
        // Per-round accounting: the paper's round structure is in units of
        // Delta.
        const auto round = static_cast<std::size_t>(now / config_.delta);
        if (messages_per_round_.size() <= round) {
          messages_per_round_.resize(round + 1, 0);
          bytes_per_round_.resize(round + 1, 0);
        }
        messages_per_round_[round] += 1;
        bytes_per_round_[round] += msg.wire_size();
        // Delay in units of Delta: >1 means the synchrony bound was violated.
        // The FINAL post-injector delay is observed, dropped or not.
        static constexpr std::array<double, 7> kBounds{0.25, 0.5, 1.0, 2.0,
                                                       4.0,  8.0, 16.0};
        registry.histogram("sim.delay_delta", kBounds)
            .observe(static_cast<double>(delay) /
                     static_cast<double>(config_.delta));
      }
      if (auto* mon = obs::monitors()) {
        mon->on_send(now, from, msg.wire_size());
      }
    }
    if (auto* tr = obs::trace()) {
      tr->message_send(now, from, to, msg.key.tag, msg.key.a, msg.key.b,
                       msg.kind, msg.wire_size(), send_id);
      // Only a fault injector drops or duplicates.
      if (drop_reason != nullptr) {
        tr->fault(now, "drop", from, to, send_id, drop_reason);
      } else if (copies == 2) {
        tr->fault(now, "dup", from, to, send_id, "");
      }
    }
  }

  EgressConfig config_;
  /// !kVirtualTime, read at run time on purpose: folding it with `if
  /// constexpr` let GCC split on_send's tail into two observe() call sites,
  /// and bench_obs_overhead's disabled-path ratio rose from under 2% to a
  /// median 4.2% (22 runs, 4-vCPU VM) although both sides got faster.
  const bool eager_ids_ = !kVirtualTime;
  Counter messages_;
  Counter bytes_;
  Counter ids_;
  std::vector<Counter> sent_per_party_;
  // Mutated only under obs::enabled() on virtual time, i.e. only by the
  // single-threaded simulator; the thread backend never touches them.
  std::vector<std::uint64_t> messages_per_round_;
  std::vector<std::uint64_t> bytes_per_round_;
};

using EgressPipeline = BasicEgressPipeline<detail::PlainCounter>;
using ConcurrentEgressPipeline = BasicEgressPipeline<detail::RelaxedCounter>;

}  // namespace hydra::net
