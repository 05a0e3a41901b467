// Live telemetry: periodic `hydra-stats-v1` JSONL heartbeats.
//
// A StatsPublisher rides in the per-run obs::Context (context.hpp). The
// wall-clock party runtime behind threads/tcp/uds (transport/thread_net.hpp)
// looks it up ONCE at run start (obs::stats()) and, if present, registers a
// snapshot provider — a callback that fills a StatsSnapshot from live
// transport state (wire totals, drop counters, queue depths, per-party
// progress). A background thread then samples the provider every
// `interval_ms` and appends one JSON object per line to the output file:
//
//   {"schema":"hydra-stats-v1","ms":<wall ms since start>,"proc":P,
//    "messages":N,"bytes":N,"auth_dropped":N,"decode_dropped":N,
//    "egress_depth":N,"mailbox_depth":N,"decided":N,"round":N,"final":0|1,
//    "parties":[[id,finished,events,round],...]}
//
// Unlike traces, stats lines carry *wall* time — they exist to watch a live
// run (`hydra top --input stats.jsonl`), not to replay it, and are exempt
// from the byte-determinism contract. The shutdown path is guaranteed: stop()
// (or the destructor) emits one final snapshot with "final":1 and flushes,
// and the underlying FILE* is line-buffered + registered with
// obs::register_flush_target() so a SIGTERM'd serve/join process still
// leaves valid JSONL behind (trace.hpp).
//
// Cost when unused: a Context with stats == nullptr adds nothing to any hot
// path — no thread, no atomic, no branch in the per-event code
// (bench_obs_overhead pins the <2% disabled-path budget).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace hydra::obs {

/// One telemetry sample. The provider fills everything except `ms`, `proc`
/// and `final`, which the publisher stamps.
struct StatsSnapshot {
  struct Party {
    std::uint64_t id = 0;
    bool finished = false;
    std::uint64_t events = 0;  ///< messages + timers handled so far
    /// Round-clock estimate: the party's last-progress tick divided by
    /// Delta. An estimate rather than the protocol's own iteration counter
    /// because transports must not reach into party state from the sampling
    /// thread (unsynchronized reads).
    std::uint64_t round = 0;
  };

  std::uint64_t messages = 0;  ///< wire messages sent so far
  std::uint64_t bytes = 0;     ///< wire bytes sent so far
  std::uint64_t auth_dropped = 0;
  std::uint64_t decode_dropped = 0;
  std::uint64_t egress_depth = 0;   ///< outbound frames queued, all links
  std::uint64_t mailbox_depth = 0;  ///< inbound messages queued, all parties
  std::uint64_t decided = 0;        ///< local parties that finished
  std::uint64_t round = 0;          ///< max round across local parties
  std::vector<Party> parties;       ///< local parties only
};

class StatsPublisher {
 public:
  using Provider = std::function<void(StatsSnapshot&)>;

  /// Opens `path` (truncates) and starts the sampling thread. `proc` is the
  /// process's trace identity (TraceSink::set_proc), stamped into every
  /// line; 0 suppresses the key. Intervals < 1ms clamp to 1ms.
  StatsPublisher(const std::string& path, std::int64_t interval_ms,
                 std::uint32_t proc);
  ~StatsPublisher();

  StatsPublisher(const StatsPublisher&) = delete;
  StatsPublisher& operator=(const StatsPublisher&) = delete;

  [[nodiscard]] bool ok() const noexcept { return file_ != nullptr; }

  /// Installs (or, with nullptr, removes) the live snapshot source. Called
  /// by the backend when its transport state exists; heartbeats before the
  /// first provider (or after removal) carry zeros. The provider must be
  /// removed before the state it captures dies — the wall-clock party
  /// runtime (transport::ThreadNetwork::run()) removes it before teardown.
  void set_provider(Provider provider);

  /// Emits the final snapshot ("final":1), flushes, and joins the thread.
  /// Idempotent; the destructor calls it.
  void stop();

 private:
  void loop();
  void emit(bool final_line);

  std::FILE* file_ = nullptr;
  std::int64_t interval_ms_;
  std::uint32_t proc_;
  std::chrono::steady_clock::time_point start_;

  bool write_failed_ = false;  ///< one-shot: first short write reports, rest drop

  std::mutex mutex_;  ///< guards provider_ and serializes emits
  Provider provider_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace hydra::obs
