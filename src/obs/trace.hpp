// Structured trace sink: typed protocol/network events as JSONL.
//
// One TraceSink owns one output file; each emitter writes a single
// self-contained JSON object per line (schema in docs/OBSERVABILITY.md).
// Events carry *virtual* time only — wall-clock never appears in a trace, so
// two runs with the same seed produce byte-identical files (asserted by
// tests/test_obs.cpp). `hydra report --format chrome` turns a trace into the
// Chrome about://tracing (Perfetto) format (obs/convert.hpp).
//
// The sink rides in the run's obs::Context (context.hpp); instrumentation
// sites fetch it with trace() and must additionally be guarded by
// obs::enabled() so the disabled path stays a single branch.
// install_log_hook() routes HYDRA_LOG output into the trace (see
// common/log.hpp).
//
// Thread safety: emitters serialize on an internal mutex (the thread
// transport writes from many party threads). Under the single-threaded
// simulator the lock is uncontended.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace hydra::obs {

class TraceSink {
 public:
  /// Opens `path` for writing (truncates). Check ok() before relying on it.
  explicit TraceSink(const std::string& path);
  ~TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  [[nodiscard]] bool ok() const noexcept { return file_ != nullptr; }

  /// Stable trace identity of this process, stamped as `"proc":N` into every
  /// event. 0 (the default) suppresses the key entirely, so single-process
  /// traces keep the historical byte-identical schema. Multi-process runs use
  /// 1 + min(local parties), which is unique because the party sets of the
  /// serve/join processes are disjoint. Set before the first event.
  void set_proc(std::uint32_t proc) noexcept { proc_ = proc; }
  [[nodiscard]] std::uint32_t proc() const noexcept { return proc_; }

  // -- network layer -------------------------------------------------------

  /// A message handed to the network at virtual time `t`. `id` is the
  /// transport-assigned send-event id (unique per run, 1-based; 0 = the
  /// transport does not assign ids).
  void message_send(Time t, PartyId from, PartyId to, std::uint32_t tag,
                    std::uint32_t a, std::uint32_t b, std::uint8_t kind,
                    std::size_t bytes, std::uint64_t id);
  /// A message delivered to `to` at virtual time `t`. `cause` is the id of
  /// the originating `send` event (its causal parent; 0 = unknown).
  void message_deliver(Time t, PartyId from, PartyId to, std::uint32_t tag,
                       std::uint32_t a, std::uint32_t b, std::uint8_t kind,
                       std::size_t bytes, std::uint64_t cause);

  // -- protocol layer ------------------------------------------------------

  /// A sub-protocol state transition, e.g. layer="rbc", what="echo".
  /// (a, b) are the InstanceKey coordinates of the affected instance.
  void state(Time t, PartyId party, std::string_view layer, std::string_view what,
             std::uint32_t a, std::uint32_t b);

  /// ΠAA iteration boundaries for party-local rounds.
  void round_start(Time t, PartyId party, std::uint32_t iteration);
  void round_end(Time t, PartyId party, std::uint32_t iteration);

  /// A named numeric observation (estimates, diameters, ...). Rendered as a
  /// Chrome counter track by the Chrome export (obs/convert.hpp).
  void scalar(Time t, PartyId party, std::string_view name, double value);

  /// An invariant monitor detected a violation (obs/monitor.hpp). `cause` is
  /// the send-event id of the message that triggered the check (0 = none).
  void violation(Time t, PartyId party, std::string_view monitor,
                 std::uint32_t iteration, std::uint64_t cause,
                 std::string_view detail);

  /// A fault-injection event (src/faults/): emitted as "fault.<what>" —
  /// per-message drop/dup (party/peer = from/to, `cause` = the dropped or
  /// duplicated send's event id) and scheduled crash/recover/partition/heal
  /// timeline entries (peer = -1). Negative ids and cause 0 are omitted
  /// from the JSON line.
  void fault(Time t, std::string_view what, std::int64_t party, std::int64_t peer,
             std::uint64_t cause, std::string_view detail);

  // -- run metadata (cross-process merge substrate) ------------------------

  /// Splices one pre-built JSON object as its own trace line. Used by the
  /// harness for the `meta` header event (run spec + monitor config), whose
  /// field set is owned by the caller. `json_object` must be a complete
  /// `{...}` object on one line; the proc tag is NOT auto-stamped (the caller
  /// includes it where it belongs in the meta schema).
  void raw_line(const std::string& json_object);

  /// A party's protocol input vector (emitted once per LOCAL party at run
  /// start). Carries exact %.17g coordinates so a merged trace can rebuild
  /// the global honest-input set bit-for-bit for post-hoc validity checks.
  void input(Time t, PartyId party, bool honest, std::span<const double> v);

  /// Clean end-of-trace marker: the run completed and the sink was finalized
  /// (a killed process never writes one, which the merge tool uses to decide
  /// whether finalize-time monitors may run). `quiescent` additionally
  /// asserts the event queue drained — only then may the merged re-run judge
  /// ΠrBC totality (socket runs stop when every party decided and may
  /// legally leave echoes in flight).
  void end(bool complete, bool quiescent);

  // -- monitor-observed protocol values (post-hoc re-evaluation) -----------

  /// A value accepted into a monitor layer (v0 = input estimate, vk = the
  /// iteration-k estimate). Exact coordinates; `cause` as in violation().
  void value(Time t, PartyId party, std::uint32_t iteration,
             std::span<const double> v, std::uint64_t cause);

  /// An RBC delivery digest: fnv1a-64 over the delivered payload, keyed by
  /// the broadcast instance. Lets the merge re-check cross-process RBC
  /// consistency without re-shipping payload bytes.
  void rbc(Time t, PartyId party, std::uint32_t tag, std::uint32_t a,
           std::uint32_t b, std::uint64_t hash, std::uint64_t cause);

  /// An oBC output set: the (party, value) pairs a party adopted in
  /// iteration `it`. Exact coordinates for bitwise consistency/overlap
  /// re-checks across processes.
  void obc(Time t, PartyId party, std::uint32_t iteration,
           std::span<const std::pair<std::uint64_t, std::vector<double>>> pairs,
           std::uint64_t cause);

  // -- logging -------------------------------------------------------------

  /// A HYDRA_LOG line routed into the trace (level as in hydra::LogLevel).
  void log(int level, std::string_view msg);

  void flush();

 private:
  void write_line(const std::string& line);

  std::mutex mutex_;
  std::FILE* file_ = nullptr;
  std::uint32_t proc_ = 0;
  bool write_failed_ = false;  ///< one-shot: first short write reports, rest drop
};

/// The sink the current thread should emit to: the installed obs::Context's
/// sink, or nullptr (no context, or a context without a sink).
[[nodiscard]] TraceSink* trace() noexcept;

/// Routes HYDRA_LOG lines into whatever sink trace() resolves to at emit
/// time. Idempotent; per-run sessions with a sink call it.
void install_log_hook() noexcept;

// -- crash-safe sink registry ----------------------------------------------
//
// Every observability sink (trace, stats) registers its FILE* here while
// open. flush_all_sinks() is the SIGTERM/SIGINT path of `hydra serve`/`join`:
// it fflushes every registered stream so a killed process leaves valid,
// merge-able JSONL behind. Sinks are additionally line-buffered, so complete
// lines reach the kernel as they are written and the flush is belt-and-
// braces; a line that was mid-compose at kill time is simply absent (never
// torn), which the merge tool tolerates.

/// Registers `f` for flush-on-shutdown. No-op when f is null or the fixed
/// slot table (capacity 16) is full.
void register_flush_target(std::FILE* f) noexcept;
void unregister_flush_target(std::FILE* f) noexcept;

/// Flushes every registered sink stream. Tolerant of being called from a
/// signal handler: the slot table is lock-free atomics. (fflush itself is
/// not async-signal-safe by the letter of POSIX; with line-buffered sinks it
/// is almost always a no-op by the time a signal lands.)
void flush_all_sinks() noexcept;

}  // namespace hydra::obs
