// Online invariant monitors: the paper's per-round guarantees checked live.
//
// A MonitorHost attaches to the per-run obs::Context (context.hpp) and
// receives hooks from the simulator and the protocol layers while a run
// executes:
//
//   validity         every honest party's iteration-k value lies in the
//                    convex hull of the honest iteration-(k-1) values
//                    (Lemma 5.7 via the safe-area rule; v_0 against the
//                    honest inputs, Theorem 5.18 validity);
//   contraction      once every honest party adopted iteration k, the honest
//                    diameter contracted by the configured factor — the
//                    paper's sqrt(7/8) for the midpoint rule (Lemma 5.10);
//   rbc-consistency  no two honest parties deliver different payloads for
//                    the same ΠrBC instance (Theorem 4.2, consistency);
//   rbc-totality     an instance delivered by one honest party is delivered
//                    by all once the run quiesces (Theorem 4.2, totality);
//   obc-consistency  honest ΠoBC outputs never attribute two different
//                    values to the same party (Theorem 4.4, consistency);
//   obc-overlap      any two honest ΠoBC outputs of one iteration share at
//                    least n - ts pairs (Theorem 4.4, overlap);
//   complexity       per honest party, messages/bytes sent stay within the
//                    structural bound for (n, D) and the running max honest
//                    iteration (Theorem 5.19's complexity analysis).
//
// Every violation is pushed through report(): an `invariant.violation` trace
// event carrying the offending party/iteration and the causal message id,
// `monitor.violations` + `monitor.<name>` registry counters, and — in
// strict mode — an abort flag the simulator polls between events.
//
// The validity check is a sound relaxation under asynchrony: any honest
// v_{k-1} appearing in a party's ΠoBC_k output was adopted (and therefore
// seen by the monitor) before that party's iteration-k value existed, so
// hull(honest values of layer k-1 seen so far) contains the paper's
// constraint hull and a flagged value is a genuine violation.
//
// Thread safety: hooks serialize on an internal mutex (the thread transport
// calls on_send from many party threads); abort_requested() is a relaxed
// atomic read so the simulator's per-event poll stays cheap. Causal
// attribution (begin_dispatch/end_dispatch) is wired up by both backends
// through net::DeliveryGate; the in-dispatch cause is thread-local, so each
// thread-transport worker attributes its own dispatches independently.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/serialize.hpp"
#include "common/types.hpp"
#include "domain/domain.hpp"
#include "geometry/vec.hpp"

namespace hydra::obs {

/// CLI surface: --monitors=off|record|strict.
enum class MonitorMode {
  kOff,     ///< no monitors; zero cost
  kRecord,  ///< check and record violations, never interfere with the run
  kStrict,  ///< record and additionally abort the run on the first violation
};

[[nodiscard]] std::string to_string(MonitorMode mode);
[[nodiscard]] std::optional<MonitorMode> parse_monitor_mode(std::string_view name);

/// One detected invariant violation.
struct Violation {
  std::string monitor;          ///< "validity", "contraction", "rbc-consistency", ...
  PartyId party = 0xffffffff;   ///< offending party (0xffffffff = none)
  std::uint32_t iteration = 0;  ///< ΠAA iteration / RBC instance coordinate
  Time at = 0;                  ///< virtual time of detection
  std::uint64_t cause = 0;      ///< trace event id of the causal `send` (0 = none)
  std::string detail;           ///< human-readable specifics
};

/// Per-party message/byte budget, expressed as bound(K) = fixed +
/// per_iteration * (K + 2) where K is the highest iteration any honest party
/// has adopted so far (+2 absorbs the in-flight iteration a party may have
/// started before anyone adopted it, plus one slack). Zero coefficients
/// disable the complexity monitor.
struct ComplexityBudget {
  std::uint64_t msgs_fixed = 0;
  std::uint64_t msgs_per_iteration = 0;
  std::uint64_t bytes_fixed = 0;
  std::uint64_t bytes_per_iteration = 0;

  struct Bound {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
  };
  /// The per-party bound at highest adopted iteration K (Theorem 5.19).
  [[nodiscard]] Bound bound(std::uint64_t k) const noexcept {
    return {msgs_fixed + msgs_per_iteration * (k + 2),
            bytes_fixed + bytes_per_iteration * (k + 2)};
  }
};

/// The structural budget of `protocol`, spelled as the CLI spells it: one
/// broadcast per round for "sync-lockstep"; the ΠAA stack (Πinit +
/// per-iteration ΠoBC + halts over Bracha ΠrBC) for the hybrid protocol and
/// async-mh. Derivations in monitor.cpp.
[[nodiscard]] ComplexityBudget complexity_budget(std::string_view protocol,
                                                 std::size_t n, std::size_t dim);

class MonitorHost {
 public:
  struct Config {
    MonitorMode mode = MonitorMode::kRecord;
    std::size_t n = 0;
    std::size_t ts = 0;
    std::size_t ta = 0;
    std::size_t dim = 0;
    double eps = 0.0;
    /// honest[id] == false marks a corrupted slot; its hooks are ignored.
    std::vector<bool> honest;
    /// Convex-hull constraint for iteration-0 values (the honest inputs).
    std::vector<geo::Vec> honest_inputs;
    /// Per-iteration diameter contraction factor; 0 disables the monitor
    /// (centroid ablation and the lock-step baseline have no proven factor).
    double contraction_factor = 0.0;
    /// Absolute tolerance for the hull-membership LP (matches the oracle's).
    double hull_tol = 1e-5;
    /// Value domain the validity/contraction monitors dispatch through;
    /// nullptr means Euclidean (geo::in_convex_hull / geo::diameter — the
    /// pre-domain-layer behavior, bit for bit).
    const hydra::domain::ValueDomain* domain = nullptr;
    /// Zero coefficients disable the complexity monitor (the registering
    /// code leaves it off for adversaries that can open protocol instances
    /// beyond the honest schedule, e.g. spam/equivocation).
    ComplexityBudget budget;
  };

  explicit MonitorHost(Config config);

  // -- causal attribution (both backends, via net::DeliveryGate) ------------

  /// The transport brackets each message dispatch with the trace event id of
  /// the originating send, so violations detected inside the handler can
  /// name the message that carried the bad value. Per-thread: brackets on
  /// different worker threads never observe each other's cause.
  void begin_dispatch(std::uint64_t cause) noexcept { current_cause_ = cause; }
  void end_dispatch() noexcept { current_cause_ = 0; }

  // -- hooks ----------------------------------------------------------------

  /// Every message handed to the network. Drives the complexity monitor.
  void on_send(Time t, PartyId from, std::size_t bytes);

  /// Party adopted `value` as its iteration-`iteration` estimate (v_0 from
  /// Πinit / the input, v_k from ΠAA-it). Drives validity and contraction.
  void on_value(Time t, PartyId party, std::uint32_t iteration,
                const geo::Vec& value);

  /// Party's ΠrBC instance (tag, a, b) delivered `payload`.
  void on_rbc_deliver(Time t, PartyId party, std::uint32_t tag, std::uint32_t a,
                      std::uint32_t b, const Bytes& payload);

  /// Digest-level form of on_rbc_deliver: the consistency/totality state is
  /// keyed on the payload's fnv1a-64 hash, which is all the cross-process
  /// trace carries. Used directly by merged-trace re-evaluation
  /// (obs/merge.hpp); on_rbc_deliver hashes and forwards here.
  void on_rbc_digest(Time t, PartyId party, std::uint32_t tag, std::uint32_t a,
                     std::uint32_t b, std::uint64_t payload_hash);

  /// Party's iteration-`iteration` ΠoBC produced output set `pairs`.
  void on_obc_output(Time t, PartyId party, std::uint32_t iteration,
                     const std::vector<std::pair<PartyId, geo::Vec>>& pairs);

  /// End-of-run checks (ΠrBC totality needs a drained event queue).
  /// `complete` is false when the run hit a limit or strict-aborted; the
  /// totality check is skipped then — undelivered instances are expected.
  void finalize(Time t, bool complete);

  // -- results --------------------------------------------------------------

  /// Polled by the simulator between events; set by strict-mode violations.
  [[nodiscard]] bool abort_requested() const noexcept {
    return abort_.load(std::memory_order_relaxed);
  }

  /// Total violations detected (may exceed violations().size(), which is
  /// capped to bound memory on pathological runs).
  [[nodiscard]] std::uint64_t total_violations() const;

  [[nodiscard]] std::vector<Violation> violations() const;

  /// Violations attributed to one monitor name.
  [[nodiscard]] std::uint64_t count(std::string_view monitor) const;

  /// Per-party Thm 5.19 complexity tallies as counted by on_send (index =
  /// PartyId; zeros for corrupted slots). Snapshot under the hook mutex, so
  /// safe to call while a run is live; merged-trace re-evaluation compares
  /// these against the per-process monitors of the same run.
  [[nodiscard]] std::vector<std::uint64_t> sent_msgs_per_party() const;
  [[nodiscard]] std::vector<std::uint64_t> sent_bytes_per_party() const;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  [[nodiscard]] bool is_honest(PartyId party) const noexcept {
    return party < config_.honest.size() && config_.honest[party];
  }

  /// Records one violation: trace event, counters, strict-mode abort.
  /// Caller holds mutex_.
  void report(Violation v);

  Config config_;
  std::size_t honest_count_ = 0;

  mutable std::mutex mutex_;
  std::vector<Violation> violations_;
  std::uint64_t total_ = 0;
  std::map<std::string, std::uint64_t, std::less<>> by_monitor_;
  std::atomic<bool> abort_{false};
  /// Send-event id of the message currently being dispatched on THIS thread.
  /// thread_local (shared by all MonitorHost instances, which is harmless —
  /// a thread dispatches for at most one host at a time): the simulator
  /// brackets on its single driver thread, while thread-transport workers
  /// bracket concurrently and must not cross-attribute causes. Hooks read it
  /// under mutex_ from the hook-calling (= bracketing) thread.
  static inline thread_local std::uint64_t current_cause_ = 0;

  // validity / contraction state
  std::map<std::uint32_t, std::vector<geo::Vec>> layers_;  ///< honest values per iteration
  std::map<std::uint32_t, double> layer_diameters_;        ///< complete layers only
  std::uint32_t max_iteration_ = 0;
  /// Cause of the ΠoBC output that produced a party's pending iteration
  /// value, for attribution when adoption happens later at a timer.
  std::map<std::pair<PartyId, std::uint32_t>, std::uint64_t> obc_cause_;

  // rbc state
  struct RbcRecord {
    std::uint64_t payload_hash = 0;
    std::set<PartyId> delivered;  ///< honest parties only
  };
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>, RbcRecord> rbc_;

  // obc state
  struct ObcIteration {
    std::map<PartyId, geo::Vec> agreed;  ///< union of honest output pairs
    std::vector<std::pair<PartyId, std::set<PartyId>>> outputs;  ///< per honest output
  };
  std::map<std::uint32_t, ObcIteration> obc_;

  // complexity state
  std::vector<std::uint64_t> sent_msgs_;
  std::vector<std::uint64_t> sent_bytes_;
  std::vector<bool> msgs_flagged_;   ///< one violation per party, not per send
  std::vector<bool> bytes_flagged_;
};

}  // namespace hydra::obs
