// Single-run driver: build a simulation from a declarative RunSpec (protocol
// parameters, workload, network condition, adversary), execute it, and
// return oracle verdicts plus metrics. Every experiment binary is a loop
// over RunSpecs.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/oracles.hpp"
#include "harness/workloads.hpp"
#include "net/wire_stats.hpp"
#include "obs/monitor.hpp"
#include "protocols/params.hpp"

namespace hydra::sim {
class DelayModel;
}

namespace hydra::harness {

/// Network condition under which the run executes. "Sync" variants respect
/// the Delta bound; "Async" variants violate it (legal only when judging
/// against the ta threshold).
enum class Network {
  kSyncWorstCase,   ///< every message takes exactly Delta
  kSyncJitter,      ///< uniform in [1, Delta]
  kSyncTargeted,    ///< one victim always at Delta, others jittered
  kSyncRushing,     ///< corrupted senders fast, honest at Delta
  kAsyncReorder,    ///< heavy-tailed reordering beyond Delta
  kAsyncPartition,  ///< a group cut off for a long window
  kAsyncExponential ///< exponential delays with mean ~2 Delta
};

[[nodiscard]] std::string to_string(Network network);
[[nodiscard]] bool is_synchronous(Network network);

/// Inverse of to_string; nullopt on unknown names.
[[nodiscard]] std::optional<Network> parse_network(std::string_view name);

/// Byzantine behaviour assigned to the corrupted slots.
enum class Adversary {
  kNone,
  kSilent,
  kCrash,        ///< honest protocol, dies mid-run
  kEquivocator,
  kOutlier,      ///< honest protocol with an extreme input
  kHaltRusher,
  kSpammer,
  kStraggler,    ///< relays RBC only
  kTurncoat,     ///< honest protocol until mid-run, then equivocation burst
  kMixed,        ///< cycles through the list above per corrupted slot
};

[[nodiscard]] std::string to_string(Adversary adversary);
[[nodiscard]] std::optional<Adversary> parse_adversary(std::string_view name);

/// Which protocol runs in the honest slots.
enum class Protocol {
  kHybrid,        ///< the paper's ΠAA
  kSyncLockstep,  ///< Vaidya-Garg-style baseline (t = ts)
  kAsyncMh,       ///< Mendes-Herlihy-style baseline (t = ts = ta)
};

[[nodiscard]] std::string to_string(Protocol protocol);
[[nodiscard]] std::optional<Protocol> parse_protocol(std::string_view name);

struct RunSpec {
  protocols::Params params;
  Protocol protocol = Protocol::kHybrid;
  Workload workload = Workload::kUniformBall;
  double workload_scale = 10.0;
  Network network = Network::kSyncWorstCase;
  Adversary adversary = Adversary::kNone;
  std::size_t corruptions = 0;  ///< number of corrupted slots (ids 0..c-1)
  std::uint64_t seed = 1;
  Time max_time = 500'000'000;

  /// Execution backend (net/backend.hpp): "sim" — the deterministic
  /// discrete-event simulator (byte-identical traces per (spec, seed)) —
  /// "threads" — one OS thread per party under wall-clock time — or
  /// "tcp"/"uds" — the socket transport, where every non-self message
  /// crosses the OS as a length-prefixed frame. All backends run the
  /// identical protocol objects through the identical net::EgressPipeline /
  /// net::DeliveryGate path; only the scheduler differs.
  std::string backend = "sim";

  /// Value domain (src/domain/; registry-backed like `backend`): "euclid" —
  /// the paper's R^D — or a registered discrete instance ("tree", "path").
  /// Non-Euclidean domains run the hybrid protocol only, force the domain's
  /// required dimension, and dispatch aggregation, validity, and diameter
  /// through the domain's metric. "euclid" keeps every code path and output
  /// byte-identical to the pre-domain-layer harness.
  std::string domain = "euclid";

  /// Wall-clock microseconds per tick (wall-clock backends only).
  double us_per_tick = 5.0;
  /// Wall-clock run cap in milliseconds (wall-clock backends only).
  std::int64_t timeout_ms = 30'000;

  /// Socket backends only. `socket_endpoints` lists one address per party
  /// ("host:port" for tcp, a filesystem path for uds); empty = self-assigned
  /// loopback/tmpdir endpoints (requires all parties local).
  /// `socket_local` names the parties hosted by THIS process (hydra
  /// serve/join); empty = all parties local (single-process `--backend=tcp`).
  /// In multi-process mode only the LOCAL honest parties are judged — remote
  /// parties never run in this process, their hosts judge them — while
  /// validity is still checked against every honest input (inputs are a pure
  /// function of the spec, identical in every process).
  std::vector<std::string> socket_endpoints;
  std::vector<PartyId> socket_local;

  /// Fault-injection spec (src/faults/; grammar in docs/ROBUSTNESS.md), e.g.
  /// "dup(p=0.2);crash(party=0,at=5000)". "" = no faults. Parties the plan
  /// crash-stops still RUN the honest protocol (the crash happens at the
  /// network layer) but count as faulty for the oracle and the monitors.
  std::string faults;

  // Observability (docs/OBSERVABILITY.md). When either path is set, execute()
  // enables observability for the run's duration inside a per-run
  // obs::Context with its own private registry, so each run's snapshot
  // stands alone and concurrent runs (harness/sweep.hpp) never share state.
  std::string trace_out;    ///< JSONL structured trace ("" = no trace)
  std::string metrics_out;  ///< metrics JSON snapshot ("" = no export)
  /// Phase-profile JSON ("hydra-perf-v1"; "" = no profiling). Installs an
  /// obs::Profiler in the run's context; docs/OBSERVABILITY.md. Unlike the
  /// trace and metrics files, the nanosecond fields are wall clock and NOT
  /// deterministic — only the phase counts are, per (spec, seed) on the
  /// simulator backend.
  std::string perf_out;

  /// Live telemetry: append "hydra-stats-v1" JSONL heartbeats (per-party
  /// progress, wire totals, queue depths) every `stats_interval_ms` to
  /// `stats_out` while the run executes, with a guaranteed final snapshot on
  /// shutdown. "" = off. Heartbeats carry wall-clock timestamps and are NOT
  /// deterministic — they are a side channel like perf_out, never part of
  /// the trace/metrics determinism contract. `hydra top` renders the file
  /// live (docs/OBSERVABILITY.md, "Distributed runs").
  std::string stats_out;
  std::int64_t stats_interval_ms = 1000;

  /// Online invariant monitors (obs/monitor.hpp; docs/OBSERVABILITY.md).
  /// kRecord checks the paper's per-round invariants live and records
  /// violations in RunResult; kStrict additionally aborts the run on the
  /// first violation. Any non-kOff mode enables observability for the run.
  obs::MonitorMode monitors = obs::MonitorMode::kOff;
};

struct RunResult {
  Verdict verdict;
  double input_diameter = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  Time end_time = 0;
  bool hit_limit = false;
  /// Virtual duration in units of Delta.
  double rounds = 0.0;
  /// Smallest / largest honest Πinit estimate (hybrid / async-mh only).
  std::uint64_t min_estimate = 0;
  std::uint64_t max_estimate = 0;
  /// Largest honest output iteration it_h.
  std::uint32_t max_output_iteration = 0;
  /// Honest per-iteration value diameters (index i = diameter of {v_i});
  /// truncated at the shortest honest history.
  std::vector<double> iteration_diameters;
  /// Safe-area numerical fallbacks triggered during this run (counted in
  /// the run's isolated obs::Context) — nonzero values flag geometry edge
  /// cases worth investigating.
  std::uint64_t safe_area_fallbacks = 0;
  /// Messages sent by the busiest single party.
  std::uint64_t max_sent_by_party = 0;
  /// Messages sent per party (index = PartyId).
  std::vector<std::uint64_t> sent_per_party;
  /// Per-round (units of Delta) communication; populated only when the run
  /// executed with observability enabled (trace_out/metrics_out set).
  std::vector<std::uint64_t> messages_per_round;
  std::vector<std::uint64_t> bytes_per_round;
  /// Invariant-monitor results (empty/zero/false when RunSpec::monitors was
  /// kOff). `violations` is capped (MonitorHost); `monitor_violations` is
  /// the uncapped total.
  std::vector<obs::Violation> violations;
  std::uint64_t monitor_violations = 0;
  bool monitor_aborted = false;  ///< strict mode stopped the run early
  /// Fault-injection totals (zero when RunSpec::faults is empty).
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_dups = 0;
  std::uint64_t fault_delays = 0;
  /// Wall-clock-backend diagnostics (all defaults on the simulator, which
  /// detects quiescence and can neither stall nor time out).
  bool timed_out = false;
  std::int64_t wall_ms = 0;
  std::vector<net::PartyProgress> progress;  ///< per-party watchdog snapshot
  std::string timeout_detail;                ///< names WHO stalled on timeout
  /// Socket backends only: frames rejected by the per-connection
  /// authenticated-sender check and by the hardened decode path. Zero on
  /// every healthy run (and always zero on sim/threads).
  std::uint64_t frames_auth_dropped = 0;
  std::uint64_t frames_decode_dropped = 0;
  /// Socket backends only: per-process link health — connect/accept
  /// counters, writer flush-latency and frame-size histograms, queue
  /// high-water marks. All-zero (health.any() false) on sim/threads; the
  /// metrics JSON gets a "transport_health" block only when nonzero, so
  /// simulator metrics stay byte-identical.
  net::TransportHealth transport_health;
};

/// Builds the sim::DelayModel implementing `spec.network` (spec.params.delta
/// and spec.corruptions parameterize the adversarial schedulers). Shared by
/// execute() and the multi-instance serving engine (src/serve/), which must
/// model network conditions identically to single runs.
[[nodiscard]] std::unique_ptr<sim::DelayModel> make_network(const RunSpec& spec);

/// Assembles the MonitorHost configuration for a spec with resolved params
/// `p`, or nullopt when monitors are off. Which monitors arm depends on the
/// spec:
///  - contraction only for the paper's midpoint rule on the hybrid stack
///    (Lemma 5.10 proves sqrt(7/8) there; the centroid ablation and the
///    lock-step baseline have no proven factor);
///  - the complexity budget only under adversaries that follow the honest
///    message schedule — a spammer or equivocator can open extra protocol
///    instances that honest parties must echo, legitimately inflating
///    honest counts beyond the structural bound.
/// Shared by execute() and the serving engine, which judges each instance
/// like a single run.
[[nodiscard]] std::optional<obs::MonitorHost::Config> make_monitor_config(
    const RunSpec& spec, const protocols::Params& p, const std::vector<bool>& honest,
    std::vector<geo::Vec> honest_inputs);

/// Registers the builtin execution backends ("sim", "threads", "tcp",
/// "uds") with the net::Backend registry. Idempotent and thread-safe;
/// execute() calls it on every run, so only code talking to the registry
/// directly needs it.
void ensure_backends_registered();

/// Names of the available execution backends, registering the builtins
/// first (for CLI validation and `hydra list`).
[[nodiscard]] std::vector<std::string> backend_names();

/// Executes one run on the backend named by `spec.backend` ("sim" default).
/// Thread-safe: every call installs an isolated per-run obs::Context, so
/// independent specs may execute concurrently (harness/sweep.hpp) — on the
/// simulator backend with results byte-identical to sequential execution
/// per seed.
[[nodiscard]] RunResult execute(const RunSpec& spec);

}  // namespace hydra::harness
