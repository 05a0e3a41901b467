// Multi-instance serving engine: N independent ΠAA instances multiplexed
// over ONE shared backend (sim / threads / tcp / uds) in a single process.
//
// Each party slot of the backend hosts an InstanceMux; the mux owns the
// per-instance protocol state in a slab keyed by the wire instance id
// (common/types.hpp tag layout). All egress still flows through the shared
// net::EgressPipeline and all ingress through the backend's delivery loop —
// the engine adds routing and lifecycle only, so fault semantics, wire
// accounting, and backend parity are inherited, not re-implemented.
//
// Determinism contract (sim backend, sync-worst network): per-(spec, seed)
// results are byte-deterministic, and every instance's projected event
// sequence equals the solo run of the same instance seed shifted by its
// admission tick — sim::FixedDelay draws no randomness, so instances cannot
// perturb each other (tests/test_serve.cpp asserts outputs, iteration counts
// and wire totals against solo runs).
//
// Monitors: MonitorMode != kOff arms one MonitorHost PER INSTANCE, installed
// via a nested per-instance obs::Context around that instance's dispatches.
// Violations are aggregated per instance; strict mode records (the engine
// does not abort the shared backend mid-run — one bad instance must not tear
// down its siblings' service).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "harness/runner.hpp"
#include "harness/workloads.hpp"
#include "net/wire_stats.hpp"
#include "obs/monitor.hpp"
#include "protocols/params.hpp"

namespace hydra::serve {

struct ServeSpec {
  protocols::Params params;
  harness::Workload workload = harness::Workload::kUniformBall;
  double workload_scale = 10.0;
  harness::Network network = harness::Network::kSyncWorstCase;
  /// Behaviour of the corrupted party slots (ids 0..corruptions-1) inside
  /// the instances listed in corrupt_instances. The engine supports the
  /// schedule-bound kinds: kNone, kSilent, kCrash.
  harness::Adversary adversary = harness::Adversary::kNone;
  std::size_t corruptions = 0;
  std::vector<std::uint32_t> corrupt_instances;

  std::uint32_t instances = 1;
  /// Open-loop admission spacing in ticks (instance k arrives at
  /// k * interarrival; 0 = all at once).
  Time interarrival = 0;
  /// Ticks between global decision and slot retirement; negative = default
  /// (8 * delta — wide enough that echo tails drain into live slots on every
  /// supported network, keeping late-drop counters at zero on clean runs).
  Duration linger = -1;

  std::uint64_t seed = 1;
  std::string backend = "sim";
  Time max_time = 500'000'000;
  double us_per_tick = 5.0;
  std::int64_t timeout_ms = 30'000;
  /// Socket backends: one endpoint per party; empty = self-assigned.
  std::vector<std::string> endpoints;

  obs::MonitorMode monitors = obs::MonitorMode::kOff;
};

/// Per-instance outcome, judged with the same harness::check_d_aa oracle as
/// single runs (validity against the TRUE honest inputs of that instance).
struct InstanceOutcome {
  bool decided = false;  ///< every honest party decided
  bool pass = false;     ///< D-AA verdict over the honest outputs
  Time admitted_at = 0;
  /// Last honest decision minus admission, in ticks.
  Time decision_latency = 0;
  std::uint32_t max_output_iteration = 0;
  double output_diameter = 0.0;
  /// Wire totals for this instance summed over all parties (self exempt).
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t late_dropped = 0;
  std::uint64_t monitor_violations = 0;
};

struct ServeResult {
  std::vector<InstanceOutcome> outcomes;
  std::uint32_t decided = 0;  ///< instances with every honest party decided
  bool all_pass = false;      ///< every instance's D-AA verdict passed
  /// Backend wire totals (every instance, pre-instance-attribution).
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  Time end_time = 0;
  bool hit_limit = false;
  bool timed_out = false;
  std::int64_t wall_ms = 0;  ///< engine-measured wall clock of backend->run()
  std::uint64_t late_dropped = 0;     ///< summed over parties
  std::uint64_t unknown_dropped = 0;  ///< summed over parties
  /// Slab telemetry, max over parties: slots ever allocated (< instances
  /// proves slot reuse) and peak concurrently-live instances.
  std::size_t slots_allocated = 0;
  std::size_t live_peak = 0;
  std::uint64_t monitor_violations = 0;
  std::vector<obs::Violation> violations;  ///< concatenated, host-capped
  /// Socket backends only (zero elsewhere).
  std::uint64_t frames_auth_dropped = 0;
  std::uint64_t frames_decode_dropped = 0;
  net::TransportHealth transport_health;
};

/// Runs the spec's instances to completion on the shared backend.
[[nodiscard]] ServeResult run_serve(const ServeSpec& spec);

}  // namespace hydra::serve
