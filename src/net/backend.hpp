// Pluggable execution backends.
//
// A Backend runs a set of sim::IParty protocol objects under one network
// model and returns backend-neutral statistics. The builtins registered
// here: "sim" (sim::Simulation, the deterministic discrete-event simulator),
// "threads" (transport::ThreadNetwork, one OS thread per party under
// wall-clock time), and "tcp"/"uds" (transport::SocketNetwork, the same
// wall-clock runtime with parties exchanging length-prefixed frames over
// real sockets, in-process or across process boundaries).
// harness::execute() selects one by name through a single code path, so
// further backends are an additive change: implement Backend, call
// register_backend() at startup.
//
// Ownership contract: run() receives the parties by reference and MAY move
// them into backend-internal storage (the simulator does; the thread
// transport borrows them in place). Either way the party objects themselves
// never move and stay alive until the Backend is destroyed, so callers can
// capture raw observer pointers before run() and inspect protocol state
// afterwards.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "net/wire_stats.hpp"
#include "sim/delay.hpp"
#include "sim/env.hpp"

namespace hydra::faults {
class FaultInjector;
}

namespace hydra::net {

struct BackendConfig {
  std::size_t n = 4;
  Duration delta = 1000;  ///< the public bound Delta, in ticks
  std::uint64_t seed = 1;
  // Deterministic-simulator limits (ignored by wall-clock backends).
  Time max_time = 500'000'000;
  std::uint64_t max_events = 50'000'000;
  // Wall-clock pacing (ignored by the simulator).
  double us_per_tick = 1.0;
  std::int64_t timeout_ms = 30'000;
  // Socket backends ("tcp"/"uds") only. `endpoints` lists one address per
  // party ("host:port" for tcp, a filesystem path for uds); empty means the
  // backend self-assigns loopback/tmpdir endpoints, which requires every
  // party to be local. `local_parties` names the parties hosted by THIS
  // process (empty = all of them — the single-process `--backend=tcp` mode);
  // remote parties are reached through their endpoints (hydra serve/join).
  std::vector<std::string> endpoints;
  std::vector<PartyId> local_parties;
  /// Multi-instance serving (src/serve/): sockets reject inbound frames
  /// whose tag carries an instance id >= this bound (common/types.hpp tag
  /// layout) on the hardened decode path. 0 = single-instance mode, no
  /// instance validation. Ignored by sim/threads, which never deserialize.
  std::uint32_t instance_tag_limit = 0;
};

/// Backend-neutral run result: shared wire accounting plus the union of the
/// per-backend diagnostics (each backend fills what it can measure).
struct BackendStats {
  WireStats wire;
  Time end_time = 0;         ///< virtual end time in ticks
  std::uint64_t events = 0;  ///< simulator event count (0 on threads)
  bool hit_limit = false;    ///< stopped by max_time/max_events (sim only)
  /// Stopped early because a strict-mode invariant monitor requested it.
  bool monitor_aborted = false;
  bool timed_out = false;     ///< wall-clock timeout elapsed (wall-clock backends)
  std::int64_t wall_ms = 0;   ///< wall-clock duration (wall-clock backends)
  /// Per-party watchdog snapshot (wall-clock backends; empty on sim).
  std::vector<PartyProgress> progress;
  /// Names WHO stalled when timed_out (wall-clock backends).
  std::string timeout_detail;
  /// Socket backends only: received frames rejected by the per-connection
  /// authenticated-sender check (header `from` != the id bound at handshake)
  /// and frames dropped by the hardened decode path (framing/parse errors).
  std::uint64_t frames_auth_dropped = 0;
  std::uint64_t frames_decode_dropped = 0;
  /// Socket backends only: connection/link health counters and latency/size
  /// histograms (all-zero — health.any() false — on sim/threads).
  TransportHealth health;
};

class Backend {
 public:
  virtual ~Backend() = default;

  /// True for every party that reached its protocol's finishing condition.
  /// Wall-clock backends need this to decide shutdown (they cannot detect
  /// quiescence); the simulator ignores it and runs to queue drain.
  using FinishedFn = std::function<bool(const sim::IParty&, PartyId)>;

  /// Runs the parties to completion (see the ownership contract above).
  /// `finished` is evaluated on the party's own execution context after
  /// every handled event, so it may touch party state safely.
  virtual BackendStats run(std::vector<std::unique_ptr<sim::IParty>>& parties,
                           const FinishedFn& finished) = 0;

  /// Installs a fault injector (src/faults/) consulted on every message.
  /// Borrowed: must outlive run(). nullptr keeps the fault-free fast path.
  virtual void set_fault_injector(faults::FaultInjector* injector) = 0;
};

using BackendFactory = std::function<std::unique_ptr<Backend>(
    const BackendConfig&, std::unique_ptr<sim::DelayModel>)>;

/// Registers (or replaces) a backend under `name`. Thread-safe. Builtin
/// backends register via harness::ensure_backends_registered() — explicit
/// registration, because static-initializer tricks get dropped by the linker
/// when the backend object files live in static libraries.
void register_backend(std::string name, BackendFactory factory);

/// Builds a registered backend; nullptr for unknown names. Thread-safe.
[[nodiscard]] std::unique_ptr<Backend> make_backend(
    std::string_view name, const BackendConfig& config,
    std::unique_ptr<sim::DelayModel> delay_model);

/// Registered backend names, in registration order. Thread-safe.
[[nodiscard]] std::vector<std::string> backend_names();

}  // namespace hydra::net
