// Deterministic discrete-event simulator, and the "sim" net backend.
//
// A single priority queue of (time, sequence) events drives n parties. One
// master seed fully determines the run: delay draws, adversary choices and
// event ordering are all derived from it. Ties in virtual time break by
// submission order, which is itself deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/backend.hpp"
#include "net/egress.hpp"
#include "net/wire_stats.hpp"
#include "sim/delay.hpp"
#include "sim/env.hpp"
#include "sim/message.hpp"

namespace hydra::faults {
class FaultInjector;
}

namespace hydra::sim {

/// Wire accounting (messages/bytes/per-party/per-round) lives in the shared
/// net::WireStats base — both backends fill it through net::EgressPipeline.
/// The fields below are simulator-specific diagnostics.
struct SimStats : net::WireStats {
  std::uint64_t events = 0;
  Time end_time = 0;
  bool hit_limit = false;  ///< stopped by max_time/max_events, not quiescence
  /// Stopped early because a strict-mode invariant monitor requested it
  /// (obs/monitor.hpp); the queue was not drained.
  bool monitor_aborted = false;
};

class Simulation final : public net::Backend {
 public:
  /// Uses the simulator fields of `config` (n, delta, seed, max_time as the
  /// liveness-failure hard stop, max_events).
  Simulation(net::BackendConfig config, std::unique_ptr<DelayModel> delay_model);
  ~Simulation() override;

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Parties must be added in id order before run(); party i gets id i.
  void add_party(std::unique_ptr<IParty> party);

  /// Runs until the event queue drains or a limit is hit.
  SimStats run();

  /// net::Backend: moves `parties` in (they live until the simulation is
  /// destroyed) and runs. Quiescence ends the run, so `finished` is unused.
  net::BackendStats run(std::vector<std::unique_ptr<IParty>>& parties,
                        const FinishedFn& finished) override;

  [[nodiscard]] Time now() const noexcept { return now_; }
  /// Wire totals are folded in from the egress pipeline when run() returns;
  /// mid-run the WireStats base is all zeros.
  [[nodiscard]] const SimStats& stats() const noexcept { return stats_; }

  /// Test hook: schedule an arbitrary callback at absolute time `at` (runs
  /// in the timer phase, i.e. after same-tick message deliveries).
  void schedule(Time at, std::function<void()> fn);

  /// Installs a fault injector (src/faults/) consulted on every message.
  /// Borrowed: the injector must outlive run(). nullptr (the default) keeps
  /// the fault-free fast path — a single branch per deliver().
  void set_fault_injector(faults::FaultInjector* injector) noexcept override {
    injector_ = injector;
  }

 private:
  class PartyEnv;

  /// Same-tick ordering: all message deliveries at time T happen before any
  /// timer at time T. This realizes the paper's synchronous semantics, where
  /// "delivered within Delta" is inclusive and a guard evaluated at time
  /// tau_start + c * Delta observes every message sent c rounds earlier.
  enum class Phase : std::uint8_t { kMessage = 0, kTimer = 1 };

  void schedule_phase(Time at, Phase phase, std::function<void()> fn);

  /// Drain loop for observed runs (monitors and/or profiler active). Kept
  /// out of run() — and out of the hot text sections — so the lean loop the
  /// overhead bench gates shares no cache lines with monitor checks or
  /// profiler scopes.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline, cold))
#endif
  void drain_observed(obs::MonitorHost* mon);

  /// Runs the posted message through the shared net::EgressPipeline
  /// (accounting, fault injection, ids, obs emission) and schedules the
  /// surviving copies. The simulator itself contains no egress logic.
  void deliver(PartyId from, PartyId to, Message msg);

  /// Queues one traced delivery (net::DeliveryGate: deliver event + monitor
  /// dispatch bracket). Used by the obs-enabled path; the fault injector may
  /// queue the same send twice (duplication), both copies carrying the same
  /// `send_id`.
  void schedule_traced_delivery(Time at, PartyId from, PartyId to, Message msg,
                                std::uint64_t send_id);

  std::unique_ptr<DelayModel> delay_model_;
  Rng rng_;
  faults::FaultInjector* injector_ = nullptr;

  struct Event {
    Time at;
    Phase phase;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      if (a.phase != b.phase) return a.phase > b.phase;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, EventOrder> queue_;
  std::uint64_t next_seq_ = 0;
  /// The shared send-side path (plain counters — single-threaded). Lazy id
  /// mode: trace send ids are allocated only while obs is enabled, so the
  /// disabled path is untouched and same-seed traces stay identical.
  net::EgressPipeline pipeline_;

  std::vector<std::unique_ptr<IParty>> parties_;
  std::vector<std::unique_ptr<PartyEnv>> envs_;

  Time now_ = 0;
  SimStats stats_;
  /// Last: the event-loop members above stay at short offsets from `this`,
  /// which the disabled-path overhead gate (bench_obs_overhead) is
  /// sensitive to.
  const net::BackendConfig config_;
};

/// Registers the simulator as net backend "sim". Idempotent (re-registering
/// replaces the factory); called from harness::ensure_backends_registered()
/// — explicit rather than a static initializer, which the linker would drop
/// from a static library.
void register_sim_backend();

}  // namespace hydra::sim
