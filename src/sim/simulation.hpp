// Deterministic discrete-event simulator, and the "sim" net backend.
//
// A calendar of typed event records drives n parties: the distinct pending
// ticks in order, each tick holding one FIFO per phase (message deliveries
// before timers). Events therefore run in (tick, phase, push order), and
// push order is deterministic. One master seed fully determines the run:
// delay draws, adversary choices and event ordering are all derived from
// it.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
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

  /// What a queued event does when its tick comes. A typed record instead
  /// of a closure: no allocation per event, and the payload stays shared.
  enum class EventKind : std::uint8_t {
    kDeliver,        ///< parties_[to]->on_message(from, msg)
    kTracedDeliver,  ///< the same through net::DeliveryGate; arg = send id
    kTimer,          ///< parties_[to]->on_timer(arg)
    kStart,          ///< parties_[to]->start()
    kCallback,       ///< callbacks_[arg]() — the schedule() test hook
  };

  struct Event {
    EventKind kind;
    PartyId from;
    PartyId to;
    std::uint64_t arg;
    Message msg;
  };

  /// The pending events: each distinct tick owns one FIFO per phase, and a
  /// min-heap orders the ticks. Every push appends to its (tick, phase)
  /// FIFO, so FIFO order is push order and the pop order is exactly
  /// (tick, phase, push order) — including a zero-delay self-send pushed
  /// from a timer handler, which lands in the current tick's message FIFO
  /// and runs before the timers still queued on that tick. A drained tick's
  /// bucket goes to a free list and serves a later tick.
  class Calendar {
   public:
    [[nodiscard]] bool empty() const noexcept { return ticks_.empty(); }
    /// Earliest pending tick; the calendar must not be empty.
    [[nodiscard]] Time next_tick() const noexcept { return ticks_.front().at; }
    void push(Time at, Phase phase, Event&& ev);
    /// Removes and returns the first event of next_tick().
    Event pop();

   private:
    struct Bucket {
      std::deque<Event> fifo[2];  ///< indexed by Phase
    };
    struct Tick {
      Time at;
      std::uint32_t bucket;
    };
    /// Heap order that keeps the earliest tick on top.
    struct Later {
      bool operator()(const Tick& a, const Tick& b) const noexcept { return a.at > b.at; }
    };
    /// The bucket of pending tick `at`, opened on first use.
    std::uint32_t bucket_of(Time at);

    std::deque<Bucket> buckets_;  ///< a deque: buckets never move
    std::vector<std::uint32_t> free_buckets_;
    std::vector<Tick> ticks_;  ///< min-heap on `at`, one entry per open bucket
    std::unordered_map<Time, std::uint32_t> open_;  ///< tick -> bucket
    /// The last tick pushed to and its bucket: a broadcast under a fixed
    /// delay pushes n events to one tick in a row.
    Time last_at_ = -1;
    std::uint32_t last_bucket_ = 0;
  };

  /// Runs one popped event.
  void dispatch(Event& ev);

  /// The traced-delivery case of dispatch(), out of line so the lean loop
  /// stays small (bench_obs_overhead).
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline, cold))
#endif
  void dispatch_traced(Event& ev);

  /// Drain loop for observed runs (monitors and/or profiler active). Kept
  /// out of run() — and out of the hot text sections — so the lean loop the
  /// overhead bench gates shares no cache lines with monitor checks or
  /// profiler scopes.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline, cold))
#endif
  void drain_observed(obs::MonitorHost* mon);

  /// Runs the posted message through the shared net::EgressPipeline
  /// (accounting, fault injection, ids, obs emission) and queues the
  /// surviving copies. While observability is on the copies are traced
  /// deliveries (net::DeliveryGate); the fault injector may queue one send
  /// twice (duplication), both copies carrying the same send id. The
  /// simulator itself contains no egress logic.
  void deliver(PartyId from, PartyId to, Message msg);

  std::unique_ptr<DelayModel> delay_model_;
  Rng rng_;
  faults::FaultInjector* injector_ = nullptr;

  Calendar calendar_;
  /// schedule() callbacks, indexed by their events' `arg`.
  std::vector<std::function<void()>> callbacks_;
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
