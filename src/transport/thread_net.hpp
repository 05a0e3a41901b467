// The wall-clock party runtime, and the "threads" backend built on it.
//
// Runs the same IParty protocol objects as the discrete-event simulator,
// but on one OS thread per party with real wall-clock time: mailboxes are
// mutex+condvar priority queues ordered by delivery deadline, timers are
// per-thread deadline heaps, and a tick maps to a configurable number of
// microseconds. A DelayModel (the same interface the simulator uses) shapes
// artificial network latency, so synchronous and asynchronous conditions
// can be reproduced under genuine concurrency.
//
// ThreadNetwork is the one runtime both wall-clock backends share: the tick
// clock, the per-party Env and timer heap, the send step (delay model, then
// net::EgressPipeline), the mailboxes, the worker loop, the completion
// watchdog (crash-window excusal, strict-monitor abort), the live-stats
// provider and the progress/timeout report. Used as is, it is the
// "threads" backend; the socket transport (socket_net.hpp) derives from it
// and overrides the protected hooks below for what crosses the OS.
//
// Threading contract: a party's handlers run exclusively on its own thread;
// cross-thread interaction is only mailbox push/pop. Party state may be
// inspected from the outside ONLY after run() returned (threads joined).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/backend.hpp"
#include "net/egress.hpp"
#include "sim/delay.hpp"
#include "sim/env.hpp"
#include "sim/message.hpp"
#include "transport/mailbox.hpp"

namespace hydra::obs {
struct StatsSnapshot;
}

namespace hydra::transport {

class ThreadNetwork : public net::Backend {
 public:
  /// Uses the wall-clock fields of `config` (n, delta, seed, us_per_tick,
  /// timeout_ms). `delay_model` is shared by all senders and called under a
  /// lock.
  ThreadNetwork(net::BackendConfig config, std::unique_ptr<sim::DelayModel> delay_model);
  ~ThreadNetwork() override;

  ThreadNetwork(const ThreadNetwork&) = delete;
  ThreadNetwork& operator=(const ThreadNetwork&) = delete;

  /// Runs the local parties until `finished(party, id)` is true for every
  /// party (a remote one counts once its host reports it done) or the
  /// timeout elapses. `finished` is evaluated on each party's own thread
  /// after every handled event (so it may touch party state safely).
  /// The parties are borrowed: the caller keeps ownership and may inspect
  /// them after run() returns (all threads are joined by then).
  net::BackendStats run(std::vector<std::unique_ptr<sim::IParty>>& parties,
                        const FinishedFn& finished) final;

  /// Installs a fault injector (src/faults/) consulted on every post().
  /// Borrowed: must outlive run(). Parties whose crash window has opened
  /// are treated as satisfied by the completion watchdog — they may never
  /// finish, and that is not a timeout.
  void set_fault_injector(faults::FaultInjector* injector) final {
    injector_ = injector;
  }

 protected:
  // Hooks for a transport whose messages cross the OS. run() calls them in
  // this order: open, start_io, then concurrently enqueue (sender threads),
  // on_poll (watchdog) and add_heartbeat (stats sampler), then stop_io,
  // join_io, add_stats.

  /// Before the clock starts: bind, connect, handshake.
  virtual void open() {}
  /// After the clock starts, before the workers: start the I/O threads.
  virtual void start_io() {}
  /// Queues one surviving copy of a message `item.from` posted to `to`.
  /// Default: the recipient's mailbox, tie-broken by the pipeline sequence.
  virtual void enqueue(PartyId to, Mailbox::Item item);
  /// Once per watchdog poll, before it counts finished parties.
  virtual void on_poll() {}
  /// Shutdown: stop_ is set and the mailboxes are closed; wake every I/O
  /// thread. The workers are joined next, then join_io() runs.
  virtual void stop_io() {}
  virtual void join_io() {}
  /// Transport counters for the run result and the live heartbeats.
  virtual void add_stats(net::BackendStats&) const {}
  virtual void add_heartbeat(obs::StatsSnapshot&) {}

  [[nodiscard]] Time now_ticks() const;
  [[nodiscard]] std::chrono::steady_clock::time_point tick_deadline(Time at) const;
  [[nodiscard]] bool is_local(PartyId id) const { return local_[id]; }
  [[nodiscard]] bool done(PartyId id) const {
    return done_[id].load(std::memory_order_acquire);
  }
  /// A remote party's host reported it finished.
  void mark_done(PartyId id) { done_[id].store(true, std::memory_order_release); }

  const net::BackendConfig config_;
  /// Parties hosted by this process, which get a worker: all of them unless
  /// a derived transport narrows the set.
  std::vector<bool> local_;
  /// Inbound delivery queues, one per party.
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::atomic<bool> stop_{false};

 private:
  class ThreadEnv;
  friend class ThreadEnv;

  void post(PartyId from, PartyId to, sim::Message msg);
  [[nodiscard]] bool crash_excused(PartyId id) const;

  std::unique_ptr<sim::DelayModel> delay_model_;
  faults::FaultInjector* injector_ = nullptr;
  std::mutex delay_mutex_;
  Rng delay_rng_;
  std::chrono::steady_clock::time_point epoch_;

  /// The shared send-side path (relaxed atomic counters — post() runs
  /// concurrently on every sender thread). Eager id mode: every post
  /// allocates a mailbox tie-break sequence number, which doubles as the
  /// trace send id (+1 so 0 keeps meaning "no cause"). Per-network, NOT
  /// function-static: a shared counter would leak tie-break ordering
  /// between concurrently running networks and break run isolation.
  net::ConcurrentEgressPipeline pipeline_;

  /// Per-party watchdog state: the completion loop reads these to decide
  /// who is satisfied, the stats provider samples them live, and a timeout
  /// turns them into a who-stalled-and-why report instead of a bare flag.
  std::vector<std::atomic<bool>> done_;
  std::vector<std::atomic<std::uint64_t>> handled_;
  std::vector<std::atomic<Time>> last_progress_;
};

/// Registers ThreadNetwork as net backend "threads". Idempotent
/// (re-registering replaces the factory); called from
/// harness::ensure_backends_registered() — explicit rather than a static
/// initializer, which the linker would drop from a static library.
void register_thread_backend();

}  // namespace hydra::transport
