#include "transport/thread_net.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "faults/faults.hpp"
#include "net/delivery.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/prof.hpp"
#include "obs/stats.hpp"

namespace hydra::transport {

using Clock = std::chrono::steady_clock;

/// The per-party Env implementation; used only from the party's own thread.
class ThreadNetwork::ThreadEnv final : public sim::Env {
 public:
  ThreadEnv(ThreadNetwork* net, PartyId id) : net_(net), id_(id) {}

  void send(PartyId to, sim::Message msg) override { net_->post(id_, to, std::move(msg)); }

  void broadcast(const sim::Message& msg) override {
    for (PartyId to = 0; to < net_->config_.n; ++to) net_->post(id_, to, msg);
  }

  void set_timer(Time at, std::uint64_t timer_id) override {
    timers_.emplace(at, timer_id);
  }

  [[nodiscard]] Time now() const override { return net_->now_ticks(); }
  [[nodiscard]] PartyId self() const override { return id_; }
  [[nodiscard]] std::size_t n() const override { return net_->config_.n; }

  /// Earliest pending timer deadline (kTimeInfinity if none).
  [[nodiscard]] Time next_timer() const {
    return timers_.empty() ? kTimeInfinity : timers_.top().first;
  }

  /// Pops one due timer id, if any.
  std::optional<std::uint64_t> pop_due_timer(Time now) {
    if (timers_.empty() || timers_.top().first > now) return std::nullopt;
    const auto id = timers_.top().second;
    timers_.pop();
    return id;
  }

 private:
  using TimerEntry = std::pair<Time, std::uint64_t>;
  ThreadNetwork* net_;
  PartyId id_;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>, std::greater<>> timers_;
};

ThreadNetwork::ThreadNetwork(net::BackendConfig config,
                             std::unique_ptr<sim::DelayModel> delay_model)
    : config_(std::move(config)),
      local_(config_.n, true),
      delay_model_(std::move(delay_model)),
      delay_rng_(config_.seed),
      pipeline_(net::EgressConfig{.n = config_.n,
                                  .delta = config_.delta,
                                  .per_round = false,
                                  .eager_ids = true,
                                  .messages_counter = "net.messages",
                                  .bytes_counter = "net.bytes",
                                  .delay_histogram = "net.delay_delta"}),
      // std::atomic value-initializes (C++20): every flag and count starts 0.
      done_(config_.n),
      handled_(config_.n),
      last_progress_(config_.n) {
  HYDRA_ASSERT(delay_model_ != nullptr);
  HYDRA_ASSERT(config_.n >= 1);
  HYDRA_ASSERT(config_.us_per_tick > 0.0);
  mailboxes_.reserve(config_.n);
  for (std::size_t i = 0; i < config_.n; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

ThreadNetwork::~ThreadNetwork() = default;

Time ThreadNetwork::now_ticks() const {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - epoch_)
                      .count();
  return static_cast<Time>(static_cast<double>(us) / config_.us_per_tick);
}

Clock::time_point ThreadNetwork::tick_deadline(Time at) const {
  return epoch_ + std::chrono::microseconds(
                      static_cast<std::int64_t>(static_cast<double>(at) *
                                                config_.us_per_tick) +
                      1);
}

void ThreadNetwork::post(PartyId from, PartyId to, sim::Message msg) {
  HYDRA_ASSERT(to < config_.n);
  // One timestamp for the whole post: computing the delay against one sample
  // and stamping `due` with a later one would stretch delivery times by the
  // (lock-contended) gap between the two reads.
  const Time now = now_ticks();
  Duration base = 0;
  if (from != to) {
    const std::lock_guard lock(delay_mutex_);
    base = delay_model_->delay(from, to, now, msg, delay_rng_);
  }
  // All egress policy — self-post accounting exemption, fault outcomes,
  // sequence/send-id allocation, trace + monitor emission — lives in the
  // shared net::EgressPipeline. (Wall-clock-driven tick stamps: wall-clock
  // traces are NOT deterministic across runs, unlike the simulator's.) This
  // function only hands the surviving copies to enqueue().
  const auto egress = pipeline_.on_send(from, to, msg, now, base, injector_);
  if (egress.copies == 0) return;  // crashed endpoint dropped it
  if (egress.copies == 2) {
    // The duplicate gets its own queue position but keeps the original's
    // send id as its trace cause — one send, two delivers.
    sim::Message copy = msg;
    enqueue(to, Mailbox::Item{now + egress.delay[0], egress.seq[0], egress.send_id,
                              from, std::move(msg)});
    enqueue(to, Mailbox::Item{now + egress.delay[1], egress.seq[1], egress.send_id,
                              from, std::move(copy)});
    return;
  }
  enqueue(to, Mailbox::Item{now + egress.delay[0], egress.seq[0], egress.send_id, from,
                            std::move(msg)});
}

void ThreadNetwork::enqueue(PartyId to, Mailbox::Item item) {
  mailboxes_[to]->push(std::move(item));
}

// A party whose crash window has opened is excused from shutdown: a
// crash-stop can never satisfy `finished`, and a crash-recover party may
// have lost traffic nobody retransmits — either way the oracle counts it as
// faulty and judges the run on the others, so waiting for it buys nothing
// but the full wall-clock timeout.
bool ThreadNetwork::crash_excused(PartyId id) const {
  if (injector_ == nullptr) return false;
  for (const auto& c : injector_->plan().crashes) {
    if (c.party == id && now_ticks() >= c.at) return true;
  }
  return false;
}

net::BackendStats ThreadNetwork::run(std::vector<std::unique_ptr<sim::IParty>>& parties,
                                     const FinishedFn& finished) {
  HYDRA_ASSERT(parties.size() == config_.n);
  const std::size_t n = config_.n;
  open();
  // The protocol clock starts here: ticks elapsed during connection setup
  // would otherwise offset every timer and delay deadline.
  epoch_ = Clock::now();
  start_io();

  // Party threads inherit the launching thread's observability context, so a
  // network run from inside a per-run session keeps writing to that run's
  // registry/trace.
  obs::Context* obs_ctx = obs::current_context();

  auto worker = [&, obs_ctx](PartyId id) {
    const obs::ScopedContext obs_scope(obs_ctx);
    // Workers inherit the profiler through the context; the scope stack is
    // thread-local, so concurrent parties attribute self/child time
    // independently while aggregating into the shared per-phase atomics.
    HYDRA_PROF_SCOPE("transport.worker");
    ThreadEnv env(this, id);
    sim::IParty& party = *parties[id];
    party.start(env);
    if (finished(party, id)) done_[id].store(true, std::memory_order_release);
    // Fires every timer due at or before `upto`; true if any fired.
    auto fire_timers = [&](Time upto) {
      bool fired = false;
      while (auto timer_id = env.pop_due_timer(upto)) {
        HYDRA_PROF_SCOPE("transport.timer");
        party.on_timer(env, *timer_id);
        fired = true;
      }
      return fired;
    };

    while (!stop_.load(std::memory_order_acquire)) {
      const Time timer_at = env.next_timer();
      auto item = mailboxes_[id]->pop_due([this] { return now_ticks(); },
                                          [this](Time at) { return tick_deadline(at); },
                                          timer_at);
      if (stop_.load(std::memory_order_acquire)) break;
      bool progressed = false;
      if (item) {
        // Timers due strictly earlier than the message fire first, in the
        // simulator's order: a worker that wakes late must not hand its party
        // a message ahead of an earlier timer (a serve instance's admission,
        // say, which the message would otherwise find pending), and on a tick
        // tie the message goes first, as the simulator delivers same-tick
        // messages before timers.
        fire_timers(item->due - 1);
        if (obs::enabled()) {
          // net::DeliveryGate emits the deliver trace event and brackets the
          // handler with begin_dispatch/end_dispatch, so invariant
          // violations raised inside it carry this message's send id as
          // their cause — same semantics as the simulator (the cause is
          // per-thread in MonitorHost, so concurrent workers don't clash).
          net::DeliveryGate::dispatch(now_ticks(), item->from, id, item->msg,
                                      item->cause, [&] {
            party.on_message(env, item->from, item->msg);
          });
        } else {
          party.on_message(env, item->from, item->msg);
        }
        progressed = true;
      }
      if (fire_timers(now_ticks())) progressed = true;
      if (progressed) {
        handled_[id].fetch_add(1, std::memory_order_relaxed);
        last_progress_[id].store(now_ticks(), std::memory_order_relaxed);
        if (!done_[id].load(std::memory_order_relaxed) && finished(party, id)) {
          done_[id].store(true, std::memory_order_release);
        }
      }
      // A finished party keeps processing traffic (it must keep relaying
      // ΠrBC echoes for the others) until the network shuts down.
    }
  };

  std::vector<std::thread> workers;
  for (PartyId id = 0; id < n; ++id) {
    if (is_local(id)) workers.emplace_back(worker, id);
  }

  // Live telemetry: looked up once (context-scoped, obs/stats.hpp), then the
  // sampling thread pulls snapshots from live runtime state.
  obs::StatsPublisher* stats_pub = obs::stats();
  if (stats_pub != nullptr) {
    stats_pub->set_provider([this, n](obs::StatsSnapshot& s) {
      s.messages = pipeline_.messages();
      s.bytes = pipeline_.bytes();
      for (PartyId id = 0; id < n; ++id) {
        if (!is_local(id)) continue;
        s.mailbox_depth += mailboxes_[id]->size();
        obs::StatsSnapshot::Party p;
        p.id = id;
        p.finished = done(id);
        p.events = handled_[id].load(std::memory_order_relaxed);
        p.round = config_.delta > 0
                      ? static_cast<std::uint64_t>(
                            last_progress_[id].load(std::memory_order_relaxed) /
                            config_.delta)
                      : 0;
        if (p.finished) ++s.decided;
        s.round = std::max(s.round, p.round);
        s.parties.push_back(p);
      }
      add_heartbeat(s);
    });
  }

  // Hoisted like the simulator's drain loop: the launching thread's context
  // (and with it the monitor host) cannot change while run() executes.
  obs::MonitorHost* mon = obs::enabled() ? obs::monitors() : nullptr;

  const auto deadline = Clock::now() + std::chrono::milliseconds(config_.timeout_ms);
  bool timed_out = false;
  bool monitor_aborted = false;
  for (;;) {
    on_poll();
    std::size_t ok = 0;
    for (PartyId id = 0; id < n; ++id) ok += (done(id) || crash_excused(id)) ? 1 : 0;
    if (ok == n) break;
    if (mon != nullptr && mon->abort_requested()) {
      // Strict mode: a monitor asked to stop the run. The watchdog is the
      // only loop every run passes through, so it owns the abort (workers
      // keep draining until `stop_` flips — an abort is a shutdown, not a
      // crash).
      monitor_aborted = true;
      break;
    }
    if (Clock::now() >= deadline) {
      timed_out = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The final heartbeat ("final":1) must sample live runtime state, so the
  // publisher stops HERE, before shutdown; the harness's own stop() at run
  // teardown is then an idempotent no-op.
  if (stats_pub != nullptr) {
    stats_pub->stop();
    stats_pub->set_provider(nullptr);
  }

  stop_.store(true, std::memory_order_release);
  for (PartyId id = 0; id < n; ++id) {
    if (is_local(id)) mailboxes_[id]->close();
  }
  stop_io();
  for (auto& thread : workers) thread.join();
  join_io();

  net::BackendStats stats;
  pipeline_.export_stats(stats.wire);  // after join: relaxed counters are settled
  stats.timed_out = timed_out;
  stats.monitor_aborted = monitor_aborted;
  stats.wall_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - epoch_)
          .count();
  // Virtual end time derived from the wall clock via the tick mapping —
  // coarse (the watchdog polls every ~1 ms) but in the same unit as the
  // simulator's, so rounds = end_time / Delta stays comparable.
  stats.end_time = static_cast<Time>(static_cast<double>(stats.wall_ms) * 1000.0 /
                                     config_.us_per_tick);
  stats.progress.resize(n);
  for (PartyId id = 0; id < n; ++id) {
    auto& p = stats.progress[id];
    p.finished = done(id);
    p.events = handled_[id].load();
    p.last_progress = last_progress_[id].load();
    p.crash_stopped =
        injector_ != nullptr && injector_->plan().crash_stop_at(id).has_value();
  }
  if (timed_out) {
    // Names each stalled party with its event count and last-progress tick;
    // remote parties that never reported done get their own phrasing (their
    // host reports the detail).
    std::ostringstream detail;
    const char* sep = "";
    for (PartyId id = 0; id < n; ++id) {
      const auto& p = stats.progress[id];
      if (p.finished || crash_excused(id)) continue;
      detail << sep << "party " << id;
      if (is_local(id)) {
        detail << ": unfinished after " << p.events << " events, last progress at tick "
               << p.last_progress;
      } else {
        detail << ": remote, no FIN received";
      }
      sep = "; ";
    }
    stats.timeout_detail = detail.str();
    HYDRA_LOG_ERROR("transport: timeout — %s", stats.timeout_detail.c_str());
  }
  add_stats(stats);
  return stats;
}

void register_thread_backend() {
  net::register_backend(
      "threads",
      [](const net::BackendConfig& config,
         std::unique_ptr<sim::DelayModel> delay_model) -> std::unique_ptr<net::Backend> {
        return std::make_unique<ThreadNetwork>(config, std::move(delay_model));
      });
}

}  // namespace hydra::transport
