#include "sim/simulation.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "faults/faults.hpp"
#include "net/delivery.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/prof.hpp"

namespace hydra::sim {

/// Per-party view of the simulation; implements the Env the protocol sees.
class Simulation::PartyEnv final : public Env {
 public:
  PartyEnv(Simulation* sim, PartyId id) : sim_(sim), id_(id) {}

  void send(PartyId to, Message msg) override {
    HYDRA_ASSERT(to < sim_->parties_.size());
    sim_->deliver(id_, to, std::move(msg));
  }

  void broadcast(const Message& msg) override {
    for (PartyId to = 0; to < sim_->parties_.size(); ++to) {
      sim_->deliver(id_, to, msg);
    }
  }

  void set_timer(Time at, std::uint64_t timer_id) override {
    Simulation* sim = sim_;
    const PartyId id = id_;
    sim_->schedule(std::max(at, sim_->now_), [sim, id, timer_id] {
      sim->parties_[id]->on_timer(*sim->envs_[id], timer_id);
    });
  }

  [[nodiscard]] Time now() const override { return sim_->now_; }
  [[nodiscard]] PartyId self() const override { return id_; }
  [[nodiscard]] std::size_t n() const override { return sim_->parties_.size(); }

 private:
  Simulation* sim_;
  PartyId id_;
};

Simulation::Simulation(net::BackendConfig config,
                       std::unique_ptr<DelayModel> delay_model)
    : delay_model_(std::move(delay_model)),
      rng_(config.seed),
      pipeline_(net::EgressConfig{.n = config.n,
                                  .delta = config.delta,
                                  .per_round = true,
                                  .eager_ids = false,
                                  .messages_counter = "sim.messages",
                                  .bytes_counter = "sim.bytes",
                                  .delay_histogram = "sim.delay_delta"}),
      config_(std::move(config)) {
  HYDRA_ASSERT(delay_model_ != nullptr);
  HYDRA_ASSERT(config_.n >= 1);
}

Simulation::~Simulation() = default;

void Simulation::add_party(std::unique_ptr<IParty> party) {
  HYDRA_ASSERT_MSG(parties_.size() < config_.n, "more parties than config.n");
  const auto id = static_cast<PartyId>(parties_.size());
  parties_.push_back(std::move(party));
  envs_.push_back(std::make_unique<PartyEnv>(this, id));
}

void Simulation::schedule(Time at, std::function<void()> fn) {
  schedule_phase(at, Phase::kTimer, std::move(fn));
}

void Simulation::schedule_phase(Time at, Phase phase, std::function<void()> fn) {
  queue_.push(Event{at, phase, next_seq_++, std::move(fn)});
}

void Simulation::schedule_traced_delivery(Time at, PartyId from, PartyId to,
                                          Message msg, std::uint64_t send_id) {
  Simulation* sim = this;
  schedule_phase(at, Phase::kMessage,
                 [sim, from, to, send_id, msg = std::move(msg)] {
    net::DeliveryGate::dispatch(sim->now_, from, to, msg, send_id, [&] {
      sim->parties_[to]->on_message(*sim->envs_[to], from, msg);
    });
  });
}

void Simulation::deliver(PartyId from, PartyId to, Message msg) {
  const bool self = from == to;
  // Self-delivery is local computation, not network traffic: zero delay (but
  // still queued, so handlers never re-enter); the pipeline exempts it from
  // all message accounting — only wire traffic counts against the paper's
  // bounds. All other egress policy (fault outcomes, ids, obs emission)
  // lives in net::EgressPipeline, shared with the thread transport.
  const Duration base = self ? 0 : delay_model_->delay(from, to, now_, msg, rng_);
  const auto egress = pipeline_.on_send(from, to, msg, now_, base, injector_);
  if (egress.copies == 0) return;  // crashed endpoint dropped it

  if (egress.send_id != 0) {
    // Observability was on for this send (lazy id mode allocates ids only
    // then, and the obs state cannot change while run() executes): schedule
    // traced deliveries. A duplicate shares the original's send id — one
    // send event, two delivers with the same cause.
    schedule_traced_delivery(now_ + egress.delay[0], from, to,
                             egress.copies == 2 ? Message(msg) : std::move(msg),
                             egress.send_id);
    if (egress.copies == 2) {
      schedule_traced_delivery(now_ + egress.delay[1], from, to, std::move(msg),
                               egress.send_id);
    }
    return;
  }
  // Disabled hot path: one atomic load inside the pipeline, then the lean
  // closure — held to < 2% overhead by bench_obs_overhead.
  Simulation* sim = this;
  if (egress.copies == 2) {
    Message copy = msg;
    schedule_phase(now_ + egress.delay[0], Phase::kMessage,
                   [sim, from, to, msg = std::move(msg)] {
      sim->parties_[to]->on_message(*sim->envs_[to], from, msg);
    });
    schedule_phase(now_ + egress.delay[1], Phase::kMessage,
                   [sim, from, to, msg = std::move(copy)] {
      sim->parties_[to]->on_message(*sim->envs_[to], from, msg);
    });
    return;
  }
  schedule_phase(now_ + egress.delay[0], Phase::kMessage,
                 [sim, from, to, msg = std::move(msg)] {
    sim->parties_[to]->on_message(*sim->envs_[to], from, msg);
  });
}

SimStats Simulation::run() {
  HYDRA_ASSERT_MSG(parties_.size() == config_.n, "add exactly n parties before run()");
  // All parties start simultaneously at local time 0.
  for (PartyId id = 0; id < parties_.size(); ++id) {
    Simulation* sim = this;
    schedule_phase(0, Phase::kMessage, [sim, id] { sim->parties_[id]->start(*sim->envs_[id]); });
  }

  // Hoisted: the context (and with it the monitor host and profiler) cannot
  // change while run() executes on this thread. The drain loop is duplicated
  // so the monitors-off, profiler-off path carries no per-event check
  // (bench_obs_overhead).
  obs::MonitorHost* mon = obs::enabled() ? obs::monitors() : nullptr;

  if (mon == nullptr && !obs::prof_enabled()) {
    while (!queue_.empty()) {
      if (stats_.events >= config_.max_events || queue_.top().at > config_.max_time) {
        stats_.hit_limit = true;
        break;
      }
      // Move the event out instead of copying: top() is const-qualified
      // only because mutating the ordering fields would corrupt the heap;
      // moving the closure (and its captured payload) right before pop()
      // leaves the comparator-visible scalars untouched.
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      HYDRA_ASSERT(ev.at >= now_);
      now_ = ev.at;
      stats_.events += 1;
      ev.fn();
    }
  } else {
    drain_observed(mon);
  }

  stats_.end_time = now_;
  pipeline_.export_stats(stats_);
  if (obs::enabled()) {
    obs::registry().counter("sim.events").inc(stats_.events);
  }
  return stats_;
}

net::BackendStats Simulation::run(std::vector<std::unique_ptr<IParty>>& parties,
                                   const FinishedFn& /*finished*/) {
  for (auto& party : parties) add_party(std::move(party));
  const SimStats stats = run();
  net::BackendStats out;
  out.wire = stats;  // slice down to the shared WireStats base
  out.end_time = stats.end_time;
  out.events = stats.events;
  out.hit_limit = stats.hit_limit;
  out.monitor_aborted = stats.monitor_aborted;
  return out;
}

void Simulation::drain_observed(obs::MonitorHost* mon) {
  HYDRA_PROF_SCOPE("sim.run");
  while (!queue_.empty()) {
    if (stats_.events >= config_.max_events || queue_.top().at > config_.max_time) {
      stats_.hit_limit = true;
      break;
    }
    if (mon != nullptr && mon->abort_requested()) {
      stats_.monitor_aborted = true;
      break;
    }
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    HYDRA_ASSERT(ev.at >= now_);
    now_ = ev.at;
    stats_.events += 1;
    {
      // Per-event phase: everything a handler does (net.deliver, aa.*,
      // geo.*) nests under sim.event, so self-time here is pure event-loop
      // bookkeeping.
      HYDRA_PROF_SCOPE("sim.event");
      ev.fn();
    }
  }
}

void register_sim_backend() {
  net::register_backend(
      "sim",
      [](const net::BackendConfig& config,
         std::unique_ptr<DelayModel> delay_model) -> std::unique_ptr<net::Backend> {
        return std::make_unique<Simulation>(config, std::move(delay_model));
      });
}

}  // namespace hydra::sim
