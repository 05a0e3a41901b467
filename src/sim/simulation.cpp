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
    sim_->calendar_.push(std::max(at, sim_->now_), Phase::kTimer,
                         Event{EventKind::kTimer, 0, id_, timer_id, {}});
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
      pipeline_(net::EgressConfig{.n = config.n, .delta = config.delta}),
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
  callbacks_.push_back(std::move(fn));
  calendar_.push(at, Phase::kTimer,
                 Event{EventKind::kCallback, 0, 0, callbacks_.size() - 1, {}});
}

std::uint32_t Simulation::Calendar::bucket_of(Time at) {
  if (at == last_at_) return last_bucket_;
  auto [it, opened] = open_.try_emplace(at, 0);
  if (opened) {
    if (free_buckets_.empty()) {
      it->second = static_cast<std::uint32_t>(buckets_.size());
      buckets_.emplace_back();
    } else {
      it->second = free_buckets_.back();
      free_buckets_.pop_back();
    }
    ticks_.push_back(Tick{at, it->second});
    std::push_heap(ticks_.begin(), ticks_.end(), Later{});
  }
  last_at_ = at;
  last_bucket_ = it->second;
  return it->second;
}

void Simulation::Calendar::push(Time at, Phase phase, Event&& ev) {
  buckets_[bucket_of(at)].fifo[static_cast<int>(phase)].push_back(std::move(ev));
}

Simulation::Event Simulation::Calendar::pop() {
  const Tick tick = ticks_.front();
  Bucket& bucket = buckets_[tick.bucket];
  auto& fifo = bucket.fifo[bucket.fifo[0].empty() ? 1 : 0];
  Event ev = std::move(fifo.front());
  fifo.pop_front();
  if (bucket.fifo[0].empty() && bucket.fifo[1].empty()) {
    // The tick is drained: close it before the event runs, so a handler
    // pushing to this same tick reopens it at the top of the heap.
    std::pop_heap(ticks_.begin(), ticks_.end(), Later{});
    ticks_.pop_back();
    open_.erase(tick.at);
    free_buckets_.push_back(tick.bucket);
    if (last_at_ == tick.at) last_at_ = -1;
  }
  return ev;
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

  // Observability was on for this send exactly when it got a send id (lazy
  // id mode allocates ids only then). A duplicate shares the original's send
  // id — one send event, two delivers with the same cause — and its payload
  // buffer.
  const EventKind kind =
      egress.send_id != 0 ? EventKind::kTracedDeliver : EventKind::kDeliver;
  if (egress.copies == 2) {
    calendar_.push(now_ + egress.delay[0], Phase::kMessage,
                   Event{kind, from, to, egress.send_id, msg});
  }
  calendar_.push(now_ + egress.delay[egress.copies - 1], Phase::kMessage,
                 Event{kind, from, to, egress.send_id, std::move(msg)});
}

void Simulation::dispatch(Event& ev) {
  switch (ev.kind) {
    case EventKind::kDeliver:
      parties_[ev.to]->on_message(*envs_[ev.to], ev.from, ev.msg);
      return;
    case EventKind::kTracedDeliver:
      dispatch_traced(ev);
      return;
    case EventKind::kTimer:
      parties_[ev.to]->on_timer(*envs_[ev.to], ev.arg);
      return;
    case EventKind::kStart:
      parties_[ev.to]->start(*envs_[ev.to]);
      return;
    case EventKind::kCallback: {
      const auto fn = std::move(callbacks_[ev.arg]);
      fn();
      return;
    }
  }
}

void Simulation::dispatch_traced(Event& ev) {
  net::DeliveryGate::dispatch(now_, ev.from, ev.to, ev.msg, ev.arg, [&] {
    parties_[ev.to]->on_message(*envs_[ev.to], ev.from, ev.msg);
  });
}

SimStats Simulation::run() {
  HYDRA_ASSERT_MSG(parties_.size() == config_.n, "add exactly n parties before run()");
  // All parties start simultaneously at local time 0.
  for (PartyId id = 0; id < parties_.size(); ++id) {
    calendar_.push(0, Phase::kMessage, Event{EventKind::kStart, 0, id, 0, {}});
  }

  // Hoisted: the context (and with it the monitor host and profiler) cannot
  // change while run() executes on this thread. The drain loop is duplicated
  // so the monitors-off, profiler-off path carries no per-event check
  // (bench_obs_overhead).
  obs::MonitorHost* mon = obs::enabled() ? obs::monitors() : nullptr;

  if (mon == nullptr && !obs::prof_enabled()) {
    while (!calendar_.empty()) {
      const Time at = calendar_.next_tick();
      if (stats_.events >= config_.max_events || at > config_.max_time) {
        stats_.hit_limit = true;
        break;
      }
      HYDRA_ASSERT(at >= now_);
      now_ = at;
      Event ev = calendar_.pop();
      stats_.events += 1;
      dispatch(ev);
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
  while (!calendar_.empty()) {
    const Time at = calendar_.next_tick();
    if (stats_.events >= config_.max_events || at > config_.max_time) {
      stats_.hit_limit = true;
      break;
    }
    if (mon != nullptr && mon->abort_requested()) {
      stats_.monitor_aborted = true;
      break;
    }
    HYDRA_ASSERT(at >= now_);
    now_ = at;
    Event ev = calendar_.pop();
    stats_.events += 1;
    {
      // Per-event phase: everything a handler does (net.deliver, aa.*,
      // geo.*) nests under sim.event, so self-time here is pure event-loop
      // bookkeeping.
      HYDRA_PROF_SCOPE("sim.event");
      dispatch(ev);
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
