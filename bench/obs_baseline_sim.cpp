#include "obs_baseline_sim.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace hydra::benchobs {

/// Per-party view; mirrors sim::Simulation::PartyEnv minus instrumentation.
class BaselineSim::PartyEnv final : public sim::Env {
 public:
  PartyEnv(BaselineSim* sim, PartyId id) : sim_(sim), id_(id) {}

  void send(PartyId to, sim::Message msg) override {
    HYDRA_ASSERT(to < sim_->parties_.size());
    sim_->deliver(id_, to, std::move(msg));
  }

  void broadcast(const sim::Message& msg) override {
    for (PartyId to = 0; to < sim_->parties_.size(); ++to) {
      sim_->deliver(id_, to, msg);
    }
  }

  void set_timer(Time at, std::uint64_t timer_id) override {
    BaselineSim* sim = sim_;
    const PartyId id = id_;
    sim_->schedule_phase(std::max(at, sim_->now_), Phase::kTimer, [sim, id, timer_id] {
      sim->parties_[id]->on_timer(*sim->envs_[id], timer_id);
    });
  }

  [[nodiscard]] Time now() const override { return sim_->now_; }
  [[nodiscard]] PartyId self() const override { return id_; }
  [[nodiscard]] std::size_t n() const override { return sim_->parties_.size(); }

 private:
  BaselineSim* sim_;
  PartyId id_;
};

BaselineSim::BaselineSim(net::BackendConfig config, std::unique_ptr<sim::DelayModel> delay_model)
    : delay_model_(std::move(delay_model)),
      rng_(config.seed),
      config_(std::move(config)) {
  stats_sent_.assign(config_.n, 0);
}

BaselineSim::~BaselineSim() = default;

void BaselineSim::add_party(std::unique_ptr<sim::IParty> party) {
  const auto id = static_cast<PartyId>(parties_.size());
  parties_.push_back(std::move(party));
  envs_.push_back(std::make_unique<PartyEnv>(this, id));
}

void BaselineSim::schedule_phase(Time at, Phase phase, std::function<void()> fn) {
  queue_.push(Event{at, phase, next_seq_++, std::move(fn)});
}

void BaselineSim::deliver(PartyId from, PartyId to, sim::Message msg) {
  if (from != to) {
    messages_ += 1;
    bytes_ += msg.wire_size();
    stats_sent_[from] += 1;
  }
  const Duration d =
      from == to ? 0 : delay_model_->delay(from, to, now_, msg, rng_);
  HYDRA_ASSERT(from == to || d >= 1);
  BaselineSim* sim = this;
  schedule_phase(now_ + d, Phase::kMessage, [sim, to, msg = std::move(msg), from] {
    sim->parties_[to]->on_message(*sim->envs_[to], from, msg);
  });
}

std::uint64_t BaselineSim::run() {
  for (PartyId id = 0; id < parties_.size(); ++id) {
    BaselineSim* sim = this;
    schedule_phase(0, Phase::kMessage,
                   [sim, id] { sim->parties_[id]->start(*sim->envs_[id]); });
  }
  while (!queue_.empty()) {
    if (events_ >= config_.max_events || queue_.top().at > config_.max_time) break;
    // Move-on-pop, mirroring sim::Simulation: top() is const but the
    // comparator only reads scalar fields, so gutting the closure is safe.
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    HYDRA_ASSERT(ev.at >= now_);
    now_ = ev.at;
    events_ += 1;
    ev.fn();
  }
  return events_;
}

}  // namespace hydra::benchobs
