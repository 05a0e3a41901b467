// Uninstrumented replica of sim::Simulation for bench_obs_overhead.
//
// The replica deliberately lives in its own translation unit: the real
// simulator's hot path sits behind the libhydra_sim TU boundary, so if the
// replica were defined next to the timing loop the optimizer could inline
// and devirtualize call chains the real simulator cannot — the measured
// "overhead" would then be mostly cross-TU codegen differences, not the
// cost of the deleted `if (obs::enabled())` branches. Keeping both sides
// behind the same kind of boundary isolates the instrumentation cost.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/backend.hpp"
#include "sim/delay.hpp"
#include "sim/env.hpp"
#include "sim/message.hpp"

namespace hydra::benchobs {

/// sim::Simulation with the obs branches deleted; everything else — event
/// struct, tie-breaking, Env dispatch, delay draws — mirrors the original so
/// the timing difference isolates the disabled-path instrumentation cost.
class BaselineSim {
 public:
  BaselineSim(net::BackendConfig config, std::unique_ptr<sim::DelayModel> delay_model);
  ~BaselineSim();

  BaselineSim(const BaselineSim&) = delete;
  BaselineSim& operator=(const BaselineSim&) = delete;

  void add_party(std::unique_ptr<sim::IParty> party);

  /// Drains the queue; returns the number of events processed.
  std::uint64_t run();

 private:
  class PartyEnv;

  enum class Phase : std::uint8_t { kMessage = 0, kTimer = 1 };

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

  void schedule_phase(Time at, Phase phase, std::function<void()> fn);
  void deliver(PartyId from, PartyId to, sim::Message msg);

  std::unique_ptr<sim::DelayModel> delay_model_;
  Rng rng_;
  std::priority_queue<Event, std::vector<Event>, EventOrder> queue_;
  std::uint64_t next_seq_ = 0;
  std::vector<std::unique_ptr<sim::IParty>> parties_;
  std::vector<std::unique_ptr<PartyEnv>> envs_;
  Time now_ = 0;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t events_ = 0;
  std::vector<std::uint64_t> stats_sent_;
  net::BackendConfig config_;  ///< last, as in sim::Simulation
};

}  // namespace hydra::benchobs
