// Shared scaffolding for protocol-level tests: thin recording parties around
// single sub-protocol instances, and a full-run helper for ΠAA.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "adversary/behaviors.hpp"
#include "adversary/schedulers.hpp"
#include "geometry/vec.hpp"
#include "protocols/aa.hpp"
#include "protocols/codec.hpp"
#include "protocols/init.hpp"
#include "protocols/keys.hpp"
#include "protocols/obc.hpp"
#include "protocols/params.hpp"
#include "protocols/rbc.hpp"
#include "sim/delay.hpp"
#include "sim/simulation.hpp"

namespace hydra::test {

using protocols::PairList;
using protocols::Params;

/// A party that runs only the RBC layer and records deliveries with their
/// local times. If `broadcast_at_start` is set, it initiates that broadcast.
class RbcTestParty : public sim::IParty {
 public:
  struct Delivery {
    Time at;
    InstanceKey key;
    Bytes payload;
  };

  explicit RbcTestParty(const Params& params)
      : mux_(params, [this](sim::Env& env, const InstanceKey& key, const Bytes& b) {
          deliveries.push_back({env.now(), key, b});
        }) {}

  void start(sim::Env& env) override {
    if (broadcast_payload) {
      mux_.broadcast(env, InstanceKey{protocols::kRbcInitValue, env.self(), 0},
                     *broadcast_payload);
    }
  }

  void on_message(sim::Env& env, PartyId from, const sim::Message& msg) override {
    if (msg.kind <= protocols::kRbcReady) mux_.handle(env, from, msg);
  }

  void on_timer(sim::Env&, std::uint64_t) override {}

  std::optional<Bytes> broadcast_payload;
  std::vector<Delivery> deliveries;

 private:
  protocols::RbcMux mux_;
};

/// A party that runs exactly one ΠoBC instance (iteration 1).
class ObcTestParty : public sim::IParty {
 public:
  ObcTestParty(const Params& params, geo::Vec input)
      : input_(std::move(input)),
        mux_(params, [this](sim::Env& env, const InstanceKey& key, const Bytes& b) {
          if (key.tag == protocols::kRbcObcValue && key.b == 1) {
            obc_.on_rbc_value(env, key.a, b);
          }
        }),
        obc_(params, 1, &mux_) {
    obc_.on_output = [this](sim::Env& env, const PairList&) { output_time = env.now(); };
  }

  void start(sim::Env& env) override { obc_.start(env, input_); }

  void on_message(sim::Env& env, PartyId from, const sim::Message& msg) override {
    if (msg.kind <= protocols::kRbcReady) {
      mux_.handle(env, from, msg);
    } else if (msg.kind == protocols::kDirect &&
               msg.key.tag == protocols::kObcReport && msg.key.b == 1) {
      obc_.on_report(env, from, msg.payload);
    }
  }

  void on_timer(sim::Env& env, std::uint64_t) override { obc_.step(env, true); }

  [[nodiscard]] const protocols::ObcInstance& obc() const { return obc_; }

  Time output_time = -1;

 private:
  geo::Vec input_;
  protocols::RbcMux mux_;
  protocols::ObcInstance obc_;
};

/// A party that runs exactly one Πinit instance.
class InitTestParty : public sim::IParty {
 public:
  InitTestParty(const Params& params, geo::Vec input)
      : input_(std::move(input)),
        mux_(params, [this](sim::Env& env, const InstanceKey& key, const Bytes& b) {
          if (key.tag == protocols::kRbcInitValue) init_.on_rbc_value(env, key.a, b);
          if (key.tag == protocols::kRbcInitReport) init_.on_rbc_report(env, key.a, b);
        }),
        init_(params, &mux_) {
    init_.on_output = [this](sim::Env& env, const protocols::InitInstance::Output&) {
      output_time = env.now();
    };
  }

  void start(sim::Env& env) override { init_.start(env, input_); }

  void on_message(sim::Env& env, PartyId from, const sim::Message& msg) override {
    if (msg.kind <= protocols::kRbcReady) {
      mux_.handle(env, from, msg);
    } else if (msg.kind == protocols::kDirect &&
               msg.key.tag == protocols::kInitWitnessSet) {
      init_.on_witness_set(env, from, msg.payload);
    }
  }

  void on_timer(sim::Env& env, std::uint64_t) override { init_.step(env, true); }

  [[nodiscard]] const protocols::InitInstance& init() const { return init_; }

  Time output_time = -1;

 private:
  geo::Vec input_;
  protocols::RbcMux mux_;
  protocols::InitInstance init_;
};

// ------------------------------------------------------- full ΠAA runs

using PartyFactory =
    std::function<std::unique_ptr<sim::IParty>(const Params&, const geo::Vec&)>;

struct AaRunConfig {
  Params params;
  std::vector<geo::Vec> inputs;               ///< one per party (byz may ignore)
  std::map<PartyId, PartyFactory> byzantine;  ///< slots taken by attackers
  std::function<std::unique_ptr<sim::DelayModel>(const Params&)> delay =
      [](const Params& p) { return std::make_unique<sim::FixedDelay>(p.delta); };
  std::uint64_t seed = 1;
  Time max_time = 500'000'000;
};

struct AaRun {
  std::unique_ptr<sim::Simulation> sim;
  std::vector<protocols::AaParty*> honest;  ///< owned by sim
  sim::SimStats stats;

  [[nodiscard]] bool all_output() const {
    for (const auto* p : honest) {
      if (!p->has_output()) return false;
    }
    return true;
  }

  [[nodiscard]] std::vector<geo::Vec> outputs() const {
    std::vector<geo::Vec> out;
    for (const auto* p : honest) {
      if (p->has_output()) out.push_back(p->output());
    }
    return out;
  }

  [[nodiscard]] std::vector<geo::Vec> honest_inputs() const {
    std::vector<geo::Vec> out;
    for (const auto* p : honest) out.push_back(p->input());
    return out;
  }
};

inline AaRun run_aa(AaRunConfig cfg) {
  AaRun run;
  run.sim = std::make_unique<sim::Simulation>(
      net::BackendConfig{.n = cfg.params.n,
                         .delta = cfg.params.delta,
                         .seed = cfg.seed,
                         .max_time = cfg.max_time},
      cfg.delay(cfg.params));
  for (PartyId id = 0; id < cfg.params.n; ++id) {
    const auto byz = cfg.byzantine.find(id);
    if (byz != cfg.byzantine.end()) {
      run.sim->add_party(byz->second(cfg.params, cfg.inputs[id]));
    } else {
      auto party = std::make_unique<protocols::AaParty>(cfg.params, cfg.inputs[id]);
      run.honest.push_back(party.get());
      run.sim->add_party(std::move(party));
    }
  }
  run.stats = run.sim->run();
  return run;
}

}  // namespace hydra::test
