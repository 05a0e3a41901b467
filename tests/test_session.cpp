// Tests for session multiplexing: several concurrent ΠAA instances over one
// network, hosted per party by a serve::InstanceMux, with independent
// parameters and inputs per instance, including a mix of honest and
// Byzantine participants. Every run must drain on its own (no hit_limit)
// without a message or timer reaching an already retired instance.
#include <gtest/gtest.h>

#include <memory>

#include "geometry/convex.hpp"
#include "protocol_test_util.hpp"
#include "serve/instance_mux.hpp"

namespace hydra::test {
namespace {

using serve::InstanceDirectory;
using serve::InstanceMux;
using serve::InstanceRecord;

Params make_params(std::size_t dim, double eps = 1e-2, std::size_t n = 5) {
  Params p;
  p.n = n;
  p.ts = 1;
  p.ta = 1;
  p.dim = dim;
  p.eps = eps;
  p.delta = 1000;
  return p;
}

/// A mux hosting one ΠAA instance per entry: instance k runs params[k] on
/// inputs[k], and its output is snapshotted into record(k) on decision.
std::unique_ptr<InstanceMux> host_aa(InstanceDirectory& directory,
                                     std::vector<Params> params,
                                     std::vector<geo::Vec> inputs) {
  InstanceMux::Config cfg;
  cfg.instances = static_cast<std::uint32_t>(params.size());
  cfg.linger = 8 * params[0].delta;
  cfg.gc_retry = params[0].delta;
  cfg.directory = &directory;
  cfg.make_party = [params, inputs](std::uint32_t k) {
    return std::make_unique<protocols::AaParty>(params[k], inputs[k]);
  };
  cfg.decided = [](const sim::IParty& party, std::uint32_t) {
    return static_cast<const protocols::AaParty&>(party).has_output();
  };
  cfg.snapshot = [](std::uint32_t, const sim::IParty& party, InstanceRecord& rec) {
    rec.has_output = true;
    rec.output = static_cast<const protocols::AaParty&>(party).output();
  };
  return std::make_unique<InstanceMux>(std::move(cfg));
}

TEST(Session, ThreeConcurrentAgreementsAllSucceed) {
  // Instance 0: D = 1, instance 1: D = 2, instance 2: D = 3 — all running
  // over the same simulated network at once. n = 6 so the D = 3 instance
  // stays feasible: (3+1)*1 + 1 = 5 < 6.
  const std::size_t n = 6;
  sim::Simulation sim({.n = n, .delta = 1000, .seed = 11},
                      std::make_unique<sim::UniformDelay>(1, 1000));

  std::vector<InstanceMux*> muxes;
  Rng rng(5);
  std::vector<std::vector<geo::Vec>> inputs(3);
  for (std::size_t dim = 1; dim <= 3; ++dim) {
    for (std::size_t i = 0; i < n; ++i) {
      geo::Vec v(dim, 0.0);
      for (std::size_t d = 0; d < dim; ++d) v[d] = rng.next_double(-9, 9);
      inputs[dim - 1].push_back(std::move(v));
    }
  }

  InstanceDirectory directory(3, n);
  for (PartyId id = 0; id < n; ++id) {
    std::vector<Params> params;
    std::vector<geo::Vec> own;
    for (std::uint32_t s = 0; s < 3; ++s) {
      params.push_back(make_params(s + 1, 1e-2, n));
      own.push_back(inputs[s][id]);
    }
    auto mux = host_aa(directory, std::move(params), std::move(own));
    muxes.push_back(mux.get());
    sim.add_party(std::move(mux));
  }
  const auto stats = sim.run();
  EXPECT_FALSE(stats.hit_limit);

  for (std::uint32_t s = 0; s < 3; ++s) {
    std::vector<geo::Vec> outputs;
    for (auto* m : muxes) {
      ASSERT_TRUE(m->record(s).has_output) << "instance " << s;
      outputs.push_back(m->record(s).output);
      EXPECT_TRUE(geo::in_convex_hull(inputs[s], m->record(s).output, 1e-5));
    }
    EXPECT_LE(geo::diameter(outputs), make_params(s + 1, 1e-2, n).eps + 1e-9)
        << "instance " << s;
  }
  for (auto* m : muxes) {
    EXPECT_EQ(m->late_dropped(), 0u);
    EXPECT_EQ(m->unknown_dropped(), 0u);
  }
}

TEST(Session, SessionsAreIsolated) {
  // Two instances with wildly different inputs: outputs must not bleed
  // between them (the D = 2 instance converges near its own inputs, far
  // from the other instance's).
  const std::size_t n = 5;
  sim::Simulation sim({.n = n, .delta = 1000, .seed = 13},
                      std::make_unique<sim::UniformDelay>(1, 1000));
  std::vector<InstanceMux*> muxes;
  InstanceDirectory directory(2, n);
  for (PartyId id = 0; id < n; ++id) {
    auto mux = host_aa(directory, {make_params(2), make_params(2)},
                       {geo::Vec{1000.0 + id, 1000.0},      // cluster at ~1000
                        geo::Vec{-1000.0 - id, -1000.0}});  // cluster at ~-1000
    muxes.push_back(mux.get());
    sim.add_party(std::move(mux));
  }
  const auto stats = sim.run();
  EXPECT_FALSE(stats.hit_limit);
  for (auto* m : muxes) {
    ASSERT_TRUE(m->all_done());
    EXPECT_GT(m->record(0).output[0], 900.0);
    EXPECT_LT(m->record(1).output[0], -900.0);
    EXPECT_EQ(m->late_dropped(), 0u);
    EXPECT_EQ(m->unknown_dropped(), 0u);
  }
}

TEST(Session, ByzantinePartyAffectsNoSession) {
  // One silent party; both instances still satisfy D-AA among the honest.
  const std::size_t n = 5;
  sim::Simulation sim({.n = n, .delta = 1000, .seed = 17},
                      std::make_unique<sim::UniformDelay>(1, 1000));
  std::vector<InstanceMux*> honest;
  std::vector<std::vector<geo::Vec>> inputs(2);
  Rng rng(7);
  for (std::uint32_t s = 0; s < 2; ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      inputs[s].push_back(geo::Vec{rng.next_double(-5, 5), rng.next_double(-5, 5)});
    }
  }
  InstanceDirectory directory(2, n - 1);  // the four muxes decide
  for (PartyId id = 0; id < n; ++id) {
    if (id == 2) {
      sim.add_party(std::make_unique<adversary::SilentParty>());
      continue;
    }
    auto mux = host_aa(directory, {make_params(2), make_params(2)},
                       {inputs[0][id], inputs[1][id]});
    honest.push_back(mux.get());
    sim.add_party(std::move(mux));
  }
  const auto stats = sim.run();
  EXPECT_FALSE(stats.hit_limit);

  for (std::uint32_t s = 0; s < 2; ++s) {
    std::vector<geo::Vec> outputs;
    std::vector<geo::Vec> honest_inputs;
    for (std::size_t i = 0; i < n; ++i) {
      if (i != 2) honest_inputs.push_back(inputs[s][i]);
    }
    for (auto* m : honest) {
      ASSERT_TRUE(m->record(s).has_output);
      outputs.push_back(m->record(s).output);
      EXPECT_TRUE(geo::in_convex_hull(honest_inputs, m->record(s).output, 1e-5));
    }
    EXPECT_LE(geo::diameter(outputs), make_params(2).eps + 1e-9);
  }
  for (auto* m : honest) {
    EXPECT_EQ(m->late_dropped(), 0u);
    EXPECT_EQ(m->unknown_dropped(), 0u);
  }
}

TEST(Session, UnknownSessionTrafficDropped) {
  // A spammer blasting junk keys under instance 1 must not disturb muxes
  // hosting the single instance 0: its traffic is counted and dropped.
  const std::size_t n = 5;
  sim::Simulation sim({.n = n, .delta = 1000, .seed = 19},
                      std::make_unique<sim::UniformDelay>(1, 1000));
  std::vector<InstanceMux*> honest;
  const auto params = make_params(2);
  InstanceDirectory directory(1, n - 1);
  InstanceDirectory spam_directory(2, 1);
  for (PartyId id = 0; id < n; ++id) {
    if (id == 4) {
      InstanceMux::Config cfg;
      cfg.instances = 2;
      cfg.directory = &spam_directory;
      cfg.make_party = [&params](std::uint32_t k) -> std::unique_ptr<sim::IParty> {
        if (k == 0) return std::make_unique<adversary::SilentParty>();
        return std::make_unique<adversary::SpammerParty>(
            params, 23, params.delta / 2, 40 * params.delta);
      };
      // Never decided, so never retired: the spammer runs until it stops.
      cfg.decided = [](const sim::IParty&, std::uint32_t) { return false; };
      sim.add_party(std::make_unique<InstanceMux>(std::move(cfg)));
      continue;
    }
    auto mux = host_aa(directory, {params}, {geo::Vec{1.0 * id, -1.0 * id}});
    honest.push_back(mux.get());
    sim.add_party(std::move(mux));
  }
  const auto stats = sim.run();
  EXPECT_FALSE(stats.hit_limit);
  for (auto* m : honest) {
    ASSERT_TRUE(m->record(0).has_output);
    EXPECT_GT(m->unknown_dropped(), 0u);
    EXPECT_EQ(m->late_dropped(), 0u);
  }
}

/// Sends one ΠrBC SEND per listed instance id to every other party at start.
class StrayInstanceSender final : public sim::IParty {
 public:
  explicit StrayInstanceSender(std::vector<std::uint32_t> instances)
      : instances_(std::move(instances)) {}

  void start(sim::Env& env) override {
    for (const std::uint32_t instance : instances_) {
      for (PartyId to = 0; to < env.n(); ++to) {
        if (to == env.self()) continue;
        env.send(to, sim::Message{
                         InstanceKey{protocols::kRbcInitValue |
                                         (instance << kInstanceTagShift),
                                     env.self(), 0},
                         protocols::kRbcSend, protocols::encode_value(geo::Vec{0.0})});
      }
    }
  }
  void on_message(sim::Env&, PartyId, const sim::Message&) override {}
  void on_timer(sim::Env&, std::uint64_t) override {}

 private:
  std::vector<std::uint32_t> instances_;
};

TEST(Session, TrafficForInstancesBeyondTheRangeIsCountedAsUnknown) {
  // Muxes host instances 0 and 1; a Byzantine party addresses instance 2
  // (the first id past the range) and the largest id the tag can carry.
  // Each honest mux counts both as unknown, and the hosted instances agree.
  const std::size_t n = 5;
  sim::Simulation sim({.n = n, .delta = 1000, .seed = 29},
                      std::make_unique<sim::UniformDelay>(1, 1000));
  std::vector<InstanceMux*> honest;
  InstanceDirectory directory(2, n - 1);
  for (PartyId id = 0; id < n; ++id) {
    if (id == 0) {
      sim.add_party(std::make_unique<StrayInstanceSender>(
          std::vector<std::uint32_t>{2, kMaxInstances - 1}));
      continue;
    }
    auto mux = host_aa(directory, {make_params(1), make_params(2)},
                       {geo::Vec{1.0 * id}, geo::Vec{1.0 * id, 2.0 * id}});
    honest.push_back(mux.get());
    sim.add_party(std::move(mux));
  }
  const auto stats = sim.run();
  EXPECT_FALSE(stats.hit_limit);
  for (auto* m : honest) {
    EXPECT_TRUE(m->all_done());
    EXPECT_EQ(m->unknown_dropped(), 2u);
    EXPECT_EQ(m->late_dropped(), 0u);
  }
}

}  // namespace
}  // namespace hydra::test
