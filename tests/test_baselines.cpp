// Tests for the baselines:
//  * SyncLockstepParty (Vaidya-Garg style): correct under synchrony at
//    (D+1) t < n, demonstrably broken under asynchrony;
//  * the asynchronous-optimal protocol (Mendes-Herlihy style), which is
//    hybrid ΠAA at ts = ta = t — the harness's Protocol::kAsyncMh: correct
//    in both network modes at the lower resilience (D+2) t < n;
//  * CoordinatewiseParty: D independent 1-D agreements, valid only in the
//    bounding box.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/coordinatewise.hpp"
#include "baselines/sync_lockstep.hpp"
#include "geometry/convex.hpp"
#include "protocol_test_util.hpp"

namespace hydra::test {
namespace {

using baselines::SyncLockstepConfig;
using baselines::SyncLockstepParty;

std::vector<geo::Vec> ring_inputs(std::size_t n, double radius = 10.0) {
  std::vector<geo::Vec> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = 2.0 * 3.14159265358979 * static_cast<double>(i) /
                     static_cast<double>(n);
    inputs.push_back(geo::Vec{radius * std::cos(a), radius * std::sin(a)});
  }
  return inputs;
}

/// The asynchronous-optimal protocol at threshold t: ΠAA at ts = ta = t,
/// whose feasibility (D+1) t + t < n is the asynchronous bound (D+2) t < n.
Params async_params(std::size_t n, std::size_t t, std::size_t dim,
                    double eps = 1e-3) {
  Params p;
  p.n = n;
  p.ts = t;
  p.ta = t;
  p.dim = dim;
  p.eps = eps;
  return p;
}

std::uint64_t rounds_for(double eps, double diam) {
  return protocols::sufficient_iterations(eps, diam);
}

struct LockstepRun {
  std::unique_ptr<sim::Simulation> sim;
  std::vector<SyncLockstepParty*> honest;
};

LockstepRun run_lockstep(const SyncLockstepConfig& config,
                         const std::vector<geo::Vec>& inputs,
                         std::unique_ptr<sim::DelayModel> model,
                         const std::set<PartyId>& silent, std::uint64_t seed) {
  LockstepRun run;
  run.sim = std::make_unique<sim::Simulation>(
      net::BackendConfig{.n = config.n, .delta = config.delta, .seed = seed},
      std::move(model));
  for (PartyId id = 0; id < config.n; ++id) {
    if (silent.contains(id)) {
      run.sim->add_party(std::make_unique<adversary::SilentParty>());
    } else {
      auto party = std::make_unique<SyncLockstepParty>(config, inputs[id]);
      run.honest.push_back(party.get());
      run.sim->add_party(std::move(party));
    }
  }
  run.sim->run();
  return run;
}

TEST(SyncLockstep, ConvergesUnderSynchrony) {
  const std::size_t n = 4;
  const auto inputs = ring_inputs(n);
  SyncLockstepConfig config{.n = n, .t = 1, .dim = 2, .delta = 1000,
                            .rounds = rounds_for(1e-3, geo::diameter(inputs))};
  auto run = run_lockstep(config, inputs,
                          std::make_unique<sim::UniformDelay>(1, config.delta), {}, 1);
  std::vector<geo::Vec> outputs;
  for (auto* p : run.honest) {
    ASSERT_TRUE(p->has_output());
    EXPECT_EQ(p->starved_rounds(), 0u);
    outputs.push_back(p->output());
    EXPECT_TRUE(geo::in_convex_hull(inputs, p->output(), 1e-6));
  }
  EXPECT_LE(geo::diameter(outputs), 1e-3);
}

TEST(SyncLockstep, ToleratesSilentCorruptionUnderSynchrony) {
  const std::size_t n = 4;
  const auto inputs = ring_inputs(n);
  SyncLockstepConfig config{.n = n, .t = 1, .dim = 2, .delta = 1000,
                            .rounds = rounds_for(1e-3, geo::diameter(inputs))};
  auto run = run_lockstep(config, inputs,
                          std::make_unique<sim::UniformDelay>(1, config.delta), {0}, 2);
  std::vector<geo::Vec> outputs;
  std::vector<geo::Vec> honest_inputs(inputs.begin() + 1, inputs.end());
  for (auto* p : run.honest) {
    ASSERT_TRUE(p->has_output());
    outputs.push_back(p->output());
    EXPECT_TRUE(geo::in_convex_hull(honest_inputs, p->output(), 1e-6));
  }
  EXPECT_LE(geo::diameter(outputs), 1e-3);
}

TEST(SyncLockstep, HigherResilienceThanAsyncBound) {
  // (D+1) t < n but (D+2) t >= n: the sync baseline handles what the async
  // protocol provably cannot (Theorem 3.2). n = 7, t = 2, D = 2.
  const std::size_t n = 7;
  const auto inputs = ring_inputs(n);
  SyncLockstepConfig config{.n = n, .t = 2, .dim = 2, .delta = 1000,
                            .rounds = rounds_for(1e-3, geo::diameter(inputs))};
  ASSERT_TRUE(config.feasible());
  EXPECT_GE((2 + 2) * 2, n);  // async bound violated at this (n, t)
  auto run = run_lockstep(config, inputs,
                          std::make_unique<sim::UniformDelay>(1, config.delta), {1, 4},
                          3);
  std::vector<geo::Vec> outputs;
  for (auto* p : run.honest) {
    ASSERT_TRUE(p->has_output());
    outputs.push_back(p->output());
  }
  EXPECT_LE(geo::diameter(outputs), 1e-3);
}

TEST(SyncLockstep, BreaksUnderAsynchrony) {
  // Under asynchrony the lock-step baseline loses its guarantees: when a
  // round closes with exactly n - t values because an HONEST value was late
  // while a Byzantine outlier arrived on time, the trim count k = |M|-(n-t)
  // is 0 and the outlier passes untrimmed — validity breaks (and agreement
  // along with it). The Byzantine party here runs the honest code with an
  // extreme input, the weakest possible attacker; the delay adversary does
  // the rest.
  const std::size_t n = 4;
  auto inputs = ring_inputs(n, 10.0);
  inputs[0] = geo::Vec{1e7, 1e7};  // "corrupted" outlier participant
  SyncLockstepConfig config{.n = n, .t = 1, .dim = 2, .delta = 1000,
                            .rounds = rounds_for(1e-3, 30.0)};
  const std::vector<geo::Vec> honest_inputs(inputs.begin() + 1, inputs.end());

  bool validity_broken = false;
  for (std::uint64_t seed = 1; seed <= 10 && !validity_broken; ++seed) {
    LockstepRun run;
    run.sim = std::make_unique<sim::Simulation>(
        net::BackendConfig{.n = config.n, .delta = config.delta, .seed = seed},
        std::make_unique<sim::ExponentialDelay>(1.2 * config.delta,
                                                20 * config.delta));
    for (PartyId id = 0; id < config.n; ++id) {
      auto party = std::make_unique<SyncLockstepParty>(config, inputs[id]);
      if (id > 0) run.honest.push_back(party.get());
      run.sim->add_party(std::move(party));
    }
    run.sim->run();
    for (auto* p : run.honest) {
      ASSERT_TRUE(p->has_output());  // it terminates (round counting) ...
      // ... but the output can leave the honest inputs' convex hull.
      if (!geo::in_convex_hull(honest_inputs, p->output(), 1e-3)) {
        validity_broken = true;
      }
    }
  }
  EXPECT_TRUE(validity_broken);

  // Control: the identical configuration under synchrony is safe.
  auto sync_run = run_lockstep(config, inputs,
                               std::make_unique<sim::UniformDelay>(1, config.delta),
                               {}, 99);
  for (auto* p : sync_run.honest) {
    ASSERT_TRUE(p->has_output());
    EXPECT_TRUE(geo::in_convex_hull(inputs, p->output(), 1e-6));
  }
}

TEST(Coordinatewise, FeasibilityErrorIsActionable) {
  // The decomposition's 1-D sessions need n > 2 ts + ta and n > 3 ts. An
  // infeasible configuration must be reportable BEFORE constructing a party
  // (the constructor aborts, which is useless as a user error).
  protocols::Params p;
  p.n = 3;
  p.ts = 1;
  p.ta = 1;
  p.dim = 2;
  const auto err = baselines::CoordinatewiseParty::feasibility_error(p);
  ASSERT_TRUE(err.has_value());
  // Actionable: names the requirement, the offending values, and a fix.
  EXPECT_NE(err->find("n > 2 ts + ta"), std::string::npos) << *err;
  EXPECT_NE(err->find("n=3"), std::string::npos) << *err;
  EXPECT_NE(err->find("ts=1"), std::string::npos) << *err;
  EXPECT_NE(err->find("ta=1"), std::string::npos) << *err;
  EXPECT_NE(err->find("raise n or lower ts/ta"), std::string::npos) << *err;

  p.n = 5;  // 5 > 2 + 1 + 1 and 5 > 3: feasible in any dimension
  EXPECT_FALSE(baselines::CoordinatewiseParty::feasibility_error(p).has_value());
}

TEST(Coordinatewise, ViolatesValidityWhereHybridDoesNot) {
  // The strawman baseline: D independent 1-D agreements confine outputs to
  // the bounding box, not the hull. With honest inputs near the triangle
  // {(0,0),(1,0),(0,1)} and a Byzantine box-corner input (1,1), asynchrony
  // produces validity violations; the hybrid protocol never does.
  protocols::Params p;
  p.n = 5;
  p.ts = 1;
  p.ta = 1;
  p.dim = 2;
  p.eps = 1e-3;
  p.delta = 1000;
  const std::vector<geo::Vec> inputs{
      {1.0, 1.0}, {0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {0.2, 0.2}};
  const std::vector<geo::Vec> honest_inputs(inputs.begin() + 1, inputs.end());

  int violations = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    sim::Simulation sim({.n = p.n, .delta = p.delta, .seed = seed},
                        std::make_unique<adversary::ReorderScheduler>(
                            p.delta, 0.35, 10 * p.delta));
    serve::InstanceDirectory directory(static_cast<std::uint32_t>(p.dim),
                                       static_cast<std::uint32_t>(p.n));
    std::vector<baselines::CoordinatewiseParty*> honest;
    for (PartyId id = 0; id < p.n; ++id) {
      auto party =
          std::make_unique<baselines::CoordinatewiseParty>(p, inputs[id], directory);
      if (id != 0) honest.push_back(party.get());
      sim.add_party(std::move(party));
    }
    sim.run();
    for (auto* h : honest) {
      ASSERT_TRUE(h->has_output()) << "seed " << seed;  // liveness inherited
      if (!geo::in_convex_hull(honest_inputs, h->output(), 1e-6)) ++violations;
    }
  }
  EXPECT_GT(violations, 0);  // the strawman demonstrably breaks validity

  // Control: the hybrid protocol on the same shape never violates validity.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    AaRunConfig cfg{.params = p, .inputs = inputs, .seed = seed};
    cfg.byzantine[0] = [](const Params& params, const geo::Vec& input) {
      return std::make_unique<protocols::AaParty>(params, input);
    };
    cfg.delay = [](const Params& params) {
      return std::make_unique<adversary::ReorderScheduler>(params.delta, 0.35,
                                                           10 * params.delta);
    };
    auto run = run_aa(std::move(cfg));
    ASSERT_TRUE(run.all_output()) << "seed " << seed;
    for (const auto& v : run.outputs()) {
      EXPECT_TRUE(geo::in_convex_hull(honest_inputs, v, 1e-5)) << "seed " << seed;
    }
  }
}

TEST(AsyncMh, FeasibilityMatchesDPlus2Bound) {
  EXPECT_TRUE(async_params(9, 2, 2).feasible());
  EXPECT_FALSE(async_params(8, 2, 2).feasible());
  EXPECT_TRUE(async_params(6, 1, 3).feasible());
  EXPECT_FALSE(async_params(5, 1, 3).feasible());  // (D+2)t = n
  EXPECT_FALSE(async_params(4, 1, 2).feasible());
}

TEST(AsyncMh, ConvergesUnderAsynchronyAtItsBound) {
  const Params config = async_params(9, 2, 2, 1e-2);
  ASSERT_TRUE(config.feasible());
  const auto inputs = ring_inputs(9);

  sim::Simulation sim(
      net::BackendConfig{.n = config.n, .delta = config.delta, .seed = 7},
      std::make_unique<adversary::ReorderScheduler>(config.delta, 0.3,
                                                    15 * config.delta));
  std::vector<protocols::AaParty*> honest;
  for (PartyId id = 0; id < config.n; ++id) {
    if (id < 2) {
      sim.add_party(std::make_unique<adversary::SilentParty>());  // t = 2 corrupt
    } else {
      auto party = std::make_unique<protocols::AaParty>(config, inputs[id]);
      honest.push_back(party.get());
      sim.add_party(std::move(party));
    }
  }
  const auto stats = sim.run();
  EXPECT_FALSE(stats.hit_limit);

  std::vector<geo::Vec> outputs;
  std::vector<geo::Vec> honest_inputs(inputs.begin() + 2, inputs.end());
  for (auto* p : honest) {
    ASSERT_TRUE(p->has_output());
    outputs.push_back(p->output());
    EXPECT_TRUE(geo::in_convex_hull(honest_inputs, p->output(), 1e-5));
  }
  EXPECT_LE(geo::diameter(outputs), config.eps + 1e-9);
}

TEST(AsyncMh, HybridDominatesAsyncBaselineUnderSynchrony) {
  // At (n, ts, ta) = (7, 2, 0), D = 2: the hybrid protocol tolerates 2
  // corruptions under synchrony, while the async baseline would need
  // (D+2) t < n => t <= 1. This is the paper's headline trade-off.
  protocols::Params hybrid;
  hybrid.n = 7;
  hybrid.ts = 2;
  hybrid.ta = 0;
  hybrid.dim = 2;
  hybrid.eps = 1e-2;
  hybrid.delta = 1000;
  ASSERT_TRUE(hybrid.feasible());
  ASSERT_FALSE(async_params(7, 2, 2).feasible());

  auto inputs = ring_inputs(7);
  AaRunConfig cfg{.params = hybrid, .inputs = inputs, .seed = 9};
  cfg.byzantine[0] = [](const Params&, const geo::Vec&) {
    return std::make_unique<adversary::SilentParty>();
  };
  cfg.byzantine[3] = [](const Params&, const geo::Vec&) {
    return std::make_unique<adversary::SilentParty>();
  };
  cfg.delay = [](const Params& p) {
    return std::make_unique<sim::UniformDelay>(1, p.delta);
  };
  auto run = run_aa(std::move(cfg));
  ASSERT_TRUE(run.all_output());
  EXPECT_LE(geo::diameter(run.outputs()), hybrid.eps + 1e-9);
}

}  // namespace
}  // namespace hydra::test
