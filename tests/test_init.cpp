// Tests for Πinit (Section 5 / Theorem 5.18): output presence and timing,
// v0 validity (inside the honest inputs' convex hull), estimation
// consistency, the double-witness mechanism, and the sufficient-iterations
// formula.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "geometry/convex.hpp"
#include "protocol_test_util.hpp"

namespace hydra::test {
namespace {

Params make_params(std::size_t n, std::size_t ts, std::size_t ta, double eps = 1e-3) {
  Params p;
  p.n = n;
  p.ts = ts;
  p.ta = ta;
  p.dim = 2;
  p.eps = eps;
  p.delta = 1000;
  return p;
}

struct InitFixture {
  InitFixture(const Params& params, std::uint64_t seed,
              std::unique_ptr<sim::DelayModel> model)
      : sim(net::BackendConfig{.n = params.n, .delta = params.delta, .seed = seed},
            std::move(model)) {}

  InitTestParty* add_honest(const Params& params, geo::Vec input) {
    auto party = std::make_unique<InitTestParty>(params, std::move(input));
    auto* raw = party.get();
    parties.push_back(raw);
    sim.add_party(std::move(party));
    return raw;
  }

  sim::Simulation sim;
  std::vector<InitTestParty*> parties;
};

TEST(SufficientIterations, Formula) {
  const double base = std::sqrt(7.0 / 8.0);
  // diam/eps = 1000: T = ceil(log_base(1e-3)) = ceil(103.45..) = 104.
  const double expected = std::ceil(std::log(1e-3) / std::log(base));
  EXPECT_EQ(protocols::sufficient_iterations(1e-3, 1.0),
            static_cast<std::uint64_t>(expected));
  // Already agreed: one iteration (clamped).
  EXPECT_EQ(protocols::sufficient_iterations(1.0, 0.5), 1u);
  EXPECT_EQ(protocols::sufficient_iterations(1.0, 0.0), 1u);
  // Monotone in diameter.
  EXPECT_LT(protocols::sufficient_iterations(1e-2, 10.0),
            protocols::sufficient_iterations(1e-2, 1000.0));
}

TEST(SufficientIterations, GuaranteesEpsAfterTContractions) {
  const double base = std::sqrt(7.0 / 8.0);
  for (const double diam : {0.5, 3.0, 100.0, 1e6}) {
    for (const double eps : {1e-1, 1e-4}) {
      const auto t = protocols::sufficient_iterations(eps, diam);
      EXPECT_LE(diam * std::pow(base, static_cast<double>(t)), eps + 1e-12)
          << diam << " " << eps;
    }
  }
}

TEST(Init, SynchronousHonestRun) {
  const auto params = make_params(4, 1, 0);
  InitFixture f(params, 1, std::make_unique<sim::FixedDelay>(params.delta));
  const std::vector<geo::Vec> inputs{{0.0, 0.0}, {4.0, 0.0}, {0.0, 4.0}, {4.0, 4.0}};
  for (std::size_t i = 0; i < 4; ++i) f.add_honest(params, inputs[i]);
  const auto stats = f.sim.run();
  EXPECT_FALSE(stats.hit_limit);

  for (auto* p : f.parties) {
    ASSERT_TRUE(p->init().has_output());
    // Theorem 5.18: output at c_init * Delta = 8 Delta under synchrony.
    EXPECT_LE(p->output_time, Params::kCInit * params.delta);
    // v0 within the honest inputs' convex hull.
    EXPECT_TRUE(geo::in_convex_hull(inputs, p->init().output().v0, 1e-6));
    EXPECT_GE(p->init().output().iterations, 1u);
    // All honest witnessed under synchrony.
    EXPECT_EQ(p->init().witnesses(), 4u);
    EXPECT_EQ(p->init().double_witnesses(), 4u);
  }
}

TEST(Init, EstimationsConsistentAcrossParties) {
  // If two honest parties both estimate a value for witness P', the
  // estimates are identical (reports travel via ΠrBC; the midpoint rule is
  // deterministic).
  const auto params = make_params(5, 1, 1);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    InitFixture f(params, seed, std::make_unique<sim::UniformDelay>(1, params.delta));
    const std::vector<geo::Vec> inputs{
        {0.0, 0.0}, {1.0, 3.0}, {-2.0, 1.0}, {5.0, 5.0}, {2.0, -4.0}};
    for (std::size_t i = 0; i < 5; ++i) f.add_honest(params, inputs[i]);
    f.sim.run();

    std::map<PartyId, geo::Vec> estimates;
    for (auto* p : f.parties) {
      for (const auto& [witness, estimate] : p->init().estimations()) {
        const auto [it, inserted] = estimates.emplace(witness, estimate);
        EXPECT_EQ(it->second, estimate) << "seed " << seed << " witness " << witness;
      }
    }
  }
}

TEST(Init, SilentCorruptionStillCompletes) {
  const auto params = make_params(4, 1, 0);
  InitFixture f(params, 2, std::make_unique<sim::FixedDelay>(params.delta));
  const std::vector<geo::Vec> inputs{{9.0, 9.0}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  f.sim.add_party(std::make_unique<adversary::SilentParty>());
  for (std::size_t i = 1; i < 4; ++i) f.add_honest(params, inputs[i]);
  const auto stats = f.sim.run();
  EXPECT_FALSE(stats.hit_limit);

  std::vector<geo::Vec> honest_inputs(inputs.begin() + 1, inputs.end());
  for (auto* p : f.parties) {
    ASSERT_TRUE(p->init().has_output());
    EXPECT_TRUE(geo::in_convex_hull(honest_inputs, p->init().output().v0, 1e-6));
  }
}

TEST(Init, OutlierCorruptionCannotDragV0Outside) {
  // A Byzantine party participates correctly but with an extreme value; v0
  // must stay within the honest hull regardless (the safe-area trim).
  const auto params = make_params(4, 1, 0);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    InitFixture f(params, seed, std::make_unique<sim::UniformDelay>(1, params.delta));
    const std::vector<geo::Vec> inputs{
        {1e9, -1e9}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
    for (std::size_t i = 0; i < 4; ++i) f.add_honest(params, inputs[i]);
    f.sim.run();

    const std::vector<geo::Vec> honest_inputs(inputs.begin() + 1, inputs.end());
    // Parties 1..3 are the honest ones in this scenario (party 0 is the
    // "corrupted" one following the protocol with an outlier input).
    for (std::size_t i = 1; i < 4; ++i) {
      ASSERT_TRUE(f.parties[i]->init().has_output());
      EXPECT_TRUE(geo::in_convex_hull(honest_inputs,
                                      f.parties[i]->init().output().v0, 1e-3))
          << "seed " << seed;
    }
  }
}

TEST(Init, AsynchronousReorderingStillCompletes) {
  const auto params = make_params(9, 2, 1);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    InitFixture f(params, seed,
                  std::make_unique<adversary::ReorderScheduler>(params.delta, 0.3,
                                                                15 * params.delta));
    std::vector<geo::Vec> inputs;
    for (std::size_t i = 0; i < 9; ++i) {
      inputs.push_back(geo::Vec{std::cos(static_cast<double>(i)),
                                std::sin(static_cast<double>(i))});
    }
    f.sim.add_party(std::make_unique<adversary::SilentParty>());
    for (std::size_t i = 1; i < 9; ++i) f.add_honest(params, inputs[i]);
    const auto stats = f.sim.run();
    EXPECT_FALSE(stats.hit_limit) << "seed " << seed;

    const std::vector<geo::Vec> honest_inputs(inputs.begin() + 1, inputs.end());
    for (auto* p : f.parties) {
      ASSERT_TRUE(p->init().has_output()) << "seed " << seed;
      EXPECT_TRUE(geo::in_convex_hull(honest_inputs, p->init().output().v0, 1e-5));
      EXPECT_GE(p->init().double_witnesses(), params.n - params.ts);
    }
  }
}

}  // namespace
}  // namespace hydra::test
