// Tests for Overlap All-to-All Broadcast (ΠoBC, Section 4.2 / Theorem 4.4):
// validity, consistency, synchronized overlap, the (ts, ta)-overlap bound,
// timing under synchrony, and eventual liveness under asynchrony.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "protocol_test_util.hpp"

namespace hydra::test {
namespace {

Params make_params(std::size_t n, std::size_t ts, std::size_t ta, std::size_t dim = 2) {
  Params p;
  p.n = n;
  p.ts = ts;
  p.ta = ta;
  p.dim = dim;
  p.delta = 1000;
  return p;
}

struct ObcFixture {
  ObcFixture(const Params& params, std::uint64_t seed,
             std::unique_ptr<sim::DelayModel> model)
      : sim(net::BackendConfig{.n = params.n, .delta = params.delta, .seed = seed},
            std::move(model)) {}

  ObcTestParty* add_honest(const Params& params, geo::Vec input) {
    auto party = std::make_unique<ObcTestParty>(params, std::move(input));
    auto* raw = party.get();
    parties.push_back(raw);
    sim.add_party(std::move(party));
    return raw;
  }

  sim::Simulation sim;
  std::vector<ObcTestParty*> parties;
};

std::vector<geo::Vec> grid_inputs(std::size_t n) {
  std::vector<geo::Vec> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(geo::Vec{static_cast<double>(i), static_cast<double>(i % 3)});
  }
  return inputs;
}

TEST(Obc, SynchronousAllHonestFullOverlap) {
  const auto params = make_params(4, 1, 0);
  ObcFixture f(params, 1, std::make_unique<sim::FixedDelay>(params.delta));
  const auto inputs = grid_inputs(4);
  for (std::size_t i = 0; i < 4; ++i) f.add_honest(params, inputs[i]);
  const auto stats = f.sim.run();
  EXPECT_FALSE(stats.hit_limit);

  for (auto* p : f.parties) {
    ASSERT_TRUE(p->obc().has_output());
    // Synchronized Liveness: output by c_oBC * Delta = 5 Delta.
    EXPECT_LE(p->output_time, Params::kCObc * params.delta);
    // Synchronized Overlap: every honest pair present with the right value.
    const auto& m = p->obc().output();
    ASSERT_EQ(m.size(), 4u);
    for (const auto& [party, value] : m) {
      EXPECT_EQ(value, inputs[party]);  // Validity
    }
  }
}

TEST(Obc, SilentByzantineStillOutputs) {
  // ts = 1 silent party: the remaining n - 1 honest values meet the quorum.
  const auto params = make_params(4, 1, 0);
  ObcFixture f(params, 1, std::make_unique<sim::FixedDelay>(params.delta));
  const auto inputs = grid_inputs(4);
  f.sim.add_party(std::make_unique<adversary::SilentParty>());
  for (std::size_t i = 1; i < 4; ++i) f.add_honest(params, inputs[i]);
  f.sim.run();
  for (auto* p : f.parties) {
    ASSERT_TRUE(p->obc().has_output());
    const auto& m = p->obc().output();
    EXPECT_EQ(m.size(), 3u);  // pairs only for responsive parties
    for (const auto& [party, value] : m) {
      EXPECT_NE(party, 0u);
      EXPECT_EQ(value, inputs[party]);
    }
  }
}

TEST(Obc, ConsistencyUnderEquivocation) {
  // Party 0 equivocates its OBC value; if two honest outputs contain a pair
  // for party 0, the values must match (inherited from ΠrBC consistency).
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto params = make_params(4, 1, 0);
    ObcFixture f(params, seed, std::make_unique<sim::UniformDelay>(1, params.delta));
    f.sim.add_party(std::make_unique<adversary::EquivocatorParty>(
        params, geo::Vec{100.0, 100.0}, 7.0, 1));
    const auto inputs = grid_inputs(4);
    for (std::size_t i = 1; i < 4; ++i) f.add_honest(params, inputs[i]);
    f.sim.run();

    std::map<PartyId, geo::Vec> seen;
    for (auto* p : f.parties) {
      ASSERT_TRUE(p->obc().has_output());
      for (const auto& [party, value] : p->obc().output()) {
        const auto [it, inserted] = seen.emplace(party, value);
        EXPECT_EQ(it->second, value) << "seed " << seed << " party " << party;
      }
    }
  }
}

TEST(Obc, OverlapBoundUnderAsynchrony) {
  // (ts, ta)-Overlap: any two honest outputs share >= n - ts pairs, even
  // under heavy asynchronous reordering with ta corruptions.
  const auto params = make_params(9, 2, 1, 2);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ObcFixture f(params, seed,
                 std::make_unique<adversary::ReorderScheduler>(params.delta, 0.3,
                                                               20 * params.delta));
    const auto inputs = grid_inputs(9);
    f.sim.add_party(std::make_unique<adversary::SilentParty>());  // ta = 1 corrupt
    for (std::size_t i = 1; i < 9; ++i) f.add_honest(params, inputs[i]);
    const auto stats = f.sim.run();
    EXPECT_FALSE(stats.hit_limit);

    for (auto* p : f.parties) ASSERT_TRUE(p->obc().has_output()) << "seed " << seed;
    for (std::size_t i = 0; i < f.parties.size(); ++i) {
      for (std::size_t j = i + 1; j < f.parties.size(); ++j) {
        const auto& mi = f.parties[i]->obc().output();
        const auto& mj = f.parties[j]->obc().output();
        std::size_t common = 0;
        for (const auto& [party, value] : mi) {
          for (const auto& [party2, value2] : mj) {
            if (party == party2 && value == value2) ++common;
          }
        }
        EXPECT_GE(common, params.n - params.ts) << "seed " << seed;
      }
    }
  }
}

TEST(Obc, AsynchronousPartitionEventualLiveness) {
  const auto params = make_params(4, 1, 1);
  auto model = std::make_unique<adversary::PartitionScheduler>(
      std::make_unique<sim::FixedDelay>(params.delta), std::set<PartyId>{0, 1}, 0,
      40 * params.delta);
  ObcFixture f(params, 3, std::move(model));
  const auto inputs = grid_inputs(4);
  for (std::size_t i = 0; i < 4; ++i) f.add_honest(params, inputs[i]);
  const auto stats = f.sim.run();
  EXPECT_FALSE(stats.hit_limit);
  for (auto* p : f.parties) {
    ASSERT_TRUE(p->obc().has_output());
    EXPECT_GE(p->obc().output().size(), params.n - params.ts);
  }
}

TEST(Obc, MalformedReportsAndValuesIgnored) {
  // A spammer blasting malformed payloads must not block or corrupt outputs.
  const auto params = make_params(4, 1, 0);
  ObcFixture f(params, 4, std::make_unique<sim::FixedDelay>(params.delta));
  const auto inputs = grid_inputs(4);
  f.sim.add_party(std::make_unique<adversary::SpammerParty>(
      params, /*seed=*/9, /*period=*/params.delta / 4, /*stop_at=*/30 * params.delta));
  for (std::size_t i = 1; i < 4; ++i) f.add_honest(params, inputs[i]);
  const auto stats = f.sim.run();
  EXPECT_FALSE(stats.hit_limit);
  for (auto* p : f.parties) {
    ASSERT_TRUE(p->obc().has_output());
    for (const auto& [party, value] : p->obc().output()) {
      if (party != 0) {
        EXPECT_EQ(value, inputs[party]);
      }
    }
  }
}

TEST(Obc, OversizedFalseReportNeverMakesWitness) {
  // A Byzantine report claiming values nobody broadcast can never satisfy
  // the subset rule, so the reporter never becomes a witness.
  const auto params = make_params(4, 1, 0);

  class FalseReporter : public sim::IParty {
   public:
    explicit FalseReporter(const Params& params) : params_(params) {}
    void start(sim::Env& env) override {
      PairList fake;
      for (PartyId i = 0; i < params_.n; ++i) {
        fake.emplace_back(i, geo::Vec{123.0 + i, 456.0});
      }
      env.broadcast(sim::Message{InstanceKey{protocols::kObcReport, 0, 1},
                                 protocols::kDirect, protocols::encode_pairs(fake)});
    }
    void on_message(sim::Env&, PartyId, const sim::Message&) override {}
    void on_timer(sim::Env&, std::uint64_t) override {}

   private:
    Params params_;
  };

  ObcFixture f(params, 5, std::make_unique<sim::FixedDelay>(params.delta));
  f.sim.add_party(std::make_unique<FalseReporter>(params));
  const auto inputs = grid_inputs(4);
  for (std::size_t i = 1; i < 4; ++i) f.add_honest(params, inputs[i]);
  f.sim.run();
  for (auto* p : f.parties) {
    ASSERT_TRUE(p->obc().has_output());
    // Witnesses are the three honest reporters only.
    EXPECT_EQ(p->obc().witnesses(), 3u);
  }
}

}  // namespace
}  // namespace hydra::test
