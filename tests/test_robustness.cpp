// Targeted robustness tests for attack details the broader suites don't pin
// explicitly: forged multi-halt votes, SENDs from non-designated senders,
// instance-key floods aimed at state exhaustion, and outlier inputs that
// drive the exact D = 3 kernel into degenerate hulls.
#include <gtest/gtest.h>

#include <memory>

#include "geometry/convex.hpp"
#include "harness/runner.hpp"
#include "protocol_test_util.hpp"

namespace hydra::test {
namespace {

using protocols::kDirect;
using protocols::kRbcHalt;
using protocols::kRbcObcValue;
using protocols::kRbcSend;

/// Reliably broadcasts (halt, it) for MANY iterations: if halts were counted
/// per message instead of per sender, ts of these could fabricate the ts+1
/// quorum alone and force premature (disagreeing) outputs.
class MultiHaltForger : public sim::IParty {
 public:
  explicit MultiHaltForger(const Params& params)
      : mux_(params, [](sim::Env&, const InstanceKey&, const Bytes&) {}) {}

  void start(sim::Env& env) override {
    for (std::uint32_t it = 1; it <= 6; ++it) {
      mux_.broadcast(env, InstanceKey{kRbcHalt, env.self(), it}, Bytes{});
    }
  }

  void on_message(sim::Env& env, PartyId from, const sim::Message& msg) override {
    if (msg.kind <= protocols::kRbcReady) mux_.handle(env, from, msg);
  }

  void on_timer(sim::Env&, std::uint64_t) override {}

 private:
  protocols::RbcMux mux_;
};

TEST(Robustness, MultiHaltForgerCannotForgeTheQuorumAlone) {
  Params params;
  params.n = 4;
  params.ts = 1;
  params.ta = 0;
  params.dim = 2;
  params.eps = 1e-2;
  params.delta = 1000;
  auto inputs = std::vector<geo::Vec>{
      {0.0, 0.0}, {40.0, 0.0}, {0.0, 40.0}, {40.0, 40.0}};
  AaRunConfig cfg{.params = params, .inputs = inputs, .seed = 3};
  cfg.byzantine[1] = [](const Params& p, const geo::Vec&) {
    return std::make_unique<MultiHaltForger>(p);
  };
  cfg.delay = [](const Params& p) {
    return std::make_unique<sim::UniformDelay>(1, p.delta);
  };
  auto run = run_aa(std::move(cfg));
  ASSERT_TRUE(run.all_output());
  // The forged halts count as ONE vote (smallest iteration); outputs must
  // still satisfy eps-agreement and validity.
  EXPECT_LE(geo::diameter(run.outputs()), params.eps + 1e-9);
  for (const auto& v : run.outputs()) {
    EXPECT_TRUE(geo::in_convex_hull(run.honest_inputs(), v, 1e-5));
  }
}

/// Injects RBC SEND messages claiming instance keys of OTHER parties. The
/// authenticated channel exposes the true sender, so these must be ignored
/// (only key.a == from is a legitimate initial send).
class SendForger : public sim::IParty {
 public:
  explicit SendForger(const Params& params) : params_(params) {}

  void start(sim::Env& env) override {
    for (PartyId victim = 0; victim < params_.n; ++victim) {
      if (victim == env.self()) continue;
      geo::Vec fake(params_.dim, 1e6);
      env.broadcast(sim::Message{InstanceKey{protocols::kRbcInitValue, victim, 0},
                                 kRbcSend, protocols::encode_value(fake)});
      env.broadcast(sim::Message{InstanceKey{kRbcObcValue, victim, 1}, kRbcSend,
                                 protocols::encode_value(fake)});
    }
  }

  void on_message(sim::Env&, PartyId, const sim::Message&) override {}
  void on_timer(sim::Env&, std::uint64_t) override {}

 private:
  Params params_;
};

TEST(Robustness, ForgedSendsForOtherPartiesAreIgnored) {
  Params params;
  params.n = 4;
  params.ts = 1;
  params.ta = 0;
  params.dim = 2;
  params.eps = 1e-2;
  params.delta = 1000;
  const std::vector<geo::Vec> inputs{
      {0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  AaRunConfig cfg{.params = params, .inputs = inputs, .seed = 5};
  cfg.byzantine[3] = [](const Params& p, const geo::Vec&) {
    return std::make_unique<SendForger>(p);
  };
  auto run = run_aa(std::move(cfg));
  ASSERT_TRUE(run.all_output());
  for (const auto& v : run.outputs()) {
    // The forged value 1e6 must have no influence: outputs stay in the
    // honest unit square.
    EXPECT_TRUE(geo::in_convex_hull(run.honest_inputs(), v, 1e-6));
    EXPECT_LE(std::abs(v[0]), 1.0 + 1e-9);
    EXPECT_LE(std::abs(v[1]), 1.0 + 1e-9);
  }
  EXPECT_LE(geo::diameter(run.outputs()), params.eps + 1e-9);
}

/// Floods messages with absurd iteration coordinates (beyond kMaxIteration)
/// and unknown tags; the key validation must drop them before any state is
/// allocated, and the protocol must proceed unharmed.
class KeyFlooder : public sim::IParty {
 public:
  explicit KeyFlooder(const Params& params) : params_(params) {}

  void start(sim::Env& env) override {
    for (std::uint32_t burst = 0; burst < 64; ++burst) {
      env.broadcast(sim::Message{
          InstanceKey{kRbcObcValue, 0, (1u << 20) + burst + 1}, kRbcSend,
          protocols::encode_value(geo::Vec(params_.dim, 0.0))});
      env.broadcast(sim::Message{InstanceKey{protocols::kObcReport, 0, 1u << 24},
                                 kDirect, Bytes(32, 0xAB)});
      env.broadcast(sim::Message{InstanceKey{999, 5, 5}, kDirect, Bytes{}});
    }
  }

  void on_message(sim::Env&, PartyId, const sim::Message&) override {}
  void on_timer(sim::Env&, std::uint64_t) override {}

 private:
  Params params_;
};

TEST(Robustness, FarFutureKeyFloodIsDroppedCheaply) {
  Params params;
  params.n = 4;
  params.ts = 1;
  params.ta = 0;
  params.dim = 2;
  params.eps = 1e-2;
  params.delta = 1000;
  const std::vector<geo::Vec> inputs{
      {0.0, 0.0}, {2.0, 0.0}, {0.0, 2.0}, {2.0, 2.0}};
  AaRunConfig cfg{.params = params, .inputs = inputs, .seed = 7};
  cfg.byzantine[2] = [](const Params& p, const geo::Vec&) {
    return std::make_unique<KeyFlooder>(p);
  };
  auto run = run_aa(std::move(cfg));
  ASSERT_TRUE(run.all_output());
  EXPECT_LE(geo::diameter(run.outputs()), params.eps + 1e-9);
  for (const auto& v : run.outputs()) {
    EXPECT_TRUE(geo::in_convex_hull(run.honest_inputs(), v, 1e-6));
  }
}

TEST(Robustness, DuplicateEchoVotesDoNotDoubleCount) {
  // A Byzantine relay echoes the same value twice (and a different value
  // once): only its FIRST echo may count toward the n-t quorum.
  Params params;
  params.n = 4;
  params.ts = 1;
  params.ta = 0;
  params.dim = 2;
  params.delta = 1000;

  class DoubleEcho : public sim::IParty {
   public:
    void start(sim::Env& env) override {
      const InstanceKey key{protocols::kRbcInitValue, 0, 0};
      const Bytes fake = protocols::encode_value(geo::Vec{9.0, 9.0});
      // Three echo votes from one identity: must count as one.
      env.broadcast(sim::Message{key, protocols::kRbcEcho, fake});
      env.broadcast(sim::Message{key, protocols::kRbcEcho, fake});
      env.broadcast(sim::Message{key, protocols::kRbcReady, fake});
      env.broadcast(sim::Message{key, protocols::kRbcReady, fake});
    }
    void on_message(sim::Env&, PartyId, const sim::Message&) override {}
    void on_timer(sim::Env&, std::uint64_t) override {}
  };

  sim::Simulation sim({.n = 4, .delta = params.delta, .seed = 9},
                      std::make_unique<sim::FixedDelay>(params.delta));
  std::vector<RbcTestParty*> honest;
  for (int i = 0; i < 3; ++i) {
    auto p = std::make_unique<RbcTestParty>(params);
    honest.push_back(p.get());
    sim.add_party(std::move(p));
  }
  sim.add_party(std::make_unique<DoubleEcho>());
  sim.run();
  // Nobody broadcast a SEND; the forged quorum (1 echo + 1 ready from one
  // identity) is far below n - t = 3, so nothing may deliver.
  for (auto* p : honest) {
    EXPECT_TRUE(p->deliveries.empty());
  }
}

TEST(Robustness, DegenerateExact3DHullFallsBackToTheLp) {
  // An outlier run whose estimates come out nearly equal: a restriction hull
  // of duplicate points (a case of Hull3D.DegenerateInputsRejected) makes
  // the exact D = 3 kernel decline, and the LP answers; the run must finish
  // and satisfy D-AA.
  harness::RunSpec spec;
  spec.params.n = 6;
  spec.params.ts = 1;
  spec.params.ta = 1;
  spec.params.dim = 3;
  spec.params.eps = 1e-2;
  spec.params.delta = 1000;
  spec.network = harness::Network::kAsyncExponential;
  spec.adversary = harness::Adversary::kOutlier;
  spec.corruptions = 1;
  spec.seed = 88;
  const auto result = harness::execute(spec);
  EXPECT_FALSE(result.hit_limit);
  EXPECT_TRUE(result.verdict.d_aa());
}

}  // namespace
}  // namespace hydra::test
