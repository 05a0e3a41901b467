// Tests for Bracha reliable broadcast (ΠrBC): validity, consistency, the
// timing constants of Theorem 4.2, and resistance to equivocating senders
// and forged quorums.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "protocol_test_util.hpp"

namespace hydra::test {
namespace {

using protocols::kRbcEcho;
using protocols::kRbcInitValue;
using protocols::kRbcReady;
using protocols::kRbcSend;

Params make_params(std::size_t n, std::size_t ts) {
  Params p;
  p.n = n;
  p.ts = ts;
  p.ta = 0;
  p.dim = 2;
  p.delta = 1000;
  return p;
}

Bytes payload_of(std::uint8_t fill, std::size_t len = 8) { return Bytes(len, fill); }

struct RbcFixture {
  explicit RbcFixture(Params params, std::uint64_t seed = 1,
                      std::unique_ptr<sim::DelayModel> model = nullptr)
      : sim(net::BackendConfig{.n = params.n, .delta = params.delta, .seed = seed},
            model ? std::move(model)
                  : std::make_unique<sim::FixedDelay>(params.delta)) {}

  /// Adds an honest RBC party; returns its pointer.
  RbcTestParty* add_honest(const Params& params) {
    auto party = std::make_unique<RbcTestParty>(params);
    auto* raw = party.get();
    parties.push_back(raw);
    sim.add_party(std::move(party));
    return raw;
  }

  sim::Simulation sim;
  std::vector<RbcTestParty*> parties;
};

TEST(Rbc, HonestSenderAllDeliverWithin3Delta) {
  const auto params = make_params(4, 1);
  RbcFixture f(params);
  for (std::size_t i = 0; i < 4; ++i) f.add_honest(params);
  f.parties[0]->broadcast_payload = payload_of(0x11);
  f.sim.run();
  for (auto* p : f.parties) {
    ASSERT_EQ(p->deliveries.size(), 1u);
    EXPECT_EQ(p->deliveries[0].payload, payload_of(0x11));
    EXPECT_EQ(p->deliveries[0].key.a, 0u);
    // Theorem 4.2: c_rBC = 3 rounds under synchrony.
    EXPECT_LE(p->deliveries[0].at, 3 * params.delta);
  }
}

TEST(Rbc, SenderDeliversItsOwnBroadcast) {
  const auto params = make_params(4, 1);
  RbcFixture f(params);
  for (std::size_t i = 0; i < 4; ++i) f.add_honest(params);
  f.parties[2]->broadcast_payload = payload_of(0x22);
  f.sim.run();
  ASSERT_EQ(f.parties[2]->deliveries.size(), 1u);
  EXPECT_EQ(f.parties[2]->deliveries[0].key.a, 2u);
}

TEST(Rbc, ConcurrentBroadcastsAllDeliver) {
  const auto params = make_params(7, 2);
  RbcFixture f(params);
  for (std::size_t i = 0; i < 7; ++i) {
    f.add_honest(params)->broadcast_payload = payload_of(static_cast<std::uint8_t>(i));
  }
  f.sim.run();
  for (auto* p : f.parties) {
    ASSERT_EQ(p->deliveries.size(), 7u);
    std::set<std::uint32_t> senders;
    for (const auto& d : p->deliveries) senders.insert(d.key.a);
    EXPECT_EQ(senders.size(), 7u);
  }
}

TEST(Rbc, SilentSenderNobodyDelivers) {
  const auto params = make_params(4, 1);
  RbcFixture f(params);
  for (std::size_t i = 0; i < 4; ++i) f.add_honest(params);
  // Nobody broadcasts.
  f.sim.run();
  for (auto* p : f.parties) EXPECT_TRUE(p->deliveries.empty());
}

TEST(Rbc, EquivocatingSenderNeverSplitsHonestOutputs) {
  // A Byzantine sender emits a different SEND to every receiver across many
  // seeds; consistency demands that all honest deliveries (if any) agree.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto params = make_params(4, 1);
    RbcFixture f(params, seed, std::make_unique<sim::UniformDelay>(1, params.delta));
    auto equivocator = std::make_unique<adversary::EquivocatorParty>(
        params, geo::Vec{0.0, 0.0}, 1.0, 1);
    f.sim.add_party(std::move(equivocator));  // party 0 = attacker
    for (std::size_t i = 1; i < 4; ++i) f.add_honest(params);
    f.sim.run();

    std::optional<Bytes> agreed;
    for (auto* p : f.parties) {
      for (const auto& d : p->deliveries) {
        if (d.key.a != 0) continue;
        if (!agreed) {
          agreed = d.payload;
        } else {
          EXPECT_EQ(*agreed, d.payload) << "seed " << seed;
        }
      }
    }
  }
}

TEST(Rbc, ForgedQuorumCannotDeliver) {
  // One Byzantine party sends ECHO and READY for a value nobody broadcast;
  // with n = 4, t = 1 the quorums (3 echoes / 3 readies) are unreachable.
  const auto params = make_params(4, 1);

  class QuorumForger : public sim::IParty {
   public:
    void start(sim::Env& env) override {
      const InstanceKey key{kRbcInitValue, 0, 0};  // pretends party 0 broadcast
      env.broadcast(sim::Message{key, kRbcEcho, payload_of(0x66)});
      env.broadcast(sim::Message{key, kRbcReady, payload_of(0x66)});
    }
    void on_message(sim::Env&, PartyId, const sim::Message&) override {}
    void on_timer(sim::Env&, std::uint64_t) override {}

   private:
    static Bytes payload_of(std::uint8_t fill) { return Bytes(8, fill); }
  };

  RbcFixture f(params);
  for (std::size_t i = 0; i < 3; ++i) f.add_honest(params);
  f.sim.add_party(std::make_unique<QuorumForger>());
  f.sim.run();
  for (auto* p : f.parties) EXPECT_TRUE(p->deliveries.empty());
}

TEST(Rbc, FirstVotePerVoterIsBinding) {
  // One instance fed directly (n = 4, t = 1): a ready needs n - t = 3 echoes
  // or t + 1 = 2 readies for one payload, and only a voter's first echo and
  // first ready count.
  class RecordingEnv : public sim::Env {
   public:
    void send(PartyId, sim::Message msg) override { sent.push_back(std::move(msg)); }
    void broadcast(const sim::Message& msg) override { sent.push_back(msg); }
    void set_timer(Time, std::uint64_t) override {}
    [[nodiscard]] Time now() const override { return 0; }
    [[nodiscard]] PartyId self() const override { return 0; }
    [[nodiscard]] std::size_t n() const override { return 4; }

    std::vector<sim::Message> sent;
  };

  const InstanceKey key{kRbcInitValue, 0, 0};
  const auto vote = [&key](std::uint8_t kind, std::uint8_t fill) {
    return sim::Message{key, kind, payload_of(fill)};
  };
  protocols::RbcInstance inst(make_params(4, 1), key);
  RecordingEnv env;

  // Voter 3 echoes A, then B: only A counts, so B has two echoes, not three.
  inst.on_message(env, 3, vote(kRbcEcho, 0xA));
  inst.on_message(env, 3, vote(kRbcEcho, 0xB));
  inst.on_message(env, 1, vote(kRbcEcho, 0xB));
  inst.on_message(env, 2, vote(kRbcEcho, 0xB));
  EXPECT_TRUE(env.sent.empty());

  // Voter 3 readies A, then B: B has one ready, so no amplification.
  inst.on_message(env, 3, vote(kRbcReady, 0xA));
  inst.on_message(env, 3, vote(kRbcReady, 0xB));
  inst.on_message(env, 1, vote(kRbcReady, 0xB));
  EXPECT_TRUE(env.sent.empty());

  // A second voter's first ready for B does amplify.
  inst.on_message(env, 2, vote(kRbcReady, 0xB));
  ASSERT_EQ(env.sent.size(), 1u);
  EXPECT_EQ(env.sent[0].kind, kRbcReady);
  EXPECT_EQ(env.sent[0].payload.bytes(), payload_of(0xB));
  EXPECT_FALSE(inst.delivered());
}

TEST(Rbc, ReadyAmplificationDeliversToLateParties) {
  // Conditional liveness: t+1 readies make an honest party send ready even
  // if it missed the echoes. Model: sender + echoes delayed away from party
  // 3 by an async partition, delivery still happens eventually.
  const auto params = make_params(4, 1);
  auto base = std::make_unique<sim::FixedDelay>(params.delta);
  auto model = std::make_unique<adversary::PartitionScheduler>(
      std::move(base), std::set<PartyId>{3}, 0, 50 * params.delta);
  RbcFixture f(params, 1, std::move(model));
  for (std::size_t i = 0; i < 4; ++i) f.add_honest(params);
  f.parties[0]->broadcast_payload = payload_of(0x33);
  f.sim.run();
  for (auto* p : f.parties) {
    ASSERT_EQ(p->deliveries.size(), 1u);
    EXPECT_EQ(p->deliveries[0].payload, payload_of(0x33));
  }
}

TEST(Rbc, AsynchronousDeliveryEventuallyCompletes) {
  const auto params = make_params(7, 2);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    RbcFixture f(params, seed,
                 std::make_unique<sim::ExponentialDelay>(5.0 * params.delta,
                                                         100 * params.delta));
    for (std::size_t i = 0; i < 7; ++i) f.add_honest(params);
    f.parties[0]->broadcast_payload = payload_of(0x44);
    const auto stats = f.sim.run();
    EXPECT_FALSE(stats.hit_limit);
    for (auto* p : f.parties) {
      ASSERT_EQ(p->deliveries.size(), 1u) << "seed " << seed;
      EXPECT_EQ(p->deliveries[0].payload, payload_of(0x44));
    }
  }
}

TEST(Rbc, DistinctInstancesDoNotInterfere) {
  // Same sender, two instance keys: payloads must not cross.
  const auto params = make_params(4, 1);

  class DualSender : public sim::IParty {
   public:
    explicit DualSender(const Params& params)
        : mux_(params, [this](sim::Env& env, const InstanceKey& key, const Bytes& b) {
            deliveries.push_back({env.now(), key, b});
          }) {}

    void start(sim::Env& env) override {
      mux_.broadcast(env, InstanceKey{protocols::kRbcObcValue, env.self(), 1},
                     Bytes(4, 0xA1));
      mux_.broadcast(env, InstanceKey{protocols::kRbcObcValue, env.self(), 2},
                     Bytes(4, 0xB2));
    }

    void on_message(sim::Env& env, PartyId from, const sim::Message& msg) override {
      if (msg.kind <= protocols::kRbcReady) mux_.handle(env, from, msg);
    }

    void on_timer(sim::Env&, std::uint64_t) override {}

    std::vector<RbcTestParty::Delivery> deliveries;

   private:
    protocols::RbcMux mux_;
  };

  sim::Simulation sim(net::BackendConfig{.n = 4, .delta = params.delta, .seed = 1},
                      std::make_unique<sim::FixedDelay>(params.delta));
  std::vector<DualSender*> parties;
  for (int i = 0; i < 4; ++i) {
    auto p = std::make_unique<DualSender>(params);
    parties.push_back(p.get());
    sim.add_party(std::move(p));
  }
  sim.run();
  for (auto* p : parties) {
    // 4 senders x 2 instances.
    ASSERT_EQ(p->deliveries.size(), 8u);
    for (const auto& d : p->deliveries) {
      EXPECT_EQ(d.payload, Bytes(4, d.key.b == 1 ? 0xA1 : 0xB2));
    }
  }
}

}  // namespace
}  // namespace hydra::test
