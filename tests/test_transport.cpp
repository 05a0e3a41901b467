// Tests for the real-thread transport: the same protocol objects that run
// on the discrete-event simulator must reach D-AA under genuine concurrency,
// in both synchronous-ish and heavily delayed regimes.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/sync_lockstep.hpp"
#include "geometry/convex.hpp"
#include "protocols/aa.hpp"
#include "sim/delay.hpp"
#include "transport/thread_net.hpp"

namespace hydra::transport {
namespace {

using protocols::AaParty;
using protocols::Params;

Params make_params(std::size_t n, std::size_t ts, std::size_t ta, std::size_t dim) {
  Params p;
  p.n = n;
  p.ts = ts;
  p.ta = ta;
  p.dim = dim;
  p.eps = 1e-2;
  // Generous Delta relative to real scheduling jitter: 1 tick = 20 us,
  // Delta = 500 ticks = 10 ms; artificial delays stay well below Delta.
  p.delta = 500;
  return p;
}

std::vector<geo::Vec> inputs_for(std::size_t n, std::size_t dim) {
  Rng rng(1234);
  std::vector<geo::Vec> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    geo::Vec v(dim, 0.0);
    for (std::size_t d = 0; d < dim; ++d) v[d] = rng.next_double(-5.0, 5.0);
    inputs.push_back(std::move(v));
  }
  return inputs;
}

const auto aa_finished = [](const sim::IParty& party, PartyId) {
  return static_cast<const AaParty&>(party).has_output();
};

TEST(ThreadTransport, AllHonestReachAgreement) {
  const auto params = make_params(4, 1, 0, 2);
  const auto inputs = inputs_for(4, 2);

  ThreadNetwork net({.n = 4, .delta = params.delta, .seed = 1, .us_per_tick = 20.0},
                    std::make_unique<sim::UniformDelay>(1, params.delta / 4));
  std::vector<std::unique_ptr<sim::IParty>> parties;
  std::vector<AaParty*> raw;
  for (std::size_t i = 0; i < 4; ++i) {
    auto p = std::make_unique<AaParty>(params, inputs[i]);
    raw.push_back(p.get());
    parties.push_back(std::move(p));
  }
  const auto stats = net.run(parties, aa_finished);
  ASSERT_FALSE(stats.timed_out);

  std::vector<geo::Vec> outputs;
  for (auto* p : raw) {
    ASSERT_TRUE(p->has_output());
    outputs.push_back(p->output());
    EXPECT_TRUE(geo::in_convex_hull(inputs, p->output(), 1e-4));
  }
  EXPECT_LE(geo::diameter(outputs), params.eps + 1e-9);
  EXPECT_GT(stats.wire.messages, 0u);
}

TEST(ThreadTransport, HeavyJitterStillLive) {
  // Delays beyond Delta: the asynchronous fallback path on real threads.
  const auto params = make_params(5, 1, 1, 2);
  const auto inputs = inputs_for(5, 2);

  ThreadNetwork net({.n = 5,
                     .delta = params.delta,
                     .seed = 3,
                     .us_per_tick = 10.0,
                     .timeout_ms = 60'000},
                    std::make_unique<sim::ExponentialDelay>(
                        1.5 * static_cast<double>(params.delta), 6 * params.delta));
  std::vector<std::unique_ptr<sim::IParty>> parties;
  std::vector<AaParty*> raw;
  for (std::size_t i = 0; i < 5; ++i) {
    auto p = std::make_unique<AaParty>(params, inputs[i]);
    raw.push_back(p.get());
    parties.push_back(std::move(p));
  }
  const auto stats = net.run(parties, aa_finished);
  ASSERT_FALSE(stats.timed_out);

  std::vector<geo::Vec> outputs;
  for (auto* p : raw) {
    ASSERT_TRUE(p->has_output());
    outputs.push_back(p->output());
  }
  EXPECT_LE(geo::diameter(outputs), params.eps + 1e-9);
}

TEST(ThreadTransport, ThreeDimensionalRun) {
  const auto params = make_params(5, 1, 0, 3);
  const auto inputs = inputs_for(5, 3);

  ThreadNetwork net({.n = 5, .delta = params.delta, .seed = 5, .us_per_tick = 20.0},
                    std::make_unique<sim::UniformDelay>(1, params.delta / 4));
  std::vector<std::unique_ptr<sim::IParty>> parties;
  std::vector<AaParty*> raw;
  for (std::size_t i = 0; i < 5; ++i) {
    auto p = std::make_unique<AaParty>(params, inputs[i]);
    raw.push_back(p.get());
    parties.push_back(std::move(p));
  }
  const auto stats = net.run(parties, aa_finished);
  ASSERT_FALSE(stats.timed_out);
  std::vector<geo::Vec> outputs;
  for (auto* p : raw) {
    ASSERT_TRUE(p->has_output());
    outputs.push_back(p->output());
  }
  EXPECT_LE(geo::diameter(outputs), params.eps + 1e-9);
}

TEST(ThreadTransport, TimeoutReportedWhenPartiesCannotFinish) {
  // n = 4 with ts = 1 but two parties absent-minded (never started): the
  // remaining quorum cannot be met, so the run must time out cleanly
  // instead of hanging.
  const auto params = make_params(4, 1, 0, 2);
  const auto inputs = inputs_for(4, 2);

  class DeadParty : public sim::IParty {
    void start(sim::Env&) override {}
    void on_message(sim::Env&, PartyId, const sim::Message&) override {}
    void on_timer(sim::Env&, std::uint64_t) override {}
  };

  ThreadNetwork net({.n = 4,
                     .delta = params.delta,
                     .seed = 7,
                     .us_per_tick = 5.0,
                     .timeout_ms = 1'500},
                    std::make_unique<sim::UniformDelay>(1, params.delta / 4));
  std::vector<std::unique_ptr<sim::IParty>> parties;
  parties.push_back(std::make_unique<DeadParty>());
  parties.push_back(std::make_unique<DeadParty>());
  parties.push_back(std::make_unique<AaParty>(params, inputs[2]));
  parties.push_back(std::make_unique<AaParty>(params, inputs[3]));
  const auto stats = net.run(parties, [](const sim::IParty& p, PartyId id) {
    if (id < 2) return true;  // dead parties count as "finished"
    return static_cast<const AaParty&>(p).has_output();
  });
  EXPECT_TRUE(stats.timed_out);

  // The watchdog must say WHICH parties stalled: the two live AaParties
  // (ids 2 and 3) are the unfinished ones; the dead-but-"finished" parties
  // must not be blamed.
  EXPECT_NE(stats.timeout_detail.find("party 2"), std::string::npos)
      << stats.timeout_detail;
  EXPECT_NE(stats.timeout_detail.find("party 3"), std::string::npos)
      << stats.timeout_detail;
  EXPECT_EQ(stats.timeout_detail.find("party 0"), std::string::npos)
      << stats.timeout_detail;
  ASSERT_EQ(stats.progress.size(), 4u);
  EXPECT_TRUE(stats.progress[0].finished);
  EXPECT_TRUE(stats.progress[1].finished);
  EXPECT_FALSE(stats.progress[2].finished);
  // The stalled parties did real work before wedging on the missing quorum.
  EXPECT_GT(stats.progress[2].events, 0u);
}

}  // namespace
}  // namespace hydra::transport
