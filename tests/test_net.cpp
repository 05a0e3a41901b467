// net core (src/net/): the shared egress pipeline's accounting and id
// contracts, the backend registry, and backend parity — the same spec must
// produce the same verdict on sim and threads, identical wire totals where
// the schedule cannot change them, the same same-tick event order on sim,
// threads and uds, and thread-backend invariant violations must carry a
// nonzero causal send id (the monitor-dispatch bracketing regression).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "faults/faults.hpp"
#include "harness/runner.hpp"
#include "net/backend.hpp"
#include "net/egress.hpp"
#include "net/wire_stats.hpp"
#include "obs/monitor.hpp"
#include "sim/message.hpp"

using namespace hydra;

namespace {

sim::Message test_message(std::size_t payload_bytes = 8) {
  sim::Message msg;
  msg.kind = 1;
  msg.payload = Bytes(payload_bytes, 0x5a);
  return msg;
}

faults::FaultInjector make_injector(const std::string& spec,
                                    bool synchronous = true) {
  const auto plan = faults::parse_fault_plan(spec);
  EXPECT_TRUE(plan.has_value()) << spec;
  return faults::FaultInjector(*plan, {.seed = 1,
                                       .synchronous = synchronous,
                                       .delta = 1000});
}

// --------------------------------------------------------------- pipeline

TEST(EgressPipeline, SelfDeliveryExemptFromWireAccounting) {
  net::EgressPipeline pipeline(net::EgressConfig{.n = 3});
  const auto msg = test_message();

  const auto self = pipeline.on_send(1, 1, msg, 0, 0, nullptr);
  EXPECT_EQ(self.copies, 1u);
  EXPECT_EQ(pipeline.messages(), 0u);
  EXPECT_EQ(pipeline.bytes(), 0u);

  const auto wire = pipeline.on_send(0, 1, msg, 0, 5, nullptr);
  EXPECT_EQ(wire.copies, 1u);
  EXPECT_EQ(wire.delay[0], 5);
  EXPECT_EQ(pipeline.messages(), 1u);
  EXPECT_EQ(pipeline.bytes(), msg.wire_size());

  net::WireStats stats;
  pipeline.export_stats(stats);
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.sent_per_party, (std::vector<std::uint64_t>{1, 0, 0}));
}

TEST(EgressPipeline, LazyIdsAllocateNothingWithObservabilityOff) {
  // The test binary installs no obs session, so the lazy (simulator) mode
  // must leave send_id at 0 — "no cause" — on every send.
  net::EgressPipeline pipeline(net::EgressConfig{.n = 2});
  ASSERT_FALSE(obs::enabled());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(pipeline.on_send(0, 1, test_message(), 0, 1, nullptr).send_id, 0u);
  }
}

TEST(EgressPipeline, EagerIdsAllocateForEverySendIncludingDrops) {
  // Eager (thread-transport) mode: every post consumes a mailbox tie-break
  // sequence number, observability on or off, dropped or not — the id stream
  // is a pure function of the post order under any fault plan.
  net::ConcurrentEgressPipeline pipeline(net::EgressConfig{.n = 3});
  auto injector = make_injector("crash(party=0,at=0)");

  const auto first = pipeline.on_send(1, 2, test_message(), 0, 7, &injector);
  EXPECT_EQ(first.copies, 1u);
  EXPECT_EQ(first.seq[0], 0u);
  // Send ids carry the origin party in the high word (globally unique across
  // serve/join processes) and the 1-based counter in the low word.
  EXPECT_EQ(first.send_id, net::compose_send_id(1, 1));
  EXPECT_EQ(net::send_id_party(first.send_id), 1u);

  const auto dropped = pipeline.on_send(0, 2, test_message(), 0, 7, &injector);
  EXPECT_EQ(dropped.copies, 0u);
  EXPECT_EQ(dropped.seq[0], 1u);
  EXPECT_EQ(dropped.send_id, net::compose_send_id(0, 2));
  // The dropped message is still a party send: accounting is pre-injector.
  EXPECT_EQ(pipeline.messages(), 2u);

  const auto third = pipeline.on_send(1, 0, test_message(), 0, 7, &injector);
  EXPECT_EQ(third.seq[0], 2u);
  EXPECT_EQ(third.send_id, net::compose_send_id(1, 3));
}

TEST(EgressPipeline, DuplicateGetsSecondSeqAndSharesSendId) {
  net::ConcurrentEgressPipeline pipeline(net::EgressConfig{.n = 3});
  auto injector = make_injector("dup(p=1,skew=100)");

  const auto out = pipeline.on_send(0, 1, test_message(), 0, 7, &injector);
  ASSERT_EQ(out.copies, 2u);
  EXPECT_EQ(out.seq[0], 0u);
  EXPECT_EQ(out.seq[1], 1u);
  // One send event, two deliveries with the same cause.
  EXPECT_EQ(out.send_id, net::compose_send_id(0, 1));
  EXPECT_GT(out.delay[1], out.delay[0] - 1);  // copy never beats the primary
  // The duplicate is network noise, not a party send.
  EXPECT_EQ(pipeline.messages(), 1u);
}

// --------------------------------------------------------------- registry

TEST(BackendRegistry, BuiltinsRegisteredAndUnknownNamesRejected) {
  harness::ensure_backends_registered();
  const auto names = harness::backend_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "sim"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "threads"), names.end());
  EXPECT_EQ(net::make_backend("no-such-backend", net::BackendConfig{}, nullptr),
            nullptr);
}

// ----------------------------------------------------------------- parity

harness::RunSpec parity_spec(std::uint64_t seed) {
  harness::RunSpec spec;
  spec.params.n = 5;
  spec.params.ts = 1;
  spec.params.ta = 1;
  spec.params.dim = 2;
  spec.params.eps = 1e-2;
  spec.params.delta = 1000;
  spec.protocol = harness::Protocol::kHybrid;
  spec.network = harness::Network::kSyncJitter;
  spec.adversary = harness::Adversary::kSilent;
  spec.corruptions = 1;
  spec.seed = seed;
  return spec;
}

// Acceptance criterion: the same spec reaches the same verdict on both
// backends. The thread schedule is nondeterministic, but D-AA holds under
// ANY admissible schedule, so the oracle verdict is schedule-independent.
TEST(BackendParity, VerdictsMatchAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto spec = parity_spec(seed);
    const auto sim = harness::execute(spec);
    spec.backend = "threads";
    const auto threads = harness::execute(spec);
    EXPECT_TRUE(sim.verdict.d_aa()) << "sim seed " << seed;
    EXPECT_TRUE(threads.verdict.d_aa()) << "threads seed " << seed;
    EXPECT_FALSE(threads.timed_out) << seed;
    // Every thread-backend party must have finished (clean shutdown, not
    // timeout) and reported watchdog progress.
    ASSERT_EQ(threads.progress.size(), spec.params.n) << seed;
    for (const auto& p : threads.progress) {
      EXPECT_TRUE(p.finished) << seed;
      EXPECT_GT(p.events, 0u) << seed;
    }
  }
}

// With no Byzantine parties and a fixed-round baseline, the message count is
// a pure function of the protocol — the schedule cannot change it — so the
// wire totals must agree exactly across backends. Fault-plan accounting is
// pre-injector by contract, so a dup plan must not change them either.
TEST(BackendParity, DeterministicWireTotalsMatch) {
  for (const std::string& faults : {std::string{}, std::string{"dup(p=0.4)"}}) {
    auto spec = parity_spec(2);
    spec.protocol = harness::Protocol::kSyncLockstep;
    spec.network = harness::Network::kSyncWorstCase;
    spec.adversary = harness::Adversary::kNone;
    spec.corruptions = 0;
    spec.faults = faults;
    const auto sim = harness::execute(spec);
    spec.backend = "threads";
    const auto threads = harness::execute(spec);
    EXPECT_EQ(sim.messages, threads.messages) << "faults='" << faults << "'";
    EXPECT_EQ(sim.bytes, threads.bytes) << "faults='" << faults << "'";
    EXPECT_EQ(sim.sent_per_party, threads.sent_per_party)
        << "faults='" << faults << "'";
  }
}

/// Sends itself a message, then sets a timer at the current tick, and logs
/// the order its handlers ran in ('m' message, 't' timer).
class SameTickParty final : public sim::IParty {
 public:
  void start(sim::Env& env) override {
    env.send(env.self(), test_message());
    env.set_timer(env.now(), 1);
  }
  void on_message(sim::Env&, PartyId, const sim::Message&) override { log_ += 'm'; }
  void on_timer(sim::Env&, std::uint64_t) override { log_ += 't'; }
  [[nodiscard]] const std::string& log() const { return log_; }

 private:
  std::string log_;
};

// Same-tick order: a message due at the tick of a timer is delivered before
// the timer fires, on every backend — the simulator's inclusive "delivered
// within Delta" rule, which a guard evaluated at that tick relies on.
TEST(BackendParity, SameTickMessageBeforeTimer) {
  harness::ensure_backends_registered();
  for (const char* name : {"sim", "threads", "uds"}) {
    auto backend = net::make_backend(
        name,
        net::BackendConfig{.n = 2, .delta = 1000, .us_per_tick = 1000,
                           .timeout_ms = 10'000},
        std::make_unique<sim::FixedDelay>(1000));
    ASSERT_NE(backend, nullptr) << name;
    std::vector<std::unique_ptr<sim::IParty>> parties;
    std::vector<const SameTickParty*> observed;
    for (int i = 0; i < 2; ++i) {
      auto party = std::make_unique<SameTickParty>();
      observed.push_back(party.get());
      parties.push_back(std::move(party));
    }
    const auto stats = backend->run(parties, [](const sim::IParty& party, PartyId) {
      return static_cast<const SameTickParty&>(party).log().size() == 2;
    });
    EXPECT_FALSE(stats.timed_out) << name;
    for (const SameTickParty* party : observed) EXPECT_EQ(party->log(), "mt") << name;
  }
}

// ------------------------------------------------- causal attribution

// Regression for the monitor-dispatch bracketing satellite: thread workers
// wrap party.on_message in begin_dispatch/end_dispatch via net::DeliveryGate,
// so a violation raised while handling a message names the delivering send
// event as its cause. Before the net:: extraction the thread path skipped
// the bracketing and every thread-backend violation carried cause 0.
TEST(ThreadBackendMonitors, ViolationCarriesCausalSendId) {
  auto spec = parity_spec(17);
  spec.params.n = 8;
  spec.backend = "threads";
  // Under a synchronous network the iteration time gate (c_AA-it * Delta)
  // expires after the oBC output is already in, so adoption — and the
  // validity check — runs at a timer, which is correctly causeless. An
  // asynchronous network inverts that: the oBC output is the late event, so
  // the adopting dispatch is a message and the violation must name it.
  spec.network = harness::Network::kAsyncReorder;
  spec.monitors = obs::MonitorMode::kRecord;
  spec.params.test_faulty_escape = 50.0;  // deliberately breaks validity
  const auto result = harness::execute(spec);

  ASSERT_GT(result.monitor_violations, 0u);
  ASSERT_FALSE(result.violations.empty());
  // The faulty aggregation fires from on_obc_output, i.e. inside a message
  // dispatch, so at least one recorded violation must be causally attributed.
  const auto any_cause = [](const std::vector<obs::Violation>& vs) {
    return std::any_of(vs.begin(), vs.end(),
                       [](const obs::Violation& v) { return v.cause != 0; });
  };
  EXPECT_TRUE(any_cause(result.violations));

  // Same attribution contract on the simulator — both backends dispatch
  // through the same net::DeliveryGate.
  spec.backend = "sim";
  const auto sim_result = harness::execute(spec);
  ASSERT_GT(sim_result.monitor_violations, 0u);
  EXPECT_TRUE(any_cause(sim_result.violations));
}

}  // namespace
