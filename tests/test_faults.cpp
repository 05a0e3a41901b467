// Fault-injection layer (src/faults/): spec parsing, the injector's
// hybrid-model contract (honest links delay, never lose), deterministic
// schedules, the mailbox wait/wake regression, the thread-net watchdog's
// crash awareness, and end-to-end chaos equivalences — dup+reorder must not
// change a sync-worst-case run at all, a pre-start crash-stop must match the
// equivalent silent-Byzantine run, and a faulted sweep must be byte-stable
// across --jobs.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "faults/faults.hpp"
#include "geometry/convex.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "obs/report.hpp"
#include "protocols/aa.hpp"
#include "sim/delay.hpp"
#include "transport/mailbox.hpp"
#include "transport/thread_net.hpp"

using namespace hydra;

namespace {

// ------------------------------------------------------------------ parsing

TEST(FaultPlanParse, EmptySpecIsEmptyPlan) {
  const auto plan = faults::parse_fault_plan("");
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->empty());
  EXPECT_EQ(faults::to_string(*plan), "");
}

TEST(FaultPlanParse, FullGrammarRoundTrips) {
  const std::string spec =
      "dup(p=0.25,skew=100);reorder(p=0.5);crash(party=2,at=500);"
      "crash(party=3,at=100,until=900);partition(group=0.1,from=200,until=800)";
  const auto plan = faults::parse_fault_plan(spec);
  ASSERT_TRUE(plan.has_value());
  ASSERT_TRUE(plan->dup.has_value());
  EXPECT_DOUBLE_EQ(plan->dup->p, 0.25);
  EXPECT_EQ(plan->dup->skew, 100);
  ASSERT_TRUE(plan->reorder.has_value());
  EXPECT_DOUBLE_EQ(plan->reorder->p, 0.5);
  EXPECT_EQ(plan->reorder->skew, 0);  // 0 = default to Delta at run time
  ASSERT_EQ(plan->crashes.size(), 2u);
  EXPECT_EQ(plan->crashes[0].party, 2u);
  EXPECT_EQ(plan->crashes[0].at, 500);
  EXPECT_EQ(plan->crashes[0].until, kTimeInfinity);
  EXPECT_EQ(plan->crashes[1].until, 900);
  ASSERT_EQ(plan->partitions.size(), 1u);
  EXPECT_EQ(plan->partitions[0].group, (std::vector<PartyId>{0, 1}));

  // to_string is canonical: reparsing reproduces the same rendering.
  const auto rendered = faults::to_string(*plan);
  const auto reparsed = faults::parse_fault_plan(rendered);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(faults::to_string(*reparsed), rendered);
}

TEST(FaultPlanParse, RejectsMalformedSpecs) {
  const std::vector<std::string> bad = {
      "garbage",
      "dup",                                  // no (...)
      "dup(p=2)",                             // p out of [0,1]
      "dup(p=-0.1)",
      "dup(frequency=1)",                     // unknown key
      "dup(p=0.1);dup(p=0.2)",                // duplicate clause
      "reorder(p=0.5);reorder(p=0.5)",
      "crash(at=5)",                          // missing party
      "crash(party=1,at=10,until=10)",        // empty window
      "crash(party=-1,at=0)",                 // negative id
      "partition(from=0,until=9)",            // missing group
      "partition(group=,from=0,until=9)",     // empty group
      "partition(group=0.1,from=5,until=5)",  // empty window
      "explode(p=1)",                         // unknown clause
      "dup(p)",                               // not key=value
      "dup(p=0.2,from=-1)",                   // negative link endpoint
      "dup(p=0.2,to=-3)",
      "reorder(p=0.5,from=2,to=2)",           // self-link target
      "dup(p=0.2,from=1,to=1)",
  };
  for (const auto& spec : bad) {
    std::string error;
    EXPECT_FALSE(faults::parse_fault_plan(spec, &error).has_value()) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

TEST(FaultPlanParse, PlanQueries) {
  const auto plan = faults::parse_fault_plan(
      "crash(party=2,at=500);crash(party=3,at=100,until=900);"
      "partition(group=0.7,from=1,until=2)");
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->crashes_party(2));
  EXPECT_TRUE(plan->crashes_party(3));
  EXPECT_FALSE(plan->crashes_party(0));
  // Only a no-recovery clause is a crash-stop.
  ASSERT_TRUE(plan->crash_stop_at(2).has_value());
  EXPECT_EQ(*plan->crash_stop_at(2), 500);
  EXPECT_FALSE(plan->crash_stop_at(3).has_value());
  EXPECT_EQ(plan->max_party(), 7u);
}

TEST(FaultPlanParse, LinkTargetsRoundTripAndExtendMaxParty) {
  const std::string spec = "dup(p=0.25,skew=100,from=6);reorder(p=0.5,from=1,to=4)";
  const auto plan = faults::parse_fault_plan(spec);
  ASSERT_TRUE(plan.has_value());
  ASSERT_TRUE(plan->dup.has_value());
  ASSERT_TRUE(plan->dup->from.has_value());
  EXPECT_EQ(*plan->dup->from, 6u);
  EXPECT_FALSE(plan->dup->to.has_value());
  ASSERT_TRUE(plan->reorder.has_value());
  EXPECT_EQ(*plan->reorder->from, 1u);
  EXPECT_EQ(*plan->reorder->to, 4u);
  // Link targets participate in the < n validation.
  EXPECT_EQ(plan->max_party(), 6u);
  // Canonical rendering re-parses to the same plan.
  EXPECT_EQ(faults::to_string(*plan), spec);
  const auto again = faults::parse_fault_plan(faults::to_string(*plan));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(faults::to_string(*again), spec);
}

// ----------------------------------------------------------------- injector

faults::FaultInjector make_injector(const std::string& spec,
                                    faults::FaultInjector::Config config) {
  const auto plan = faults::parse_fault_plan(spec);
  EXPECT_TRUE(plan.has_value()) << spec;
  return faults::FaultInjector(*plan, config);
}

TEST(FaultInjector, SameSeedSameSchedule) {
  const std::string spec = "dup(p=0.5);reorder(p=0.5,skew=200)";
  auto a = make_injector(spec, {.seed = 42, .synchronous = false, .delta = 100});
  auto b = make_injector(spec, {.seed = 42, .synchronous = false, .delta = 100});
  auto c = make_injector(spec, {.seed = 43, .synchronous = false, .delta = 100});
  bool any_difference_from_c = false;
  for (int i = 0; i < 200; ++i) {
    const auto from = static_cast<PartyId>(i % 4);
    const auto to = static_cast<PartyId>((i + 1) % 4);
    const auto oa = a.on_message(from, to, i, 50);
    const auto ob = b.on_message(from, to, i, 50);
    const auto oc = c.on_message(from, to, i, 50);
    EXPECT_EQ(oa.dropped, ob.dropped);
    EXPECT_EQ(oa.duplicated, ob.duplicated);
    EXPECT_EQ(oa.delays[0], ob.delays[0]);
    EXPECT_EQ(oa.delays[1], ob.delays[1]);
    any_difference_from_c = any_difference_from_c || oa.delays[0] != oc.delays[0] ||
                            oa.duplicated != oc.duplicated;
  }
  EXPECT_TRUE(any_difference_from_c);  // different seed, different schedule
}

TEST(FaultInjector, TargetedClausesTouchOnlyMatchingLinks) {
  // dup(p=1,from=0) must duplicate every 0->* message and nothing else. The
  // draw discipline gates the Rng draw itself on link eligibility, so the
  // 0->* schedule is independent of how much other traffic interleaves.
  auto sparse = make_injector("dup(p=1,skew=50,from=0)",
                              {.seed = 9, .synchronous = false, .delta = 100});
  auto dense = make_injector("dup(p=1,skew=50,from=0)",
                             {.seed = 9, .synchronous = false, .delta = 100});
  for (int i = 0; i < 50; ++i) {
    const auto noise = dense.on_message(1, 2, i, 10);
    EXPECT_FALSE(noise.duplicated) << i;  // 1->2 never matches from=0
    const auto a = sparse.on_message(0, 3, i, 10);
    const auto b = dense.on_message(0, 3, i, 10);
    EXPECT_TRUE(a.duplicated) << i;
    EXPECT_TRUE(b.duplicated) << i;
    EXPECT_EQ(a.delays[1], b.delays[1]) << i;  // same eligible-order draws
  }
}

TEST(FaultInjector, ToTargetRestrictsTheReceiverSide) {
  auto injector = make_injector("reorder(p=1,skew=500,to=2)",
                                {.seed = 5, .synchronous = false, .delta = 100});
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(injector.on_message(0, 1, i, 10).delays[0], 10) << i;
    EXPECT_GT(injector.on_message(0, 2, i, 10).delays[0], 10) << i;
  }
}

TEST(FaultInjector, HonestLinksAreNeverDropped) {
  // The hybrid-model contract: without crash clauses NO message is lost,
  // whatever else the plan does, and under synchrony the total delay stays
  // within max(base, Delta).
  auto inj = make_injector(
      "dup(p=0.8);reorder(p=0.9);partition(group=0.1,from=100,until=300)",
      {.seed = 7, .synchronous = true, .delta = 100});
  for (int i = 0; i < 500; ++i) {
    const Time now = i;
    const auto out = inj.on_message(static_cast<PartyId>(i % 4),
                                    static_cast<PartyId>((i + 2) % 4), now, 60);
    EXPECT_FALSE(out.dropped);
    EXPECT_GE(out.delays[0], 60);
    const bool cut = now >= 100 && now < 300 && ((i % 4 < 2) != ((i + 2) % 4 < 2));
    if (!cut) {
      EXPECT_LE(out.delays[0], 100) << "sync clamp violated at message " << i;
    }
    if (out.duplicated) {
      EXPECT_GE(out.delays[1], out.delays[0]) << "copy beat the primary";
    }
  }
  EXPECT_EQ(inj.totals().dropped, 0u);
  EXPECT_GT(inj.totals().duplicated, 0u);
  EXPECT_GT(inj.totals().delayed, 0u);
}

TEST(FaultInjector, CrashWindowsDropAtTheEndpoints) {
  auto inj = make_injector("crash(party=0,at=100,until=200)",
                           {.seed = 1, .synchronous = true, .delta = 50});
  // Sender down at send time.
  auto out = inj.on_message(0, 1, 150, 10);
  EXPECT_TRUE(out.dropped);
  EXPECT_STREQ(out.reason, "crash-sender");
  // Sender up again after recovery.
  EXPECT_FALSE(inj.on_message(0, 1, 200, 10).dropped);
  EXPECT_FALSE(inj.on_message(0, 1, 99, 0).dropped);  // before the window
  // Receiver down at DELIVERY time (sent before the window, arriving inside).
  out = inj.on_message(1, 0, 95, 10);
  EXPECT_TRUE(out.dropped);
  EXPECT_STREQ(out.reason, "crash-receiver");
  // Arrives after recovery: delivered.
  EXPECT_FALSE(inj.on_message(1, 0, 195, 10).dropped);
  EXPECT_EQ(inj.totals().dropped, 2u);
}

TEST(FaultInjector, PartitionHoldsUntilHealNeverDrops) {
  auto inj = make_injector("partition(group=0.1,from=0,until=1000)",
                           {.seed = 1, .synchronous = false, .delta = 50});
  // Crossing the cut: held until heal + base.
  const auto held = inj.on_message(0, 2, 10, 50);
  EXPECT_FALSE(held.dropped);
  EXPECT_EQ(held.delays[0], (1000 - 10) + 50);
  // Same side of the cut: untouched.
  EXPECT_EQ(inj.on_message(0, 1, 10, 50).delays[0], 50);
  EXPECT_EQ(inj.on_message(2, 3, 10, 50).delays[0], 50);
  // After the heal tick: untouched.
  EXPECT_EQ(inj.on_message(0, 2, 1000, 50).delays[0], 50);
}

TEST(FaultInjector, SelfDeliveryIsUntouchable) {
  auto inj = make_injector("dup(p=1);reorder(p=1)",
                           {.seed = 1, .synchronous = false, .delta = 50});
  const auto out = inj.on_message(2, 2, 123, 0);
  EXPECT_FALSE(out.dropped);
  EXPECT_FALSE(out.duplicated);
  EXPECT_EQ(out.delays[0], 0);
}

// ------------------------------------------------------------------ mailbox

using transport::Mailbox;
using Clock = std::chrono::steady_clock;

/// Wall-clock tick mapping like ThreadNetwork's, anchored at construction.
struct TestClock {
  Clock::time_point epoch = Clock::now();
  double us_per_tick = 100.0;

  [[nodiscard]] Time now_ticks() const {
    const auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - epoch)
            .count();
    return static_cast<Time>(static_cast<double>(us) / us_per_tick);
  }
  [[nodiscard]] Clock::time_point deadline(Time at) const {
    return epoch + std::chrono::microseconds(
                       static_cast<std::int64_t>(static_cast<double>(at) *
                                                 us_per_tick) +
                       1);
  }
};

Mailbox::Item make_item(Time due, std::uint64_t seq) {
  return Mailbox::Item{due, seq, seq + 1, 0, sim::Message{InstanceKey{1, 0, 0}, 0, {}}};
}

// Regression for the pop_due early-return bug: a timeout whose wake target
// was the QUEUE HEAD (not the caller's timer deadline) used to return
// nullopt, sending the caller through a futile timer-drain pass per tick
// boundary. pop_due must only report nullopt for the caller's own deadline.
TEST(MailboxPopDue, NoSpuriousWakeupsNearTickBoundaries) {
  TestClock clock;
  Mailbox box;
  // Two items a few ticks out; the caller's own timer far beyond them.
  box.push(make_item(10, 0));
  box.push(make_item(20, 1));
  const Time local_deadline = 60;

  std::size_t items = 0;
  std::size_t spurious = 0;
  for (;;) {
    const auto item = box.pop_due([&] { return clock.now_ticks(); },
                                  [&](Time at) { return clock.deadline(at); },
                                  local_deadline);
    if (item.has_value()) {
      items += 1;
      EXPECT_LE(item->due, clock.now_ticks());
      continue;
    }
    // nullopt is only legal once OUR deadline truly passed.
    if (clock.now_ticks() < local_deadline) {
      spurious += 1;
    } else {
      break;
    }
  }
  EXPECT_EQ(items, 2u);
  EXPECT_EQ(spurious, 0u);
}

TEST(MailboxPopDue, InfiniteDeadlineWaitsForTheItem) {
  TestClock clock;
  Mailbox box;
  box.push(make_item(15, 0));
  // With no timer deadline at all, the only valid outcomes are "the item"
  // or "closed" — never a spurious nullopt.
  const auto item = box.pop_due([&] { return clock.now_ticks(); },
                                [&](Time at) { return clock.deadline(at); },
                                kTimeInfinity);
  ASSERT_TRUE(item.has_value());
  EXPECT_GE(clock.now_ticks(), 15);
}

TEST(MailboxPopDue, CloseUnblocksWaiters) {
  TestClock clock;
  Mailbox box;
  std::optional<Mailbox::Item> got = make_item(0, 0);
  std::thread waiter([&] {
    got = box.pop_due([&] { return clock.now_ticks(); },
                      [&](Time at) { return clock.deadline(at); }, kTimeInfinity);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  box.close();
  waiter.join();
  EXPECT_FALSE(got.has_value());
}

// ---------------------------------------------------------------- thread net

TEST(ThreadNetFaults, CrashStoppedPartyDoesNotTriggerTheWatchdog) {
  // n = 5, ts = 1: one crash-stopped party is within tolerance, the other
  // four finish, and the completion loop must treat the dead party as
  // satisfied instead of timing out.
  protocols::Params p;
  p.n = 5;
  p.ts = 1;
  p.ta = 1;
  p.dim = 2;
  p.eps = 1e-2;
  p.delta = 500;

  const auto plan = faults::parse_fault_plan("crash(party=0,at=0)");
  ASSERT_TRUE(plan.has_value());
  faults::FaultInjector injector(
      *plan, {.seed = 9, .synchronous = true, .delta = p.delta});

  transport::ThreadNetwork net(
      {.n = 5, .delta = p.delta, .seed = 9, .us_per_tick = 20.0,
       .timeout_ms = 60'000},
      std::make_unique<sim::UniformDelay>(1, p.delta / 4));
  net.set_fault_injector(&injector);

  Rng rng(77);
  std::vector<std::unique_ptr<sim::IParty>> parties;
  std::vector<protocols::AaParty*> raw;
  for (std::size_t i = 0; i < 5; ++i) {
    geo::Vec v(2, 0.0);
    for (std::size_t d = 0; d < 2; ++d) v[d] = rng.next_double(-4.0, 4.0);
    auto party = std::make_unique<protocols::AaParty>(p, v);
    raw.push_back(party.get());
    parties.push_back(std::move(party));
  }
  const auto stats = net.run(parties, [](const sim::IParty& party, PartyId) {
    return static_cast<const protocols::AaParty&>(party).has_output();
  });

  EXPECT_FALSE(stats.timed_out) << stats.timeout_detail;
  ASSERT_EQ(stats.progress.size(), 5u);
  EXPECT_TRUE(stats.progress[0].crash_stopped);
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_TRUE(stats.progress[i].finished) << i;
    EXPECT_FALSE(stats.progress[i].crash_stopped) << i;
  }
  // The survivors (ids 1..4, all honest) must still reach agreement.
  std::vector<geo::Vec> outputs;
  for (std::size_t i = 1; i < 5; ++i) {
    ASSERT_TRUE(raw[i]->has_output()) << i;
    outputs.push_back(raw[i]->output());
  }
  EXPECT_LE(geo::diameter(outputs), p.eps + 1e-9);
}

// -------------------------------------------------------------- end to end

harness::RunSpec chaos_spec(std::uint64_t seed) {
  harness::RunSpec spec;
  spec.params.n = 5;
  spec.params.ts = 1;
  spec.params.ta = 1;
  spec.params.dim = 2;
  spec.params.eps = 1e-2;
  spec.params.delta = 1000;
  spec.network = harness::Network::kSyncWorstCase;
  spec.adversary = harness::Adversary::kNone;
  spec.corruptions = 0;
  spec.seed = seed;
  return spec;
}

// Chaos acceptance #1: duplication and (sync-clamped) reorder are invisible
// under the worst-case synchronous schedule — every message already takes
// exactly Delta, the clamp forbids going beyond it, and every layer dedups —
// so the faulted run must be byte-identical to the clean one.
TEST(FaultsEndToEnd, DupReorderMatchesCleanRunExactly) {
  auto clean = chaos_spec(31);
  auto faulted = clean;
  faulted.faults = "dup(p=0.4);reorder(p=0.6)";

  const auto a = harness::execute(clean);
  const auto b = harness::execute(faulted);
  EXPECT_TRUE(a.verdict.d_aa());
  EXPECT_TRUE(b.verdict.d_aa());
  EXPECT_EQ(a.verdict.live, b.verdict.live);
  EXPECT_EQ(a.verdict.valid, b.verdict.valid);
  EXPECT_EQ(a.verdict.agreed, b.verdict.agreed);
  EXPECT_EQ(a.verdict.output_diameter, b.verdict.output_diameter);
  // Duplicate copies are network noise, not sends: counters must agree too.
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.sent_per_party, b.sent_per_party);
  EXPECT_EQ(b.fault_drops, 0u);
  EXPECT_GT(b.fault_dups, 0u);
}

// Chaos acceptance #2: a party crash-stopped before round 1 is
// indistinguishable from a silent-Byzantine slot to everyone else (its
// messages never arrive either way), so the two runs must produce the same
// verdict on the same honest set.
TEST(FaultsEndToEnd, PreStartCrashStopMatchesSilentByzantine) {
  auto crashed = chaos_spec(47);
  crashed.faults = "crash(party=0,at=0)";

  auto silent = chaos_spec(47);
  silent.adversary = harness::Adversary::kSilent;
  silent.corruptions = 1;

  const auto a = harness::execute(crashed);
  const auto b = harness::execute(silent);
  EXPECT_TRUE(a.verdict.d_aa());
  EXPECT_TRUE(b.verdict.d_aa());
  EXPECT_EQ(a.verdict.live, b.verdict.live);
  EXPECT_EQ(a.verdict.valid, b.verdict.valid);
  EXPECT_EQ(a.verdict.agreed, b.verdict.agreed);
  EXPECT_EQ(a.verdict.output_diameter, b.verdict.output_diameter);
  EXPECT_GT(a.fault_drops, 0u);
}

// Chaos acceptance #3: the fault schedule is part of the run's deterministic
// identity — a faulted sweep is byte-identical whether it runs on one worker
// or eight.
TEST(FaultsEndToEnd, FaultedSweepIsDeterministicAcrossJobs) {
  std::vector<harness::RunSpec> grid;
  const std::vector<std::string> fault_specs = {
      "dup(p=0.3);reorder(p=0.5)",
      "crash(party=0,at=0)",
      "dup(p=0.5);crash(party=0,at=2000,until=9000)",
  };
  for (const auto& faults : fault_specs) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      auto spec = chaos_spec(seed);
      spec.network = harness::Network::kSyncJitter;
      spec.faults = faults;
      grid.push_back(spec);
    }
  }
  const auto seq = harness::run_sweep(grid, 1, nullptr);
  const auto par = harness::run_sweep(grid, 8, nullptr);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].verdict.d_aa(), par[i].verdict.d_aa()) << i;
    EXPECT_EQ(seq[i].verdict.output_diameter, par[i].verdict.output_diameter) << i;
    EXPECT_EQ(seq[i].messages, par[i].messages) << i;
    EXPECT_EQ(seq[i].bytes, par[i].bytes) << i;
    EXPECT_EQ(seq[i].rounds, par[i].rounds) << i;
    EXPECT_EQ(seq[i].fault_drops, par[i].fault_drops) << i;
    EXPECT_EQ(seq[i].fault_dups, par[i].fault_dups) << i;
    EXPECT_EQ(seq[i].fault_delays, par[i].fault_delays) << i;
    EXPECT_EQ(seq[i].sent_per_party, par[i].sent_per_party) << i;
  }
}

// The trace must carry the fault story: the scheduled timeline up front and
// the per-message drops as they happen, and `hydra report` must render a
// Fault timeline section from it.
TEST(FaultsEndToEnd, TraceCarriesFaultEventsAndReportRendersThem) {
  const std::string trace_path = testing::TempDir() + "faults_trace.jsonl";
  const std::string metrics_path = testing::TempDir() + "faults_metrics.json";
  auto spec = chaos_spec(53);
  spec.faults = "crash(party=0,at=0);partition(group=1.2,from=2000,until=6000)";
  spec.network = harness::Network::kAsyncReorder;
  spec.trace_out = trace_path;
  spec.metrics_out = metrics_path;
  const auto result = harness::execute(spec);
  EXPECT_GT(result.fault_drops, 0u);

  std::ostringstream raw;
  {
    std::ifstream in(trace_path);
    ASSERT_TRUE(in.is_open());
    raw << in.rdbuf();
  }
  const std::string trace = raw.str();
  EXPECT_NE(trace.find("\"ev\":\"fault.crash\""), std::string::npos);
  EXPECT_NE(trace.find("\"ev\":\"fault.drop\""), std::string::npos);
  EXPECT_NE(trace.find("\"ev\":\"fault.partition\""), std::string::npos);
  EXPECT_NE(trace.find("\"ev\":\"fault.heal\""), std::string::npos);
  EXPECT_NE(trace.find("group=1.2"), std::string::npos);

  std::ifstream metrics_in(metrics_path);
  std::ostringstream metrics;
  metrics << metrics_in.rdbuf();

  std::istringstream trace_in(trace);
  std::ostringstream report;
  const auto events = obs::render_report(trace_in, metrics.str(), {}, report);
  EXPECT_GT(events, 0u);
  const std::string md = report.str();
  EXPECT_NE(md.find("Fault timeline"), std::string::npos);
  EXPECT_NE(md.find("crash"), std::string::npos);
  EXPECT_NE(md.find("partition"), std::string::npos);

  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

}  // namespace
