// Multi-instance serving engine (src/serve/): cross-instance isolation
// (instance 0 of a multiplexed run is byte-identical to the solo run; faults
// scoped to one instance leave every sibling untouched), epoch GC (slot
// reuse after retirement, late-message drop accounting), per-(spec, seed)
// determinism, strict monitors across instances, and the real-thread
// backend.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "serve/engine.hpp"
#include "serve/instance_mux.hpp"

using namespace hydra;

namespace {

serve::ServeSpec base_spec(std::uint32_t instances) {
  serve::ServeSpec spec;
  spec.params.n = 5;
  spec.params.ts = 1;
  spec.params.ta = 1;
  spec.params.dim = 2;
  spec.params.eps = 1e-2;
  spec.params.delta = 200;
  spec.network = harness::Network::kSyncWorstCase;
  spec.instances = instances;
  spec.seed = 11;
  return spec;
}

void expect_outcomes_equal(const serve::InstanceOutcome& a,
                           const serve::InstanceOutcome& b,
                           std::uint32_t instance) {
  EXPECT_EQ(a.decided, b.decided) << "instance " << instance;
  EXPECT_EQ(a.pass, b.pass) << "instance " << instance;
  EXPECT_EQ(a.decision_latency, b.decision_latency) << "instance " << instance;
  EXPECT_EQ(a.max_output_iteration, b.max_output_iteration)
      << "instance " << instance;
  EXPECT_EQ(a.output_diameter, b.output_diameter) << "instance " << instance;
  EXPECT_EQ(a.messages, b.messages) << "instance " << instance;
  EXPECT_EQ(a.bytes, b.bytes) << "instance " << instance;
}

}  // namespace

TEST(InstanceSeed, DerivedSeedsAreDistinctAndStable) {
  std::set<std::uint64_t> seen;
  for (std::uint32_t k = 0; k < 4096; ++k) {
    seen.insert(serve::instance_seed(11, k));
  }
  EXPECT_EQ(seen.size(), 4096u);  // no collisions in any realistic fleet
  // Pure function: recomputation and base-seed sensitivity.
  EXPECT_EQ(serve::instance_seed(11, 7), serve::instance_seed(11, 7));
  EXPECT_NE(serve::instance_seed(11, 7), serve::instance_seed(12, 7));
}

// The mux's egress contract: instance 0 stamps tag bits that decode to 0, so
// its entire projected run — decisions, iterations, outputs, wire totals —
// must match the single-instance run of the same spec exactly, no matter how
// many siblings share the backend.
TEST(Serve, Instance0MatchesSoloRun) {
  const auto solo = serve::run_serve(base_spec(1));
  ASSERT_EQ(solo.outcomes.size(), 1u);
  ASSERT_TRUE(solo.outcomes[0].pass);

  const auto multi = serve::run_serve(base_spec(8));
  ASSERT_EQ(multi.outcomes.size(), 8u);
  EXPECT_EQ(multi.decided, 8u);
  EXPECT_TRUE(multi.all_pass);
  expect_outcomes_equal(multi.outcomes[0], solo.outcomes[0], 0);
}

// Faults scoped to one instance must leave every sibling byte-identical to
// the clean run: same decisions, same iteration counts, same wire totals.
TEST(Serve, FaultsScopedToOneInstanceLeaveSiblingsUntouched) {
  const auto clean = serve::run_serve(base_spec(4));
  ASSERT_EQ(clean.decided, 4u);
  ASSERT_TRUE(clean.all_pass);

  auto faulty_spec = base_spec(4);
  faulty_spec.adversary = harness::Adversary::kSilent;
  faulty_spec.corruptions = 1;
  faulty_spec.corrupt_instances = {2};
  const auto faulty = serve::run_serve(faulty_spec);
  ASSERT_EQ(faulty.outcomes.size(), 4u);
  EXPECT_EQ(faulty.decided, 4u);
  EXPECT_TRUE(faulty.all_pass);  // ts = 1 tolerates the silent party

  for (const std::uint32_t k : {0u, 1u, 3u}) {
    expect_outcomes_equal(faulty.outcomes[k], clean.outcomes[k], k);
  }
  // The corrupted instance visibly diverges (one party never speaks).
  EXPECT_LT(faulty.outcomes[2].messages, clean.outcomes[2].messages);
}

TEST(Serve, CrashAdversaryScopedToOneInstance) {
  auto spec = base_spec(4);
  spec.adversary = harness::Adversary::kCrash;
  spec.corruptions = 1;
  spec.corrupt_instances = {1};
  const auto result = serve::run_serve(spec);
  EXPECT_EQ(result.decided, 4u);
  EXPECT_TRUE(result.all_pass);

  const auto clean = serve::run_serve(base_spec(4));
  for (const std::uint32_t k : {0u, 2u, 3u}) {
    expect_outcomes_equal(result.outcomes[k], clean.outcomes[k], k);
  }
}

// Epoch GC: with admissions spaced wider than one instance's full lifetime
// (decision + linger), every later instance must reuse the retired slot —
// resident state is bounded by CONCURRENCY, not by instances served.
TEST(Serve, RetiredSlotsAreReused) {
  auto spec = base_spec(4);
  spec.linger = 2 * spec.params.delta;
  // Solo decision time on sync-worst with these params is ~16 * delta; give
  // each instance 64 * delta of exclusive runway.
  spec.interarrival = 64 * spec.params.delta;
  const auto result = serve::run_serve(spec);
  EXPECT_EQ(result.decided, 4u);
  EXPECT_TRUE(result.all_pass);
  EXPECT_EQ(result.live_peak, 1u);
  EXPECT_LT(result.slots_allocated, 4u);
  EXPECT_EQ(result.late_dropped + result.unknown_dropped, 0u);
}

// linger=0 retires a slot the moment the directory shows every party
// decided — the echo tail still in flight (FixedDelay keeps one delta of
// traffic airborne) must be COUNTED and dropped, never crash or misroute.
TEST(Serve, ZeroLingerCountsLateDropsWithoutHarm) {
  auto spec = base_spec(4);
  spec.linger = 0;
  const auto result = serve::run_serve(spec);
  EXPECT_EQ(result.decided, 4u);
  EXPECT_TRUE(result.all_pass);
  EXPECT_GT(result.late_dropped, 0u);
  EXPECT_EQ(result.unknown_dropped, 0u);

  // The drops are attributed to real instances in the per-instance ledger.
  std::uint64_t attributed = 0;
  for (const auto& outcome : result.outcomes) attributed += outcome.late_dropped;
  EXPECT_EQ(attributed, result.late_dropped);
}

TEST(Serve, DeterministicAcrossIdenticalRuns) {
  auto spec = base_spec(64);
  spec.interarrival = 7;  // staggered admissions must be reproducible too
  const auto a = serve::run_serve(spec);
  const auto b = serve::run_serve(spec);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.end_time, b.end_time);
  for (std::uint32_t k = 0; k < a.outcomes.size(); ++k) {
    expect_outcomes_equal(a.outcomes[k], b.outcomes[k], k);
  }
}

// ISSUE acceptance: a strict-monitor multi-instance run reports zero
// violations — every instance gets its own MonitorHost wired through the
// per-instance obs::Context, and a clean protocol must satisfy all of them.
TEST(Serve, StrictMonitorsCleanAcrossInstances) {
  auto spec = base_spec(8);
  spec.monitors = obs::MonitorMode::kStrict;
  const auto result = serve::run_serve(spec);
  EXPECT_EQ(result.decided, 8u);
  EXPECT_TRUE(result.all_pass);
  EXPECT_EQ(result.monitor_violations, 0u) << (result.violations.empty()
                                                   ? ""
                                                   : result.violations[0].detail);
  for (const auto& outcome : result.outcomes) {
    EXPECT_EQ(outcome.monitor_violations, 0u);
  }
}

// The slab + routing layer is not a simulator artifact: real threads, real
// timers, concurrent delivery into the muxes.
TEST(Serve, ThreadsBackendDecidesEveryInstance) {
  auto spec = base_spec(16);
  spec.backend = "threads";
  spec.us_per_tick = 5.0;
  spec.timeout_ms = 60'000;
  const auto result = serve::run_serve(spec);
  EXPECT_EQ(result.decided, 16u);
  EXPECT_TRUE(result.all_pass);
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.unknown_dropped, 0u);
}

// The serving engine builds its backend through the harness: an unknown name
// aborts with the same actionable message single runs give.
TEST(ServeDeathTest, UnknownBackendNamesEveryRegisteredBackend) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto spec = base_spec(1);
  spec.backend = "bogus";
  std::string expected = "unknown ServeSpec::backend \"bogus\"; registered backends: ";
  const auto names = harness::backend_names();
  ASSERT_GE(names.size(), 4u);  // sim, threads, tcp, uds
  for (std::size_t i = 0; i < names.size(); ++i) {
    expected += (i == 0 ? "" : ", ") + names[i];
  }
  EXPECT_DEATH((void)serve::run_serve(spec), expected);
}
