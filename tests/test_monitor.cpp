// Invariant monitors: mode parsing, paper complexity budgets, each monitor
// tripping on a hand-fed counterexample and staying silent on clean input,
// strict-mode aborts, end-to-end clean runs across every protocol the CLI
// exposes, the deliberately faulty aggregation hook tripping the validity
// AND contraction monitors, and report rendering from a real trace.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "geometry/vec.hpp"
#include "harness/runner.hpp"
#include "obs/monitor.hpp"
#include "obs/report.hpp"

using namespace hydra;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

geo::Vec vec2(double x, double y) {
  geo::Vec v(2, 0.0);
  v[0] = x;
  v[1] = y;
  return v;
}

// ---------------------------------------------------------------------- modes

TEST(MonitorMode, ParseRoundTrips) {
  for (const auto mode : {obs::MonitorMode::kOff, obs::MonitorMode::kRecord,
                          obs::MonitorMode::kStrict}) {
    const auto parsed = obs::parse_monitor_mode(obs::to_string(mode));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(obs::parse_monitor_mode("paranoid").has_value());
  EXPECT_FALSE(obs::parse_monitor_mode("").has_value());
}

// -------------------------------------------------------------------- budgets

TEST(ComplexityBudget, HybridMatchesDerivation) {
  const auto b = obs::hybrid_complexity_budget(8, 2);
  // (n-1)(6n + 4) fixed, (n-1)(2n + 2) per iteration: one broadcast costs
  // n - 1 counted messages because self-delivery never touches the wire
  // (header derivation).
  EXPECT_EQ(b.msgs_fixed, 7u * (6 * 8 + 4));
  EXPECT_EQ(b.msgs_per_iteration, 7u * (2 * 8 + 2));
  const std::uint64_t max_wire = 49 + 8 * (16 + 8 * 2);
  EXPECT_EQ(b.bytes_fixed, b.msgs_fixed * max_wire);
  EXPECT_EQ(b.bytes_per_iteration, b.msgs_per_iteration * max_wire);
}

TEST(ComplexityBudget, LockstepIsLinearInN) {
  const auto b = obs::lockstep_complexity_budget(10, 3);
  // Two broadcasts fixed, one per iteration, at n - 1 wire messages each.
  EXPECT_EQ(b.msgs_fixed, 18u);
  EXPECT_EQ(b.msgs_per_iteration, 9u);
  EXPECT_EQ(b.bytes_per_iteration, 9u * (49 + 8 * 3));
}

// ------------------------------------------------------------- monitor units

obs::MonitorHost::Config unit_config(std::size_t n = 4) {
  obs::MonitorHost::Config cfg;
  cfg.mode = obs::MonitorMode::kRecord;
  cfg.n = n;
  cfg.ts = 1;
  cfg.ta = 0;
  cfg.dim = 2;
  cfg.eps = 1e-2;
  cfg.honest.assign(n, true);
  for (std::size_t i = 0; i < n; ++i) {
    cfg.honest_inputs.push_back(vec2(i % 2 == 0 ? 0.0 : 4.0, i < 2 ? 0.0 : 4.0));
  }
  return cfg;
}

TEST(Monitor, ValidityAcceptsPointsInsideTheInputHull) {
  obs::MonitorHost mon(unit_config());
  mon.on_value(1, 0, 0, vec2(2.0, 2.0));  // centroid of the square
  mon.on_value(1, 1, 0, vec2(0.0, 4.0));  // a vertex
  EXPECT_EQ(mon.total_violations(), 0u);
}

TEST(Monitor, ValidityFlagsEscapeFromTheInputHull) {
  obs::MonitorHost mon(unit_config());
  mon.on_value(1, 0, 0, vec2(9.0, 9.0));
  EXPECT_EQ(mon.count("validity"), 1u);
  ASSERT_EQ(mon.violations().size(), 1u);
  EXPECT_EQ(mon.violations()[0].monitor, "validity");
  EXPECT_EQ(mon.violations()[0].party, 0u);
}

TEST(Monitor, ValidityChecksIterationKAgainstHonestLayerKMinus1) {
  obs::MonitorHost mon(unit_config());
  // Honest layer 1 spans [0, 1]^2 ...
  mon.on_value(1, 0, 1, vec2(0.0, 0.0));
  mon.on_value(1, 1, 1, vec2(1.0, 1.0));
  // ... so an iteration-2 value at (3, 3) escapes it.
  mon.on_value(2, 2, 2, vec2(3.0, 3.0));
  EXPECT_EQ(mon.count("validity"), 1u);
}

TEST(Monitor, ValidityToleratesDegenerateConvergedLayers) {
  // Post-convergence layers have ~1e-16 diameters; the hull check must not
  // blow up (the LP normalization degenerates) and must accept the point.
  obs::MonitorHost mon(unit_config());
  const auto p = vec2(1.0, 1.0);
  for (PartyId id = 0; id < 4; ++id) mon.on_value(1, id, 1, p);
  auto q = p;
  q[0] += 1e-16;
  for (PartyId id = 0; id < 4; ++id) mon.on_value(2, id, 2, q);
  EXPECT_EQ(mon.total_violations(), 0u);
}

TEST(Monitor, ContractionFlagsInsufficientDiameterShrink) {
  auto cfg = unit_config();
  cfg.contraction_factor = 0.5;
  obs::MonitorHost mon(cfg);
  // Layer 1: diameter 4 (inside the input hull, so validity stays quiet).
  mon.on_value(1, 0, 1, vec2(0.0, 0.0));
  mon.on_value(1, 1, 1, vec2(4.0, 0.0));
  mon.on_value(1, 2, 1, vec2(0.0, 0.0));
  mon.on_value(1, 3, 1, vec2(4.0, 0.0));
  // Layer 2: diameter 3 > 0.5 * 4: contraction violated, validity fine.
  mon.on_value(2, 0, 2, vec2(0.0, 0.0));
  mon.on_value(2, 1, 2, vec2(3.0, 0.0));
  mon.on_value(2, 2, 2, vec2(0.0, 0.0));
  mon.on_value(2, 3, 2, vec2(3.0, 0.0));
  EXPECT_EQ(mon.count("contraction"), 1u);
  EXPECT_EQ(mon.count("validity"), 0u);
}

TEST(Monitor, ContractionAcceptsSufficientShrink) {
  auto cfg = unit_config();
  cfg.contraction_factor = 0.5;
  obs::MonitorHost mon(cfg);
  for (PartyId id = 0; id < 4; ++id) {
    mon.on_value(1, id, 1, vec2(id % 2 == 0 ? 0.0 : 4.0, 0.0));
  }
  for (PartyId id = 0; id < 4; ++id) {
    mon.on_value(2, id, 2, vec2(id % 2 == 0 ? 1.0 : 2.0, 0.0));
  }
  EXPECT_EQ(mon.total_violations(), 0u);
}

TEST(Monitor, RbcConsistencyFlagsDivergentPayloads) {
  obs::MonitorHost mon(unit_config());
  mon.on_rbc_deliver(1, 0, 7, 3, 1, Bytes{1, 2, 3});
  mon.on_rbc_deliver(1, 1, 7, 3, 1, Bytes{1, 2, 3});  // same payload: fine
  mon.on_rbc_deliver(2, 2, 7, 3, 1, Bytes{9, 9});     // diverges
  EXPECT_EQ(mon.count("rbc-consistency"), 1u);
  // A different instance is independent.
  mon.on_rbc_deliver(3, 3, 7, 3, 2, Bytes{9, 9});
  EXPECT_EQ(mon.count("rbc-consistency"), 1u);
}

TEST(Monitor, RbcTotalityFlagsStragglersOnlyOnCompleteRuns) {
  {
    obs::MonitorHost mon(unit_config());
    mon.on_rbc_deliver(1, 0, 7, 3, 1, Bytes{1});
    mon.finalize(10, /*complete=*/false);  // truncated run: no claim
    EXPECT_EQ(mon.count("rbc-totality"), 0u);
  }
  {
    obs::MonitorHost mon(unit_config());
    mon.on_rbc_deliver(1, 0, 7, 3, 1, Bytes{1});
    mon.finalize(10, /*complete=*/true);  // 1 of 4 honest delivered
    EXPECT_EQ(mon.count("rbc-totality"), 1u);
  }
  {
    obs::MonitorHost mon(unit_config());
    for (PartyId id = 0; id < 4; ++id) mon.on_rbc_deliver(1, id, 7, 3, 1, Bytes{1});
    mon.finalize(10, /*complete=*/true);
    EXPECT_EQ(mon.count("rbc-totality"), 0u);
  }
}

TEST(Monitor, ObcConsistencyFlagsConflictingAttributedValues) {
  obs::MonitorHost mon(unit_config());
  mon.on_obc_output(1, 0, 1, {{0, vec2(1, 1)}, {1, vec2(2, 2)}, {2, vec2(3, 3)}});
  // Party 1 attributes a different value to source 1.
  mon.on_obc_output(2, 1, 1, {{0, vec2(1, 1)}, {1, vec2(9, 9)}, {2, vec2(3, 3)}});
  EXPECT_EQ(mon.count("obc-consistency"), 1u);
}

TEST(Monitor, ObcOverlapRequiresNMinusTsCommonPairs) {
  obs::MonitorHost mon(unit_config());  // n=4, ts=1: need >= 3 common sources
  mon.on_obc_output(1, 0, 1, {{0, vec2(1, 1)}, {1, vec2(2, 2)}, {2, vec2(3, 3)}});
  // Shares only {0, 1} with party 0's output: |overlap| = 2 < 3.
  mon.on_obc_output(2, 1, 1, {{0, vec2(1, 1)}, {1, vec2(2, 2)}, {3, vec2(4, 4)}});
  EXPECT_EQ(mon.count("obc-overlap"), 1u);
  EXPECT_EQ(mon.count("obc-consistency"), 0u);
}

TEST(Monitor, ComplexityFlagsEachOffendingPartyOnce) {
  auto cfg = unit_config();
  cfg.budget.msgs_fixed = 2;
  cfg.budget.msgs_per_iteration = 1;  // bound = 2 + 1 * (0 + 2) = 4 msgs
  cfg.budget.bytes_fixed = 1000;
  cfg.budget.bytes_per_iteration = 0;
  obs::MonitorHost mon(cfg);
  for (int i = 0; i < 10; ++i) mon.on_send(1, 0, 8);
  EXPECT_EQ(mon.count("complexity"), 1u);  // flagged once, not 6 times
  for (int i = 0; i < 10; ++i) mon.on_send(2, 1, 8);
  EXPECT_EQ(mon.count("complexity"), 2u);
}

TEST(Monitor, ZeroBudgetDisablesComplexity) {
  obs::MonitorHost mon(unit_config());  // unit_config leaves the budget zero
  for (int i = 0; i < 100; ++i) mon.on_send(1, 0, 1 << 20);
  EXPECT_EQ(mon.total_violations(), 0u);
}

TEST(Monitor, CorruptedPartiesAreIgnored) {
  auto cfg = unit_config();
  cfg.honest[3] = false;
  obs::MonitorHost mon(cfg);
  mon.on_value(1, 3, 0, vec2(99.0, 99.0));          // escape by a corrupt party
  mon.on_rbc_deliver(1, 3, 7, 3, 1, Bytes{1});      // corrupt deliveries
  mon.on_rbc_deliver(1, 0, 7, 3, 1, Bytes{2});      // honest baseline
  mon.on_rbc_deliver(2, 3, 7, 3, 1, Bytes{3});      // corrupt divergence
  EXPECT_EQ(mon.total_violations(), 0u);
}

TEST(Monitor, RecordModeNeverAborts) {
  obs::MonitorHost mon(unit_config());
  mon.on_value(1, 0, 0, vec2(9.0, 9.0));
  EXPECT_GT(mon.total_violations(), 0u);
  EXPECT_FALSE(mon.abort_requested());
}

TEST(Monitor, StrictModeRequestsAbortOnFirstViolation) {
  auto cfg = unit_config();
  cfg.mode = obs::MonitorMode::kStrict;
  obs::MonitorHost mon(cfg);
  EXPECT_FALSE(mon.abort_requested());
  mon.on_value(1, 0, 0, vec2(9.0, 9.0));
  EXPECT_TRUE(mon.abort_requested());
}

TEST(Monitor, CausalAttributionFollowsDispatchBracket) {
  obs::MonitorHost mon(unit_config());
  mon.begin_dispatch(42);
  mon.on_value(1, 0, 0, vec2(9.0, 9.0));
  mon.end_dispatch();
  ASSERT_EQ(mon.violations().size(), 1u);
  EXPECT_EQ(mon.violations()[0].cause, 42u);
}

// ------------------------------------------------------------- harness runs

harness::RunSpec monitored_spec(harness::Protocol protocol, std::uint64_t seed) {
  harness::RunSpec spec;
  spec.params.n = 8;
  spec.params.ts = 1;
  spec.params.ta = 1;
  spec.params.dim = 2;
  spec.params.eps = 1e-2;
  spec.params.delta = 1000;
  spec.protocol = protocol;
  spec.network = harness::Network::kSyncJitter;
  spec.adversary = harness::Adversary::kSilent;
  spec.corruptions = 1;
  spec.seed = seed;
  spec.monitors = obs::MonitorMode::kStrict;
  return spec;
}

// Acceptance criterion: a clean strict run reports zero violations for every
// protocol the CLI exposes, across sync and async networks and several
// adversaries (including ones the complexity monitor is gated off for).
TEST(MonitorIntegration, CleanStrictRunsReportZeroViolations) {
  for (const auto protocol :
       {harness::Protocol::kHybrid, harness::Protocol::kSyncLockstep,
        harness::Protocol::kAsyncMh}) {
    for (const auto network :
         {harness::Network::kSyncJitter, harness::Network::kAsyncReorder}) {
      for (const auto adversary :
           {harness::Adversary::kNone, harness::Adversary::kCrash,
            harness::Adversary::kEquivocator}) {
        auto spec = monitored_spec(protocol, 13);
        spec.network = network;
        spec.adversary = adversary;
        spec.corruptions = adversary == harness::Adversary::kNone ? 0 : 1;
        const auto result = harness::execute(spec);
        EXPECT_EQ(result.monitor_violations, 0u)
            << to_string(protocol) << "/" << to_string(network) << "/"
            << to_string(adversary);
        EXPECT_FALSE(result.monitor_aborted);
      }
    }
  }
}

// The deliberately faulty aggregation rule shifts each party's new value by
// escape * (1 + id) along the first axis: values leave the previous layer's
// hull AND the honest diameter stops contracting, so BOTH monitors trip.
TEST(MonitorIntegration, FaultyAggregationTripsValidityAndContraction) {
  auto spec = monitored_spec(harness::Protocol::kHybrid, 17);
  spec.monitors = obs::MonitorMode::kRecord;
  spec.params.test_faulty_escape = 50.0;
  const auto result = harness::execute(spec);

  EXPECT_GT(result.monitor_violations, 0u);
  EXPECT_FALSE(result.monitor_aborted);  // record mode observes, never stops
  std::uint64_t validity = 0;
  std::uint64_t contraction = 0;
  for (const auto& v : result.violations) {
    validity += v.monitor == "validity" ? 1 : 0;
    contraction += v.monitor == "contraction" ? 1 : 0;
  }
  EXPECT_GT(validity, 0u);
  EXPECT_GT(contraction, 0u);
}

// The abort path is the completion watchdog's on the wall-clock backends
// and the drain loop's on the simulator; every one must stop the run early
// rather than wait out the timeout.
TEST(MonitorIntegration, FaultyAggregationUnderStrictModeAbortsTheRun) {
  for (const std::string backend : {"sim", "threads", "uds"}) {
    auto spec = monitored_spec(harness::Protocol::kHybrid, 17);
    spec.params.test_faulty_escape = 50.0;
    spec.backend = backend;
    const auto result = harness::execute(spec);
    EXPECT_GT(result.monitor_violations, 0u) << backend;
    EXPECT_TRUE(result.monitor_aborted) << backend;
    EXPECT_FALSE(result.timed_out) << backend;
  }
}

TEST(MonitorIntegration, MetricsJsonCarriesTheMonitorBlock) {
  const std::string path = testing::TempDir() + "monitor_metrics.json";
  auto spec = monitored_spec(harness::Protocol::kHybrid, 19);
  spec.metrics_out = path;
  const auto result = harness::execute(spec);
  EXPECT_EQ(result.monitor_violations, 0u);
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"monitor\":{"), std::string::npos);
  EXPECT_NE(json.find("\"mode\":\"strict\""), std::string::npos);
  EXPECT_NE(json.find("\"violations\":0"), std::string::npos);
  std::remove(path.c_str());
}

// ------------------------------------------------------------------- report

TEST(Report, RendersMarkdownAndHtmlFromARealTrace) {
  const std::string trace_path = testing::TempDir() + "report_trace.jsonl";
  const std::string metrics_path = testing::TempDir() + "report_metrics.json";
  auto spec = monitored_spec(harness::Protocol::kHybrid, 23);
  spec.monitors = obs::MonitorMode::kRecord;
  spec.params.test_faulty_escape = 50.0;  // so the violation section renders
  spec.trace_out = trace_path;
  spec.metrics_out = metrics_path;
  const auto result = harness::execute(spec);
  EXPECT_GT(result.monitor_violations, 0u);

  const std::string metrics = slurp(metrics_path);
  {
    std::ifstream trace(trace_path);
    std::ostringstream out;
    const auto events = obs::render_report(trace, metrics, {}, out);
    EXPECT_GT(events, 0u);
    const std::string md = out.str();
    EXPECT_NE(md.find("# hydra run report"), std::string::npos);
    EXPECT_NE(md.find("## Invariant violations"), std::string::npos);
    EXPECT_NE(md.find("validity"), std::string::npos);
    EXPECT_NE(md.find("## Per-party send/deliver matrix"), std::string::npos);
    EXPECT_NE(md.find("## Complexity: paper bound vs measured"), std::string::npos);
  }
  {
    std::ifstream trace(trace_path);
    std::ostringstream out;
    obs::ReportOptions options;
    options.format = obs::ReportOptions::Format::kHtml;
    options.title = "html smoke";
    const auto events = obs::render_report(trace, metrics, options, out);
    EXPECT_GT(events, 0u);
    const std::string html = out.str();
    EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
    EXPECT_NE(html.find("html smoke"), std::string::npos);
    EXPECT_NE(html.find("<svg"), std::string::npos);  // convergence chart
    EXPECT_NE(html.find("<table>"), std::string::npos);
  }

  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

// The send/deliver matrix has a row and a column per party, so a party id
// far past the meta line's n must not size it: the line is skipped, counted
// in the first paragraph, and the report stays fast.
TEST(Report, PartyIdPastNIsSkippedAndCounted) {
  const std::string trace_path = testing::TempDir() + "report_far_party.jsonl";
  auto spec = monitored_spec(harness::Protocol::kHybrid, 1);
  spec.trace_out = trace_path;
  (void)harness::execute(spec);
  std::string trace = slurp(trace_path);
  const auto to = trace.find(R"("to":)", trace.find(R"("ev":"send")"));
  ASSERT_NE(to, std::string::npos);
  trace.replace(to, trace.find(',', to) - to, R"("to":20000)");

  std::istringstream in(trace);
  std::ostringstream out;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_GT(obs::render_report(in, "", {}, out), 0u);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_NE(out.str().find(" 1 line(s) skipped"), std::string::npos) << out.str().substr(0, 300);
  EXPECT_EQ(out.str().find("| 20000 |"), std::string::npos);
  std::remove(trace_path.c_str());
}

TEST(Report, EmptyTraceReturnsZeroEvents) {
  std::istringstream trace("");
  std::ostringstream out;
  EXPECT_EQ(obs::render_report(trace, "", {}, out), 0u);
}

}  // namespace
