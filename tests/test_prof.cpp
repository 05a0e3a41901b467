// Semantics of the scoped-phase profiler (obs/prof.hpp): nesting and the
// self/total split, aggregation by name, per-context isolation under
// concurrent threads (the suite carries the `prof` label so the TSan/ASan
// presets run it), the disabled no-op, and the determinism contract — phase
// COUNTS are a pure function of (spec, seed) on the simulator backend even
// though the nanosecond fields are wall clock.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness/perf.hpp"
#include "harness/runner.hpp"
#include "net/wire_stats.hpp"
#include "obs/context.hpp"
#include "obs/prof.hpp"

using namespace hydra;

namespace {

/// Snapshot keyed by name, for convenient lookups.
std::map<std::string, obs::Profiler::Snapshot> by_name(const obs::Profiler& prof) {
  std::map<std::string, obs::Profiler::Snapshot> out;
  for (auto& s : prof.snapshot()) out.emplace(s.name, std::move(s));
  return out;
}

void spin_at_least(std::chrono::nanoseconds dur) {
  const auto until = std::chrono::steady_clock::now() + dur;
  while (std::chrono::steady_clock::now() < until) {
  }
}

}  // namespace

TEST(Prof, DisabledScopesRecordNothing) {
  ASSERT_FALSE(obs::prof_enabled());
  {
    HYDRA_PROF_SCOPE("phantom");
    HYDRA_PROF_SCOPE("phantom.child");
  }
  obs::Profiler prof;  // never installed; scopes above had nowhere to go
  EXPECT_TRUE(prof.snapshot().empty());
}

TEST(Prof, ScopedContextInstallsAndRestores) {
  obs::Profiler prof;
  obs::Context ctx;
  ctx.profiler = &prof;
  EXPECT_FALSE(obs::prof_enabled());
  {
    const obs::ScopedContext scope(&ctx);
    EXPECT_TRUE(obs::prof_enabled());
    EXPECT_EQ(obs::profiler(), &prof);
    HYDRA_PROF_SCOPE("inside");
  }
  EXPECT_FALSE(obs::prof_enabled());
  const auto phases = by_name(prof);
  ASSERT_TRUE(phases.contains("inside"));
  EXPECT_EQ(phases.at("inside").count, 1u);
}

TEST(Prof, AggregatesByNameAcrossInvocations) {
  obs::Profiler prof;
  obs::Context ctx{.profiler = &prof};
  std::optional<obs::ScopedContext> scope(std::in_place, &ctx);
  constexpr int kReps = 100;
  for (int i = 0; i < kReps; ++i) {
    HYDRA_PROF_SCOPE("loop.body");
  }
  scope.reset();
  const auto phases = by_name(prof);
  ASSERT_TRUE(phases.contains("loop.body"));
  const auto& s = phases.at("loop.body");
  EXPECT_EQ(s.count, kReps);
  EXPECT_LE(s.min_ns, s.max_ns);
  EXPECT_GE(s.total_ns, s.max_ns);
  EXPECT_EQ(s.self_ns, s.total_ns);  // leaf scope: no children to subtract
  std::uint64_t bucket_total = 0;
  for (const auto b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);  // every sample lands in exactly one bucket
}

TEST(Prof, NestingChargesChildTimeToParentSelf) {
  obs::Profiler prof;
  obs::Context ctx{.profiler = &prof};
  std::optional<obs::ScopedContext> scope(std::in_place, &ctx);
  {
    HYDRA_PROF_SCOPE("parent");
    {
      HYDRA_PROF_SCOPE("child");
      spin_at_least(std::chrono::milliseconds(2));
    }
  }
  scope.reset();
  const auto phases = by_name(prof);
  ASSERT_TRUE(phases.contains("parent"));
  ASSERT_TRUE(phases.contains("child"));
  const auto& parent = phases.at("parent");
  const auto& child = phases.at("child");
  // Total includes the child; self excludes it. The parent body is a few
  // scope constructions, so nearly all of its total is child time.
  EXPECT_GE(parent.total_ns, child.total_ns);
  EXPECT_LE(parent.self_ns, parent.total_ns - child.total_ns / 2);
  EXPECT_EQ(child.self_ns, child.total_ns);
  EXPECT_GE(child.total_ns, 2'000'000u);  // the 2 ms spin
}

TEST(Prof, RecursiveSameNameAggregatesUnderOneKey) {
  obs::Profiler prof;
  obs::Context ctx{.profiler = &prof};
  std::optional<obs::ScopedContext> scope(std::in_place, &ctx);
  const std::function<void(int)> recurse = [&recurse](int depth) {
    HYDRA_PROF_SCOPE("recurse");
    if (depth > 0) recurse(depth - 1);
  };
  recurse(4);
  scope.reset();
  const auto phases = by_name(prof);
  ASSERT_TRUE(phases.contains("recurse"));
  const auto& s = phases.at("recurse");
  EXPECT_EQ(s.count, 5u);
  // Inner invocations are charged as children of the outer ones, so the
  // summed self time cannot exceed the outermost invocation's share.
  EXPECT_LE(s.self_ns, s.total_ns);
}

TEST(Prof, ResetDropsEverything) {
  obs::Profiler prof;
  obs::Context ctx{.profiler = &prof};
  std::optional<obs::ScopedContext> scope(std::in_place, &ctx);
  { HYDRA_PROF_SCOPE("ephemeral"); }
  scope.reset();
  EXPECT_FALSE(prof.snapshot().empty());
  prof.reset();
  EXPECT_TRUE(prof.snapshot().empty());
}

TEST(Prof, BucketOfLandsSamplesInLog2Buckets) {
  using P = obs::Profiler::PhaseStats;
  EXPECT_EQ(P::bucket_of(0), 0u);
  EXPECT_EQ(P::bucket_of(1), 1u);
  EXPECT_EQ(P::bucket_of(2), 2u);
  EXPECT_EQ(P::bucket_of(3), 2u);
  EXPECT_EQ(P::bucket_of(4), 3u);
  EXPECT_EQ(P::bucket_of(1023), 10u);
  EXPECT_EQ(P::bucket_of(1024), 11u);
  EXPECT_EQ(P::bucket_of(UINT64_MAX), obs::Profiler::kBuckets - 1);
}

// The profiler's buckets and the transport's sit one bucket apart; bucketed
// through each layout's own bucket_of, the same samples must read the same
// p50, p95 and max, each inside the range of the samples it stands for.
TEST(Prof, Log2BucketPercentileReadsBothLayoutsAlike) {
  const std::vector<std::uint64_t> samples{1, 1, 1, 1, 3, 3, 3, 3, 3, 3,
                                           3, 3, 3, 3, 6, 6, 6, 6, 6, 12};
  std::vector<std::uint64_t> prof(obs::Profiler::kBuckets, 0);
  std::vector<std::uint64_t> transport(net::TransportHealth::kBuckets, 0);
  for (const auto v : samples) {
    ++prof[obs::Profiler::PhaseStats::bucket_of(v)];
    ++transport[net::TransportHealth::bucket_of(v)];
  }
  EXPECT_EQ(prof[2], 10u);       // [2, 4)
  EXPECT_EQ(transport[1], 10u);  // the same range, one bucket lower
  for (const auto& [b, shift] :
       {std::pair{&prof, obs::Profiler::kBucketShift},
        std::pair{&transport, net::TransportHealth::kBucketShift}}) {
    // Nearest rank over 20 samples: p50 = 10th (a 3), p95 = 19th (a 6),
    // max = 20th (the 12); each read at its bucket's geometric midpoint.
    EXPECT_DOUBLE_EQ(obs::log2_bucket_percentile(*b, 50.0, shift), std::exp2(1.5));
    EXPECT_DOUBLE_EQ(obs::log2_bucket_percentile(*b, 95.0, shift), std::exp2(2.5));
    EXPECT_DOUBLE_EQ(obs::log2_bucket_percentile(*b, 100.0, shift), std::exp2(3.5));
  }
  EXPECT_EQ(obs::log2_bucket_percentile(std::vector<std::uint64_t>(8, 0), 50.0, 0),
            0.0);
}

TEST(Prof, SnapshotIsSortedByName) {
  obs::Profiler prof;
  obs::Context ctx{.profiler = &prof};
  std::optional<obs::ScopedContext> scope(std::in_place, &ctx);
  { HYDRA_PROF_SCOPE("zeta"); }
  { HYDRA_PROF_SCOPE("alpha"); }
  { HYDRA_PROF_SCOPE("mid"); }
  scope.reset();
  const auto snap = prof.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "alpha");
  EXPECT_EQ(snap[1].name, "mid");
  EXPECT_EQ(snap[2].name, "zeta");
}

// Two threads, each with its own Context + Profiler: recordings never leak
// across contexts, and a context-free thread records nowhere. Run under the
// TSan preset via the `prof` label.
TEST(Prof, PerContextIsolationAcrossThreads) {
  obs::Profiler prof_a;
  obs::Profiler prof_b;
  constexpr int kRepsA = 300;
  constexpr int kRepsB = 500;

  std::thread ta([&prof_a] {
    obs::Context ctx;
    ctx.profiler = &prof_a;
    const obs::ScopedContext scope(&ctx);
    for (int i = 0; i < kRepsA; ++i) {
      HYDRA_PROF_SCOPE("thread.a");
    }
  });
  std::thread tb([&prof_b] {
    obs::Context ctx;
    ctx.profiler = &prof_b;
    const obs::ScopedContext scope(&ctx);
    for (int i = 0; i < kRepsB; ++i) {
      HYDRA_PROF_SCOPE("thread.b");
    }
  });
  std::thread tc([] {  // no context: must record nowhere, race-free
    for (int i = 0; i < 100; ++i) {
      HYDRA_PROF_SCOPE("thread.c");
    }
  });
  ta.join();
  tb.join();
  tc.join();

  const auto a = by_name(prof_a);
  const auto b = by_name(prof_b);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a.at("thread.a").count, kRepsA);
  EXPECT_EQ(b.at("thread.b").count, kRepsB);
}

// Many threads hammering ONE profiler (the threads-backend shape: workers
// share the run's profiler through re-installed contexts). Counts must add
// up exactly; TSan must stay quiet.
TEST(Prof, SharedProfilerAcrossThreadsCountsExactly) {
  obs::Profiler prof;
  obs::Context ctx;
  ctx.profiler = &prof;
  constexpr int kThreads = 4;
  constexpr int kReps = 250;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&ctx] {
      const obs::ScopedContext scope(&ctx);
      for (int i = 0; i < kReps; ++i) {
        HYDRA_PROF_SCOPE("shared.work");
        HYDRA_PROF_SCOPE("shared.inner");
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto phases = by_name(prof);
  ASSERT_TRUE(phases.contains("shared.work"));
  ASSERT_TRUE(phases.contains("shared.inner"));
  EXPECT_EQ(phases.at("shared.work").count, kThreads * kReps);
  EXPECT_EQ(phases.at("shared.inner").count, kThreads * kReps);
}

// ---------------------------------------------------- determinism contract

namespace {

harness::RunSpec perf_spec(const std::string& perf_out) {
  harness::RunSpec spec;
  spec.params.n = 5;
  spec.params.ts = 1;
  spec.params.ta = 1;
  spec.params.dim = 2;
  spec.params.eps = 1e-2;
  spec.params.delta = 1000;
  spec.network = harness::Network::kSyncJitter;
  spec.adversary = harness::Adversary::kSilent;
  spec.corruptions = 1;
  spec.seed = 11;
  spec.perf_out = perf_out;
  return spec;
}

}  // namespace

TEST(Prof, PhaseCountsAreDeterministicPerSeed) {
  const std::string path_a = testing::TempDir() + "hydra_prof_a.json";
  const std::string path_b = testing::TempDir() + "hydra_prof_b.json";
  EXPECT_TRUE(harness::execute(perf_spec(path_a)).verdict.d_aa());
  EXPECT_TRUE(harness::execute(perf_spec(path_b)).verdict.d_aa());

  const auto rows_a = harness::load_perf_json(path_a);
  const auto rows_b = harness::load_perf_json(path_b);
  ASSERT_TRUE(rows_a.has_value());
  ASSERT_TRUE(rows_b.has_value());
  ASSERT_FALSE(rows_a->empty());

  // Same phases, same counts — the ns fields are wall clock and may differ.
  ASSERT_EQ(rows_a->size(), rows_b->size());
  for (std::size_t i = 0; i < rows_a->size(); ++i) {
    EXPECT_EQ((*rows_a)[i].name, (*rows_b)[i].name) << i;
    EXPECT_EQ((*rows_a)[i].count, (*rows_b)[i].count) << (*rows_a)[i].name;
  }

  // The instrumented layers all show up: protocol, geometry, net, sim.
  std::map<std::string, std::uint64_t> counts;
  for (const auto& r : *rows_a) counts[r.name] = r.count;
  EXPECT_TRUE(counts.contains("aa.rbc"));
  EXPECT_TRUE(counts.contains("geo.safe_area"));
  EXPECT_TRUE(counts.contains("net.deliver"));
  EXPECT_TRUE(counts.contains("sim.run"));
  EXPECT_EQ(counts["sim.run"], 1u);

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(Prof, PerfJsonStaysOutOfTraceAndMetrics) {
  const std::string trace = testing::TempDir() + "hydra_prof_trace.jsonl";
  const std::string metrics = testing::TempDir() + "hydra_prof_metrics.json";
  const std::string perf = testing::TempDir() + "hydra_prof_perf.json";
  auto spec = perf_spec(perf);
  spec.trace_out = trace;
  spec.metrics_out = metrics;
  EXPECT_TRUE(harness::execute(spec).verdict.d_aa());

  // No profiler output may contaminate the deterministic documents.
  const auto slurp = [](const std::string& path) {
    std::string out;
    if (FILE* f = std::fopen(path.c_str(), "rb")) {
      char buf[4096];
      std::size_t got = 0;
      while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, got);
      std::fclose(f);
    }
    return out;
  };
  const std::string trace_doc = slurp(trace);
  const std::string metrics_doc = slurp(metrics);
  ASSERT_FALSE(trace_doc.empty());
  ASSERT_FALSE(metrics_doc.empty());
  EXPECT_EQ(trace_doc.find("phases"), std::string::npos);
  EXPECT_EQ(metrics_doc.find("phases"), std::string::npos);
  EXPECT_EQ(metrics_doc.find("_ns\""), std::string::npos);

  const std::string perf_doc = slurp(perf);
  EXPECT_NE(perf_doc.find("\"schema\":\"hydra-perf-v1\""), std::string::npos);

  std::remove(trace.c_str());
  std::remove(metrics.c_str());
  std::remove(perf.c_str());
}
