// Parallel experiment engine: determinism (a parallel sweep's per-run
// outputs are byte-identical to a sequential one), progress callbacks,
// per-cell aggregation, the summary JSON, obs::Context isolation, and
// concurrent ThreadNetwork instances staying independent.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "geometry/convex.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "protocols/aa.hpp"
#include "sim/delay.hpp"
#include "transport/thread_net.hpp"

using namespace hydra;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

harness::RunSpec small_spec(std::uint64_t seed, harness::Network network) {
  harness::RunSpec spec;
  spec.params.n = 5;
  spec.params.ts = 1;
  spec.params.ta = 1;
  spec.params.dim = 2;
  spec.params.eps = 1e-2;
  spec.params.delta = 1000;
  spec.network = network;
  spec.adversary = harness::Adversary::kSilent;
  spec.corruptions = 1;
  spec.seed = seed;
  return spec;
}

// ------------------------------------------------------------------- engine

TEST(Sweep, ResolveJobs) {
  EXPECT_EQ(harness::resolve_jobs(3), 3u);
  EXPECT_GE(harness::resolve_jobs(0), 1u);
}

TEST(Sweep, EmptyGridReturnsEmpty) {
  EXPECT_TRUE(harness::run_sweep({}, 4).empty());
}

// The tentpole contract: per (spec, seed) the parallel engine produces the
// same results and the same output files as sequential execution, byte for
// byte. (Wall-clock timings live in the hydra-perf-v1 side channel, never in
// the metrics document, so no carve-out is needed.)
TEST(Sweep, ParallelMatchesSequentialByteForByte) {
  const std::string dir = testing::TempDir();
  std::vector<harness::RunSpec> grid_seq;
  std::vector<harness::RunSpec> grid_par;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const auto network :
         {harness::Network::kSyncJitter, harness::Network::kAsyncReorder}) {
      auto spec = small_spec(seed, network);
      const std::string tag =
          "s" + std::to_string(seed) + "_" + harness::to_string(network);
      spec.trace_out = dir + "sweep_seq_" + tag + ".jsonl";
      spec.metrics_out = dir + "sweep_seq_" + tag + ".json";
      grid_seq.push_back(spec);
      spec.trace_out = dir + "sweep_par_" + tag + ".jsonl";
      spec.metrics_out = dir + "sweep_par_" + tag + ".json";
      grid_par.push_back(spec);
    }
  }

  const auto seq = harness::run_sweep(grid_seq, 1);
  const auto par = harness::run_sweep(grid_par, 4);
  ASSERT_EQ(seq.size(), par.size());

  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].verdict.d_aa(), par[i].verdict.d_aa()) << i;
    EXPECT_EQ(seq[i].verdict.output_diameter, par[i].verdict.output_diameter) << i;
    EXPECT_EQ(seq[i].rounds, par[i].rounds) << i;
    EXPECT_EQ(seq[i].messages, par[i].messages) << i;
    EXPECT_EQ(seq[i].bytes, par[i].bytes) << i;
    EXPECT_EQ(seq[i].safe_area_fallbacks, par[i].safe_area_fallbacks) << i;

    // Simulator traces carry virtual time only: byte-identical.
    const std::string trace_seq = slurp(grid_seq[i].trace_out);
    ASSERT_FALSE(trace_seq.empty()) << grid_seq[i].trace_out;
    EXPECT_EQ(trace_seq, slurp(grid_par[i].trace_out)) << i;

    // Metrics snapshots are fully deterministic: byte-identical too.
    const std::string metrics_seq = slurp(grid_seq[i].metrics_out);
    ASSERT_FALSE(metrics_seq.empty()) << grid_seq[i].metrics_out;
    EXPECT_EQ(metrics_seq, slurp(grid_par[i].metrics_out)) << i;

    std::remove(grid_seq[i].trace_out.c_str());
    std::remove(grid_seq[i].metrics_out.c_str());
    std::remove(grid_par[i].trace_out.c_str());
    std::remove(grid_par[i].metrics_out.c_str());
  }
}

TEST(Sweep, ProgressCallbackCoversEveryIndexOnce) {
  std::vector<harness::RunSpec> grid;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    grid.push_back(small_spec(seed, harness::Network::kSyncJitter));
  }
  std::vector<int> seen(grid.size(), 0);
  const auto results =
      harness::run_sweep(grid, 3, [&](std::size_t index, const harness::RunResult& r) {
        // Serialized by the engine; `seen` needs no extra lock.
        ASSERT_LT(index, seen.size());
        seen[index] += 1;
        EXPECT_TRUE(r.verdict.d_aa());
      });
  ASSERT_EQ(results.size(), grid.size());
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], 1) << i;
}

// --------------------------------------------------------------- aggregation

TEST(Sweep, GroupCellsSplitsBySpecAndCollectsFailedSeeds) {
  std::vector<harness::RunSpec> grid;
  std::vector<harness::RunResult> results;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const auto network :
         {harness::Network::kSyncJitter, harness::Network::kAsyncExponential}) {
      grid.push_back(small_spec(seed, network));
      harness::RunResult r;
      // Fabricated verdicts: seed 2 of the async cell fails.
      r.verdict.live = r.verdict.valid = r.verdict.agreed =
          !(network == harness::Network::kAsyncExponential && seed == 2);
      results.push_back(r);
    }
  }
  const auto cells = harness::group_cells(grid, results);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].indices.size(), 3u);
  EXPECT_EQ(cells[0].passed, 3u);
  EXPECT_TRUE(cells[0].failed_seeds.empty());
  EXPECT_EQ(cells[1].passed, 2u);
  ASSERT_EQ(cells[1].failed_seeds.size(), 1u);
  EXPECT_EQ(cells[1].failed_seeds[0], 2u);
}

TEST(Sweep, SummaryJsonHasCellsAndFailures) {
  std::vector<harness::RunSpec> grid;
  std::vector<harness::RunResult> results;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    grid.push_back(small_spec(seed, harness::Network::kSyncJitter));
    harness::RunResult r;
    r.verdict.live = r.verdict.valid = r.verdict.agreed = seed == 1;
    r.rounds = 4.0;
    r.messages = 100 + seed;
    results.push_back(r);
  }

  const std::string path = testing::TempDir() + "sweep_summary.json";
  ASSERT_TRUE(harness::write_sweep_summary_json(path, grid, results, 2));
  const std::string json = slurp(path);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"jobs\":2"), std::string::npos);
  EXPECT_NE(json.find("\"runs\":2"), std::string::npos);
  EXPECT_NE(json.find("\"passed\":1"), std::string::npos);
  EXPECT_NE(json.find("\"cells\":["), std::string::npos);
  EXPECT_NE(json.find("\"protocol\":\"hybrid\""), std::string::npos);
  EXPECT_NE(json.find("\"failed_seeds\":[2]"), std::string::npos);
  EXPECT_NE(json.find("\"failures\":[{\"cell\":0,\"seed\":2}]"), std::string::npos);
  std::remove(path.c_str());

  EXPECT_FALSE(harness::write_sweep_summary_json(
      testing::TempDir() + "no_such_dir/x.json", grid, results, 2));
}

// Regression: cell_key once omitted max_time, us_per_tick and timeout_ms, so
// a grid that varied ONLY a runtime bound collapsed into one cell and the
// summary silently averaged across genuinely different configurations.
TEST(Sweep, CellKeyDistinguishesRuntimeBounds) {
  const auto base = small_spec(1, harness::Network::kSyncJitter);
  for (const auto mutate : {+[](harness::RunSpec& s) { s.timeout_ms += 1000; },
                            +[](harness::RunSpec& s) { s.max_time += 1; },
                            +[](harness::RunSpec& s) { s.us_per_tick *= 2.0; }}) {
    auto other = base;
    mutate(other);
    const std::vector<harness::RunSpec> grid{base, other};
    const std::vector<harness::RunResult> results(2);
    EXPECT_EQ(harness::group_cells(grid, results).size(), 2u);
  }
  // Sanity: seed alone must NOT split a cell.
  const std::vector<harness::RunSpec> same_cell{
      small_spec(1, harness::Network::kSyncJitter),
      small_spec(2, harness::Network::kSyncJitter)};
  const std::vector<harness::RunResult> results(2);
  EXPECT_EQ(harness::group_cells(same_cell, results).size(), 1u);
}

// ----------------------------------------------------- satellite regressions

// n = 4, ts = 1, D = 2: the old baseline forced ta = ts = 1, violating
// (D+1) ts + ta < n (3 + 1 = 4) and aborting via HYDRA_ASSERT. The runner
// now derives the largest feasible ta (here 0) instead.
TEST(Sweep, AsyncMhBaselineDerivesFeasibleTa) {
  harness::RunSpec spec;
  spec.params.n = 4;
  spec.params.ts = 1;
  spec.params.ta = 0;
  spec.params.dim = 2;
  spec.params.eps = 1e-2;
  spec.params.delta = 1000;
  spec.protocol = harness::Protocol::kAsyncMh;
  spec.network = harness::Network::kSyncJitter;
  spec.adversary = harness::Adversary::kNone;
  spec.corruptions = 0;
  spec.seed = 11;
  const auto result = harness::execute(spec);
  EXPECT_TRUE(result.verdict.d_aa());
}

// Degenerate geometry (t = 0, collinear and duplicate-heavy inputs) through
// the parallel path: the safe-area code must not crash, and its fallback
// count stays per-run.
TEST(Sweep, DegenerateWorkloadsUnderParallelPath) {
  std::vector<harness::RunSpec> grid;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    for (const auto workload :
         {harness::Workload::kCollinear, harness::Workload::kClustered}) {
      harness::RunSpec spec;
      spec.params.n = 4;
      spec.params.ts = 0;
      spec.params.ta = 0;
      spec.params.dim = 2;
      spec.params.eps = 1e-2;
      spec.params.delta = 1000;
      spec.workload = workload;
      spec.workload_scale = 10.0;
      spec.network = harness::Network::kSyncJitter;
      spec.seed = seed;
      grid.push_back(spec);
    }
  }
  const auto results = harness::run_sweep(grid, 4);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].verdict.d_aa()) << i;
  }
}

// ------------------------------------------------------------- obs contexts

TEST(ObsContext, ScopedContextIsolatesRegistryAndFallbacks) {
  obs::Registry mine;
  obs::Context ctx;
  ctx.registry = &mine;
  ctx.enabled = true;
  {
    const obs::ScopedContext scope(&ctx);
    EXPECT_TRUE(obs::enabled());
    EXPECT_EQ(&obs::registry(), &mine);
    obs::registry().counter("ctx.test").inc(3);
    obs::current_context()->safe_area_fallbacks.fetch_add(2);
    {
      // Nested install restores the outer context on exit.
      const obs::ScopedContext inner(nullptr);
      EXPECT_FALSE(obs::enabled());
    }
    EXPECT_EQ(&obs::registry(), &mine);
  }

  EXPECT_FALSE(obs::enabled());
  EXPECT_EQ(mine.counter("ctx.test").value(), 3u);
  EXPECT_EQ(ctx.safe_area_fallbacks.load(), 2u);
}

// Monitors live inside each run's obs::Context, so a parallel sweep must
// attribute violations to exactly the runs whose spec injects the fault —
// identical counts to the sequential sweep, with the clean half untouched.
TEST(ObsContext, MonitorsAreIsolatedAcrossParallelSweepRuns) {
  std::vector<harness::RunSpec> grid;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto spec = small_spec(seed, harness::Network::kSyncJitter);
    spec.monitors = obs::MonitorMode::kRecord;
    // Fault half the grid: odd seeds use the deliberately faulty aggregation.
    if (seed % 2 == 1) spec.params.test_faulty_escape = 50.0;
    grid.push_back(spec);
  }

  const auto seq = harness::run_sweep(grid, 1);
  const auto par = harness::run_sweep(grid, 4);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].monitor_violations, par[i].monitor_violations) << i;
    if (grid[i].params.test_faulty_escape != 0.0) {
      EXPECT_GT(par[i].monitor_violations, 0u) << i;
    } else {
      EXPECT_EQ(par[i].monitor_violations, 0u) << i;  // no cross-run bleed
    }
  }

  // The summary JSON totals the per-run counts.
  const std::string path = testing::TempDir() + "sweep_monitor_summary.json";
  ASSERT_TRUE(harness::write_sweep_summary_json(path, grid, par, 4));
  const std::string json = slurp(path);
  std::uint64_t expected = 0;
  for (const auto& r : par) expected += r.monitor_violations;
  EXPECT_NE(json.find("\"monitor_violations\":" + std::to_string(expected)),
            std::string::npos);
  std::remove(path.c_str());
}

// ------------------------------------------------- concurrent thread networks

// Two ThreadNetwork instances running at the same time must keep fully
// independent stats and sequence numbers (the old function-local static seq
// counter was shared across instances).
TEST(ConcurrentNetworks, IndependentInstancesReachAgreement) {
  using protocols::AaParty;
  protocols::Params params;
  params.n = 4;
  params.ts = 1;
  params.ta = 0;
  params.dim = 2;
  params.eps = 1e-2;
  params.delta = 500;

  std::vector<geo::Vec> inputs;
  Rng rng(99);
  for (std::size_t i = 0; i < params.n; ++i) {
    geo::Vec v(params.dim, 0.0);
    for (std::size_t d = 0; d < params.dim; ++d) v[d] = rng.next_double(-5.0, 5.0);
    inputs.push_back(std::move(v));
  }

  const auto finished = [](const sim::IParty& party, PartyId) {
    return static_cast<const AaParty&>(party).has_output();
  };

  struct Outcome {
    net::BackendStats stats;
    double diameter = 1e9;
  };
  std::vector<Outcome> outcomes(2);
  std::vector<std::thread> drivers;
  for (std::size_t k = 0; k < 2; ++k) {
    drivers.emplace_back([&, k] {
      transport::ThreadNetwork net(
          {.n = params.n, .delta = params.delta, .seed = k + 1, .us_per_tick = 20.0},
          std::make_unique<sim::UniformDelay>(1, params.delta / 4));
      std::vector<std::unique_ptr<sim::IParty>> parties;
      std::vector<AaParty*> raw;
      for (std::size_t i = 0; i < params.n; ++i) {
        auto p = std::make_unique<AaParty>(params, inputs[i]);
        raw.push_back(p.get());
        parties.push_back(std::move(p));
      }
      outcomes[k].stats = net.run(parties, finished);
      std::vector<geo::Vec> outputs;
      for (auto* p : raw) {
        if (p->has_output()) outputs.push_back(p->output());
      }
      if (outputs.size() == params.n) outcomes[k].diameter = geo::diameter(outputs);
    });
  }
  for (auto& t : drivers) t.join();

  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_FALSE(outcomes[k].stats.timed_out) << k;
    EXPECT_GT(outcomes[k].stats.wire.messages, 0u) << k;
    EXPECT_LE(outcomes[k].diameter, params.eps + 1e-9) << k;
  }
}

}  // namespace
