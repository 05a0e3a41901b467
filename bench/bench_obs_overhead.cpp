// Guardrail for the observability layer: with obs disabled, the simulator's
// hot path must cost < 2% over an uninstrumented event loop.
//
// There is no uninstrumented build to compare against, so
// obs_baseline_sim.{hpp,cpp} carries a replica of sim::Simulation's event
// loop — same Event struct, ordering, Env virtual dispatch, delay-model draw
// and queue discipline — with the `if (obs::enabled())` branches deleted,
// compiled in its own translation unit so both loops pay the same cross-TU
// inlining boundaries. Both run the same message-flood workload (PingParty:
// each party starts one token that travels the ring for a fixed number of hops);
// the gate statistic is the median ratio over back-to-back single-sim A/B
// pairs, which cancels CPU-frequency drift. Exits nonzero when the overhead
// bound is violated, so scripts can gate on it; deliberately NOT registered
// in ctest — wall-clock comparisons are too noisy for a tier-1 gate.
//
// A third loop runs with obs enabled and a record-mode invariant-monitor
// host installed, so the *monitored* overhead is reported alongside — the
// pass/fail gate stays on the disabled path only (monitors are opt-in).
// `--json PATH` writes the measurements in the shared hydra-bench-v1 schema
// (bench_json.hpp) as a machine-readable artifact for CI trend tracking.
//
// The profiler (obs/prof.hpp) is compiled into the instrumented loop but no
// Profiler is installed, so this bench also gates the profiler's DISABLED
// cost: every HYDRA_PROF_SCOPE on the measured path must stay within the
// same 2% budget (one thread-local load + branch each).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs_baseline_sim.hpp"
#include "sim/delay.hpp"
#include "sim/env.hpp"
#include "sim/simulation.hpp"

using namespace hydra;

namespace {

/// Self-perpetuating message chain; pure event-loop load, no protocol logic.
class PingParty : public sim::IParty {
 public:
  explicit PingParty(int hops) : hops_(hops) {}

  void start(sim::Env& env) override {
    env.send((env.self() + 1) % static_cast<PartyId>(env.n()),
             sim::Message{InstanceKey{1, 0, 0}, 0, {}});
  }

  void on_message(sim::Env& env, PartyId, const sim::Message& msg) override {
    if (static_cast<int>(msg.key.b) >= hops_) return;
    auto next = msg;
    next.key.b += 1;
    env.send((env.self() + 1) % static_cast<PartyId>(env.n()), next);
  }

  void on_timer(sim::Env&, std::uint64_t) override {}

 private:
  int hops_;
};

// -------------------------------------------------------------------- timing

constexpr std::size_t kParties = 16;
constexpr int kHops = 2000;
constexpr int kSimsPerTrial = 8;
constexpr int kTrials = 9;
constexpr int kPairs = kSimsPerTrial * kTrials;  ///< single-sim A/B pairs

std::uint64_t g_sink = 0;  ///< keeps run() results observable

/// One simulation of the instrumented loop (obs disabled), timed alone.
double time_one_instrumented() {
  const auto start = std::chrono::steady_clock::now();
  sim::Simulation sim({.n = kParties, .delta = 10, .seed = 1},
                      std::make_unique<sim::FixedDelay>(10));
  for (std::size_t p = 0; p < kParties; ++p) {
    sim.add_party(std::make_unique<PingParty>(kHops));
  }
  g_sink += sim.run().events;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// One simulation of the uninstrumented replica, timed alone.
double time_one_baseline() {
  const auto start = std::chrono::steady_clock::now();
  benchobs::BaselineSim sim({.n = kParties, .delta = 10, .seed = 1},
                  std::make_unique<sim::FixedDelay>(10));
  for (std::size_t p = 0; p < kParties; ++p) {
    sim.add_party(std::make_unique<PingParty>(kHops));
  }
  g_sink += sim.run();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Worst-case enabled path: obs on, record-mode monitors installed. The
/// PingParty workload exercises the per-delivery hooks (on_send + the
/// begin/end_dispatch bracket); there are no protocol values so the
/// geometry checks stay idle, which matches the cost monitors add to every
/// message of a real run.
double run_monitored() {
  obs::Registry registry;
  obs::MonitorHost monitors(obs::MonitorHost::Config{
      .mode = obs::MonitorMode::kRecord,
      .n = kParties,
      .ts = 0,
      .ta = 0,
      .dim = 1,
      .eps = 1.0,
      .honest = std::vector<bool>(kParties, true),
      .honest_inputs = {},
  });
  obs::Context ctx;
  ctx.registry = &registry;
  ctx.monitors = &monitors;
  ctx.enabled = true;
  const obs::ScopedContext scope(&ctx);

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kSimsPerTrial; ++i) {
    sim::Simulation sim({.n = kParties, .delta = 10, .seed = 1},
                        std::make_unique<sim::FixedDelay>(10));
    for (std::size_t p = 0; p < kParties; ++p) {
      sim.add_party(std::make_unique<PingParty>(kHops));
    }
    g_sink += sim.run().events;
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = hydra::bench::consume_json_path(argc, argv);
  if (argc != 1) {
    std::fprintf(stderr, "usage: bench_obs_overhead [--json PATH]\n");
    return 2;
  }

  // No context is installed, so obs is off: the pass/fail claim is about the
  // DISABLED path.
  HYDRA_ASSERT(!obs::enabled());

  // Warmup: fault in code, populate allocator caches for all loops.
  for (int i = 0; i < kSimsPerTrial; ++i) {
    time_one_baseline();
    time_one_instrumented();
  }

  // Single-sim A/B pairs, MEDIAN ratio across pairs. Comparing global minima
  // (best baseline vs best instrumented) lets a CPU-frequency burst during
  // one loop but not the other fabricate an overhead; pairing at the finest
  // granularity (one ~3 ms simulation each, back to back) keeps both sides
  // of a pair inside the same frequency/thermal phase, and alternating which
  // side runs first cancels the residual position bias. The median over the
  // pairs is then robust in both directions: machine noise scatters ratios
  // symmetrically around 1, while a genuine instrumentation cost shifts
  // every ratio. A shared CI machine can still contaminate one whole
  // measurement with transient load, so the gate allows up to three
  // attempts and keeps the best — a real regression fails all of them.
  const auto measure_pairs = [](double& base_out, double& inst_out) {
    std::vector<double> ratios;
    ratios.reserve(kPairs);
    double base_total = 0.0;
    double inst_total = 0.0;
    for (int t = 0; t < kPairs; ++t) {
      double base = 0.0;
      double inst = 0.0;
      if (t % 2 == 0) {
        base = time_one_baseline();
        inst = time_one_instrumented();
      } else {
        inst = time_one_instrumented();
        base = time_one_baseline();
      }
      ratios.push_back(inst / base);
      base_total += base;
      inst_total += inst;
    }
    std::sort(ratios.begin(), ratios.end());
    // Per-trial (kSimsPerTrial sims) means, for display/JSON.
    base_out = base_total / kTrials;
    inst_out = inst_total / kTrials;
    return ratios[ratios.size() / 2];
  };

  constexpr double kBudget = 0.02;
  constexpr int kMaxAttempts = 3;
  double best_base = 0.0;
  double best_inst = 0.0;
  double best_ratio = measure_pairs(best_base, best_inst);
  for (int a = 1; a < kMaxAttempts && best_ratio - 1.0 >= kBudget; ++a) {
    double base = 0.0;
    double inst = 0.0;
    const double ratio = measure_pairs(base, inst);
    if (ratio < best_ratio) {
      best_ratio = ratio;
      best_base = base;
      best_inst = inst;
    }
  }

  // The monitored loop is informational (not gated), so it runs after the
  // gated pairs to leave their trial cadence untouched.
  double best_mon = 1e9;
  run_monitored();
  for (int t = 0; t < kTrials; ++t) {
    best_mon = std::min(best_mon, run_monitored());
  }

  const double overhead = best_ratio - 1.0;
  const double mon_overhead = best_mon / best_base - 1.0;
  std::printf("obs-disabled overhead: %.2f%%  (median ratio over %d A/B pairs; "
              "mean instrumented %.1f ms, mean baseline %.1f ms per %d sims; "
              "%llu events)\n",
              overhead * 100.0, kPairs, best_inst * 1e3, best_base * 1e3,
              kSimsPerTrial, static_cast<unsigned long long>(g_sink));
  std::printf("monitors-on overhead:  %.2f%%  (monitored %.1f ms; informational, "
              "not gated)\n",
              mon_overhead * 100.0, best_mon * 1e3);
  const bool pass = overhead < kBudget;

  if (!json_path.empty()) {
    // hydra-bench-v1, like every other bench. The gate statistic is the
    // ratio metric; the ms rows give it scale. Units are lower-is-better by
    // schema convention, which holds for all of these.
    const std::vector<hydra::harness::BenchMetric> metrics{
        {.name = "obs.disabled_overhead",
         .unit = "ratio",
         .value = overhead,
         .repetitions = kPairs},
        {.name = "obs.monitor_overhead",
         .unit = "ratio",
         .value = mon_overhead,
         .repetitions = kTrials},
        {.name = "obs.baseline",
         .unit = "ms/trial",
         .value = best_base * 1e3,
         .repetitions = kPairs},
        {.name = "obs.disabled",
         .unit = "ms/trial",
         .value = best_inst * 1e3,
         .repetitions = kPairs},
        {.name = "obs.monitored",
         .unit = "ms/trial",
         .value = best_mon * 1e3,
         .repetitions = kTrials},
    };
    if (!hydra::harness::write_bench_json(json_path, "obs_overhead", metrics)) {
      return 2;
    }
  }

  if (!pass) {
    std::printf("FAIL: disabled-path overhead >= 2%%\n");
    return 1;
  }
  std::printf("OK: below the 2%% budget\n");
  return 0;
}
