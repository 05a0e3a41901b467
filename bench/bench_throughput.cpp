// T8 — Multi-instance throughput: thousands of concurrent AA instances
// multiplexed through one InstanceMux per party (src/serve/).
//
// Two measurements:
//   * sim: 1000 concurrent instances admitted at t=0 (live-peak must reach
//     the full count), reporting wall us/instance plus the deterministic
//     decision-latency p50/p99 in ticks. The sim pass runs twice and the
//     per-instance outcomes must match byte-for-byte — multiplexing may not
//     perturb the per-(spec,seed) schedule.
//   * threads: 256 instances on the real-thread transport (1 OS thread per
//     party), demonstrating the slab + routing layer is not a simulator
//     artifact.
//
// With --json PATH the measurements land in the shared hydra-bench-v1
// schema so `hydra perf --input` can gate instances/sec regressions in CI.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/assert.hpp"
#include "harness/perf.hpp"
#include "harness/table.hpp"
#include "serve/engine.hpp"

using namespace hydra;

namespace {

serve::ServeSpec make_spec(const std::string& backend, std::uint32_t instances) {
  serve::ServeSpec spec;
  spec.params.n = 5;
  spec.params.ts = 1;
  spec.params.ta = 1;
  spec.params.dim = 2;
  spec.params.eps = 1e-2;
  spec.params.delta = 200;
  spec.backend = backend;
  spec.instances = instances;
  spec.interarrival = 0;  // open the floodgates: every instance live at once
  spec.seed = 7;
  spec.us_per_tick = 5.0;
  spec.timeout_ms = 120'000;
  return spec;
}

/// The sim pass must be a pure function of (spec, seed): any divergence
/// between two runs means instance multiplexing leaked state across runs.
bool outcomes_identical(const serve::ServeResult& a, const serve::ServeResult& b) {
  if (a.outcomes.size() != b.outcomes.size() || a.messages != b.messages ||
      a.bytes != b.bytes || a.end_time != b.end_time) {
    return false;
  }
  for (std::size_t k = 0; k < a.outcomes.size(); ++k) {
    const auto& x = a.outcomes[k];
    const auto& y = b.outcomes[k];
    if (x.decided != y.decided || x.pass != y.pass ||
        x.decision_latency != y.decision_latency ||
        x.max_output_iteration != y.max_output_iteration ||
        x.output_diameter != y.output_diameter || x.messages != y.messages ||
        x.bytes != y.bytes) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::consume_json_path(argc, argv);

  std::printf("== T8: multi-instance throughput (InstanceMux, n=5 per instance) "
              "==\n\n");
  harness::Table table({"backend", "instances", "live-peak", "decided", "wall ms",
                        "inst/s", "p50 ticks", "p99 ticks", "late-drop", "pass"});
  std::vector<harness::BenchMetric> metrics;
  bool ok = true;

  // -------------------------------------------------------------- sim x2
  const auto sim_spec = make_spec("sim", 1000);
  const auto sim_a = serve::run_serve(sim_spec);
  const auto sim_b = serve::run_serve(sim_spec);
  const bool deterministic = outcomes_identical(sim_a, sim_b);
  if (!deterministic) {
    std::fprintf(stderr,
                 "bench_throughput: sim outcomes differ between identical "
                 "runs — multiplexing broke per-(spec,seed) determinism\n");
  }

  const auto thr_spec = make_spec("threads", 256);
  const auto thr = serve::run_serve(thr_spec);

  struct Row {
    const serve::ServeSpec* spec;
    const serve::ServeResult* result;
  };
  for (const auto& [spec, result] : {Row{&sim_spec, &sim_a}, Row{&thr_spec, &thr}}) {
    const double wall_s = static_cast<double>(result->wall_ms) / 1000.0;
    const double rate =
        wall_s > 0.0 ? static_cast<double>(result->decided) / wall_s : 0.0;
    const Time p50 = serve::latency_percentile(*result, 50.0);
    const Time p99 = serve::latency_percentile(*result, 99.0);
    const bool pass = result->decided == spec->instances && result->all_pass &&
                      result->live_peak == spec->instances;
    ok = ok && pass;
    table.row({spec->backend, harness::fmt(std::uint64_t{spec->instances}),
               harness::fmt(std::uint64_t{result->live_peak}),
               harness::fmt(std::uint64_t{result->decided}),
               harness::fmt(std::uint64_t(result->wall_ms)), harness::fmt(rate),
               harness::fmt(std::uint64_t(p50)), harness::fmt(std::uint64_t(p99)),
               harness::fmt(result->late_dropped), harness::fmt_ok(pass)});

    const double us_per_instance =
        result->decided > 0 ? static_cast<double>(result->wall_ms) * 1000.0 /
                                  static_cast<double>(result->decided)
                            : 0.0;
    metrics.push_back({"serve." + spec->backend + ".us_per_instance",
                       "us/instance", us_per_instance, result->decided});
    if (spec->backend == "sim") {
      // Tick-denominated latencies are deterministic — ideal gate metrics.
      metrics.push_back({"serve.sim.decision_p50_ticks", "ticks",
                         static_cast<double>(p50), result->decided});
      metrics.push_back({"serve.sim.decision_p99_ticks", "ticks",
                         static_cast<double>(p99), result->decided});
    }
  }
  table.print();
  std::printf("\nsim determinism (two identical runs, %zu outcomes): %s\n",
              sim_a.outcomes.size(), deterministic ? "byte-identical" : "DIVERGED");
  std::printf("Expectation: every instance decides, live-peak equals the "
              "admitted count, and the sim pass is reproducible.\n");

  if (!json_path.empty() &&
      !harness::write_bench_json(json_path, "bench_throughput", metrics)) {
    return 1;
  }
  return ok && deterministic ? 0 : 1;
}
