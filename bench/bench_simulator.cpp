// T10 — Substrate microbenchmarks: raw simulator and protocol-stack costs.
//
// Not a paper experiment but the capacity envelope of the testbed itself:
// how many simulated events per second the discrete-event core sustains,
// what one reliable broadcast / one ΠoBC round / one full ΠAA run cost, and
// how that scales with n. Useful when sizing larger sweeps.
//
// `--json PATH` switches to CI mode: two fixed workloads (raw event-loop
// ns/event, one full ΠAA run in ms) measured with harness::time_rate and
// written as hydra-bench-v1 JSON, gated against
// bench/baselines/BENCH_simulator.json by `hydra perf --input`. The
// google-benchmark suite is skipped in that mode.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "bench_json.hpp"
#include "harness/runner.hpp"
#include "harness/table.hpp"
#include "sim/delay.hpp"
#include "sim/env.hpp"
#include "sim/simulation.hpp"

using namespace hydra;

namespace {

/// Minimal ping party: floods k self-perpetuating messages, used to measure
/// the raw event-loop overhead without protocol logic.
class PingParty : public sim::IParty {
 public:
  explicit PingParty(int hops, std::size_t payload_bytes = 0)
      : hops_(hops), payload_bytes_(payload_bytes) {}

  void start(sim::Env& env) override {
    env.send((env.self() + 1) % static_cast<PartyId>(env.n()),
             sim::Message{InstanceKey{1, 0, 0}, 0, Bytes(payload_bytes_, 0xab)});
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
  std::size_t payload_bytes_;
};

void BM_EventLoopThroughput(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulation sim({.n = n, .delta = 10, .seed = 1},
                        std::make_unique<sim::FixedDelay>(10));
    for (std::size_t i = 0; i < n; ++i) {
      sim.add_party(std::make_unique<PingParty>(200));
    }
    const auto stats = sim.run();
    events += stats.events;
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventLoopThroughput)->Arg(4)->Arg(16)->Arg(64);

/// Same ping topology but each message drags a payload. Events whose
/// closures own a heap buffer are exactly where the event loop's
/// move-on-pop (vs. copy-then-pop) discipline shows up: with a copying
/// pop every dequeue clones the payload once for nothing.
void BM_EventLoopThroughputPayload(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto payload_bytes = static_cast<std::size_t>(state.range(1));
  std::uint64_t events = 0;
  std::uint64_t moved_bytes = 0;
  for (auto _ : state) {
    sim::Simulation sim({.n = n, .delta = 10, .seed = 1},
                        std::make_unique<sim::FixedDelay>(10));
    for (std::size_t i = 0; i < n; ++i) {
      sim.add_party(std::make_unique<PingParty>(200, payload_bytes));
    }
    const auto stats = sim.run();
    events += stats.events;
    moved_bytes += stats.bytes;
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["payload_B/s"] = benchmark::Counter(
      static_cast<double>(moved_bytes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventLoopThroughputPayload)
    ->Args({16, 0})
    ->Args({16, 1024})
    ->Args({16, 16384});

void BM_FullAaRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    harness::RunSpec spec;
    spec.params.n = n;
    spec.params.ts = 1;
    spec.params.ta = (dim + 1) * 1 + 1 < n ? 1 : 0;
    spec.params.dim = dim;
    spec.params.eps = 1e-2;
    spec.params.delta = 1000;
    spec.network = harness::Network::kSyncJitter;
    spec.adversary = harness::Adversary::kSilent;
    spec.corruptions = 1;
    spec.seed = 7;
    benchmark::DoNotOptimize(harness::execute(spec));
  }
}
BENCHMARK(BM_FullAaRun)->Args({4, 2})->Args({8, 2})->Args({6, 3});

void BM_FullAaRunAsync(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    harness::RunSpec spec;
    spec.params.n = n;
    spec.params.ts = 1;
    spec.params.ta = 1;
    spec.params.dim = 2;
    spec.params.eps = 1e-2;
    spec.params.delta = 1000;
    spec.network = harness::Network::kAsyncReorder;
    spec.adversary = harness::Adversary::kSilent;
    spec.corruptions = 1;
    spec.seed = 7;
    benchmark::DoNotOptimize(harness::execute(spec));
  }
}
BENCHMARK(BM_FullAaRunAsync)->Arg(5)->Arg(8);

/// The CI measurement: the two numbers that size larger sweeps — what one
/// simulated event costs on the lean (obs-disabled) loop, and what one full
/// ΠAA run costs end to end.
std::vector<harness::BenchMetric> measure_simulator() {
  std::vector<harness::BenchMetric> out;

  {  // Raw event-loop throughput, as ns/event (16 parties, message flood).
    std::uint64_t events_per_run = 0;
    const auto run_once = [&events_per_run] {
      sim::Simulation sim({.n = 16, .delta = 10, .seed = 1},
                          std::make_unique<sim::FixedDelay>(10));
      for (std::size_t p = 0; p < 16; ++p) {
        sim.add_party(std::make_unique<PingParty>(200));
      }
      events_per_run = sim.run().events;
    };
    run_once();  // pin the (deterministic) event count before timing
    const auto rate = harness::time_rate(run_once);
    out.push_back({.name = "sim.event_loop",
                   .unit = "ns/event",
                   .value = rate.seconds_per_rep * 1e9 /
                            static_cast<double>(events_per_run),
                   .repetitions = rate.repetitions});
  }
  {  // One full hybrid ΠAA run (n=6, D=2, silent adversary), in ms.
    harness::RunSpec spec;
    spec.params.n = 6;
    spec.params.ts = 1;
    spec.params.ta = 1;
    spec.params.dim = 2;
    spec.params.eps = 1e-2;
    spec.params.delta = 1000;
    spec.network = harness::Network::kSyncJitter;
    spec.adversary = harness::Adversary::kSilent;
    spec.corruptions = 1;
    spec.seed = 7;
    const auto rate = harness::time_rate([&spec] {
      const auto result = harness::execute(spec);
      if (!result.verdict.d_aa()) std::abort();
    });
    out.push_back({.name = "sim.full_aa_run",
                   .unit = "ms/run",
                   .value = rate.seconds_per_rep * 1e3,
                   .repetitions = rate.repetitions});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = hydra::bench::consume_json_path(argc, argv);
  if (!json_path.empty()) {
    const auto metrics = measure_simulator();
    harness::Table table({"metric", "unit", "value", "repetitions"});
    for (const auto& m : metrics) {
      table.row({m.name, m.unit, harness::fmt(m.value),
                 harness::fmt(m.repetitions)});
    }
    table.print();
    return harness::write_bench_json(json_path, "simulator", metrics) ? 0 : 1;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
