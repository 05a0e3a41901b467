// One side of bench_obs_overhead: a child process that times simulations on
// request. bench/CMakeLists.txt builds it twice: as
// bench_obs_overhead_instrumented against the libraries, and as
// bench_obs_overhead_baseline together with the simulator's library sources
// under HYDRA_OBS_COMPILED_OUT (obs/context.hpp), so the two sides differ in
// nothing but the observability hooks.
//
// Protocol: each request byte on stdin runs one timing and answers with a
// SideReply on stdout; EOF ends the process.
//   'r'  one simulation with no context installed — the disabled path on the
//        instrumented side, the compiled-out loop on the baseline;
//   'm'  one simulation with obs enabled and record-mode invariant monitors
//        installed (asked of the instrumented side only: with obs compiled
//        out there is nothing to enable).
//
// The workload is a message flood (PingParty: each party starts one token
// that travels the ring for a fixed number of hops): pure event-loop load,
// no protocol logic.
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs_overhead_side.hpp"
#include "sim/delay.hpp"
#include "sim/env.hpp"
#include "sim/simulation.hpp"

using namespace hydra;

namespace {

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

constexpr std::size_t kParties = 16;
constexpr int kHops = 2000;

/// One simulation, timed alone, under whatever context is installed.
benchobs::SideReply time_one_sim() {
  const auto start = std::chrono::steady_clock::now();
  sim::Simulation sim({.n = kParties, .delta = 10, .seed = 1},
                      std::make_unique<sim::FixedDelay>(10));
  for (std::size_t p = 0; p < kParties; ++p) {
    sim.add_party(std::make_unique<PingParty>(kHops));
  }
  const std::uint64_t events = sim.run().events;
  return {std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count(),
          events};
}

/// Worst-case enabled path: obs on, record-mode monitors installed. The
/// PingParty workload exercises the per-delivery hooks (on_send + the
/// begin/end_dispatch bracket); there are no protocol values so the
/// geometry checks stay idle, which matches the cost monitors add to every
/// message of a real run.
benchobs::SideReply time_one_monitored() {
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
  return time_one_sim();
}

}  // namespace

int main() {
  char request = 0;
  while (::read(STDIN_FILENO, &request, 1) == 1) {
    benchobs::SideReply reply;
    if (request == 'r') {
      reply = time_one_sim();
    } else if (request == 'm') {
      reply = time_one_monitored();
    }
    if (::write(STDOUT_FILENO, &reply, sizeof reply) != sizeof reply) return 1;
  }
  return 0;
}
