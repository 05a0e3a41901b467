// T7 — Real-thread transport runs.
//
// The protocol objects that the simulator drives also run on one OS thread
// per party with wall-clock timers and mutex/condvar mailboxes. This binary
// executes ΠAA on the thread transport across configurations and reports
// wall time, traffic and the D-AA verdict — demonstrating the code is not a
// simulator artifact.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "faults/faults.hpp"
#include "geometry/convex.hpp"
#include "harness/table.hpp"
#include "harness/workloads.hpp"
#include "protocols/aa.hpp"
#include "sim/delay.hpp"
#include "transport/thread_net.hpp"

using namespace hydra;
using protocols::AaParty;
using protocols::Params;

namespace {

struct Case {
  std::size_t n, ts, ta, dim;
  bool async_delays;
  const char* faults = "";  ///< docs/ROBUSTNESS.md grammar; "" = clean run
};

}  // namespace

int main() {
  std::printf("== T7: ΠAA on the real-thread transport (1 OS thread per party, "
              "1 tick = 20 us) ==\n\n");
  harness::Table table({"n", "ts", "ta", "D", "delays", "faults", "wall ms",
                        "messages", "out-diam", "live", "valid", "agree"});

  const std::vector<Case> cases{
      {4, 1, 0, 2, false},
      {5, 1, 1, 2, false},
      {5, 1, 1, 2, true},
      {5, 1, 0, 3, false},
      {7, 2, 0, 2, false},
      // Duplication + bounded reorder must not change any verdict: the
      // protocol tolerates both, and the injector clamps skew to delta in
      // synchronous networks (docs/ROBUSTNESS.md).
      {5, 1, 1, 2, false, "dup(p=0.3);reorder(p=0.3,skew=250)"},
  };

  for (const auto& c : cases) {
    Params p;
    p.n = c.n;
    p.ts = c.ts;
    p.ta = c.ta;
    p.dim = c.dim;
    p.eps = 1e-2;
    p.delta = 500;
    const auto inputs =
        harness::make_inputs(harness::Workload::kUniformBall, c.n, c.dim, 5.0, c.n);

    std::unique_ptr<sim::DelayModel> model;
    if (c.async_delays) {
      model = std::make_unique<sim::ExponentialDelay>(1.5 * static_cast<double>(p.delta),
                                                      6 * p.delta);
    } else {
      model = std::make_unique<sim::UniformDelay>(1, p.delta / 4);
    }
    transport::ThreadNetwork net(
        {.n = c.n, .delta = p.delta, .seed = c.n, .us_per_tick = 20.0,
         .timeout_ms = 60'000},
        std::move(model));

    std::string fault_error;
    const auto plan = faults::parse_fault_plan(c.faults, &fault_error);
    HYDRA_ASSERT_MSG(plan.has_value(), fault_error.c_str());
    std::optional<faults::FaultInjector> injector;
    if (!plan->empty()) {
      injector.emplace(*plan, faults::FaultInjector::Config{
                                  .seed = c.n, .synchronous = !c.async_delays,
                                  .delta = p.delta});
      net.set_fault_injector(&*injector);
    }

    std::vector<std::unique_ptr<sim::IParty>> parties;
    std::vector<AaParty*> raw;
    for (std::size_t i = 0; i < c.n; ++i) {
      auto party = std::make_unique<AaParty>(p, inputs[i]);
      raw.push_back(party.get());
      parties.push_back(std::move(party));
    }
    const auto stats = net.run(parties, [](const sim::IParty& party, PartyId) {
      return static_cast<const AaParty&>(party).has_output();
    });

    std::vector<geo::Vec> outputs;
    bool valid = true;
    for (auto* party : raw) {
      if (party->has_output()) {
        outputs.push_back(party->output());
        valid = valid && geo::in_convex_hull(inputs, party->output(), 1e-4);
      }
    }
    const bool live = outputs.size() == c.n && !stats.timed_out;
    const double diam = geo::diameter(outputs);
    table.row({harness::fmt(std::uint64_t{c.n}), harness::fmt(std::uint64_t{c.ts}),
               harness::fmt(std::uint64_t{c.ta}), harness::fmt(std::uint64_t{c.dim}),
               c.async_delays ? "async-exp" : "sync-jitter",
               c.faults[0] != '\0' ? "dup+reorder" : "-",
               harness::fmt(std::uint64_t(stats.wall_ms)), harness::fmt(stats.wire.messages),
               harness::fmt(diam), harness::fmt_ok(live), harness::fmt_ok(valid),
               harness::fmt_ok(diam <= p.eps + 1e-9)});
  }
  table.print();
  std::printf("\nExpectation: every row live/valid/agree = yes on genuine "
              "threads, matching the simulator results.\n");
  return 0;
}
