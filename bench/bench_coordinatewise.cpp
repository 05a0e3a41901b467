// T9 — Why multidimensional AA at all? The coordinate-wise strawman.
//
// Running D independent 1-D AA instances (one per coordinate) inherits
// liveness and per-coordinate agreement, but only confines outputs to the
// BOUNDING BOX of the honest inputs — not their convex hull. A Byzantine
// party holding a box corner outside the hull (here (1,1) against honest
// inputs near the triangle {(0,0),(1,0),(0,1)}) steers different
// coordinates toward different honest extremes, and asynchronous
// scheduling does the rest. This is the classical argument of [26, 32] for
// why D-AA needs genuinely multidimensional safe areas; here it is measured.
//
// Exits 1 unless that expectation holds: every row live, the hybrid rows
// valid, and the strawman violating validity at least once under asynchrony.
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "adversary/schedulers.hpp"
#include "baselines/coordinatewise.hpp"
#include "claim.hpp"
#include "geometry/convex.hpp"
#include "harness/runner.hpp"
#include "harness/table.hpp"
#include "sim/simulation.hpp"

using namespace hydra;
using namespace hydra::harness;

namespace {

// n = 5, ts = ta = 1, D = 2: the shape both protocols run at.
const claim::Shape kShape{2, 5, 1, 1};

struct Tally {
  int outputs = 0;
  int validity_violations = 0;
  int liveness_failures = 0;
};

Tally run_coordinatewise(bool synchronous, std::uint64_t seeds) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const protocols::Params p = kShape.params(1e-3);
    if (const auto err = baselines::CoordinatewiseParty::feasibility_error(p)) {
      std::fprintf(stderr, "error: %s\n", err->c_str());
      std::exit(2);
    }
    // Byzantine slot 0 runs the honest code with the box corner (1,1) —
    // inside both coordinate ranges, far outside the honest hull.
    const std::vector<geo::Vec> inputs{
        {1.0, 1.0}, {0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {0.2, 0.2}};

    std::unique_ptr<sim::DelayModel> model;
    if (synchronous) {
      model = std::make_unique<sim::UniformDelay>(1, p.delta);
    } else {
      model = std::make_unique<adversary::ReorderScheduler>(p.delta, 0.35,
                                                            10 * p.delta);
    }
    sim::Simulation sim({.n = p.n, .delta = p.delta, .seed = seed},
                        std::move(model));
    serve::InstanceDirectory directory(static_cast<std::uint32_t>(p.dim),
                                       static_cast<std::uint32_t>(p.n));
    std::vector<baselines::CoordinatewiseParty*> honest;
    for (PartyId id = 0; id < p.n; ++id) {
      auto party = std::make_unique<baselines::CoordinatewiseParty>(p, inputs[id],
                                                                    directory);
      if (id != 0) honest.push_back(party.get());
      sim.add_party(std::move(party));
    }
    sim.run();

    const std::vector<geo::Vec> honest_inputs(inputs.begin() + 1, inputs.end());
    for (auto* h : honest) {
      if (!h->has_output()) {
        ++tally.liveness_failures;
        continue;
      }
      ++tally.outputs;
      if (!geo::in_convex_hull(honest_inputs, h->output(), 1e-6)) {
        ++tally.validity_violations;
      }
    }
  }
  return tally;
}

Tally run_hybrid(bool synchronous, std::uint64_t seeds) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    // Simplex corners: the same adversarial shape.
    const auto result = execute(claim::spec(
        kShape, 1e-3, Workload::kSimplexCorners, 1.0,
        synchronous ? Network::kSyncJitter : Network::kAsyncReorder, Adversary::kOutlier,
        1, seed));
    tally.outputs += static_cast<int>(kShape.n - 1);
    if (!result.verdict.live) ++tally.liveness_failures;
    if (!result.verdict.valid) ++tally.validity_violations;
  }
  return tally;
}

}  // namespace

int main() {
  constexpr std::uint64_t kSeeds = 20;
  std::printf("== T9: coordinate-wise decomposition vs genuine D-AA ==\n");
  std::printf("honest inputs ~ triangle {(0,0),(1,0),(0,1)}; Byzantine input "
              "(1,1) — a bounding-box corner outside the hull.\n\n");

  Table table({"protocol", "network", "honest outputs", "validity violations",
               "liveness failures"});
  claim::Claims claims;
  for (const bool synchronous : {true, false}) {
    const auto cw = run_coordinatewise(synchronous, kSeeds);
    const auto hy = run_hybrid(synchronous, kSeeds);
    const char* regime = synchronous ? "sync" : "async";
    claims.check(cw.liveness_failures == 0 && hy.liveness_failures == 0,
                 "T9 %s: a liveness failure", regime);
    claims.check(hy.validity_violations == 0, "T9 %s: the hybrid protocol broke validity",
                 regime);
    claims.check(synchronous || cw.validity_violations > 0,
                 "T9 %s: the strawman never broke validity", regime);
    table.row({"coordinate-wise 1-D x D", regime,
               fmt(std::uint64_t(cw.outputs)), fmt(std::uint64_t(cw.validity_violations)),
               fmt(std::uint64_t(cw.liveness_failures))});
    table.row({"hybrid D-AA (this paper)", regime,
               fmt(std::uint64_t(hy.outputs)), fmt(std::uint64_t(hy.validity_violations)),
               fmt(std::uint64_t(hy.liveness_failures))});
  }
  table.print();

  std::printf("\nPaper context ([26, 32]): per-coordinate agreement only "
              "bounds outputs to the honest BOX; safe areas bound them to "
              "the honest HULL. Expected: the strawman violates validity "
              "under asynchrony (and can under synchrony), the hybrid "
              "protocol never does.\n");
  return claims.exit_code();
}
