// T11 — Approximate agreement beyond R^D: trees and paths.
//
// The hybrid protocol's shape (exchange values, intersect hulls over
// |M| - t subsets, adopt a midpoint) is not Euclidean-specific. With the
// value domain swapped for a tree metric space (src/domain/tree.cpp) the
// same ΠAA stack runs approximate agreement on graphs: geodesic hulls
// replace convex hulls, the midpoint of the diameter pair becomes a vertex
// at floor(d/2) along the unique tree path, and the per-iteration
// contraction factor becomes 1/2 (Fuchs-Ghinea-Parsaeian-Rybicki,
// arXiv:2502.05591; Nowak-Rybicki, arXiv:1908.02743).
//
// Part A measures that contraction under adversarial pressure: every
// (domain, network, adversary) cell runs under STRICT monitors — the run
// aborts on the first validity or contraction violation — and every pair of
// consecutive honest layer diameters must satisfy d' <= ceil(d / 2), the
// exact integer bound the tree midpoint rule guarantees.
//
// Part B measures convergence depth on the 64-vertex path. The worst-case
// bound is log2 of the initial label spread (the graph analogue of the
// Euclidean log(diam/eps) estimate); in full protocol runs the Πinit
// witness exchange collapses honest estimates far faster — the same
// practice-beats-the-bound effect bench_convergence documents for R^D.
//
// Exit status: 0 only if every run satisfied D-AA, no monitor recorded a
// violation, and every contraction step met the ceil bound.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "claim.hpp"
#include "harness/runner.hpp"
#include "harness/stats.hpp"
#include "harness/sweep.hpp"
#include "harness/table.hpp"

using namespace hydra;
using namespace hydra::harness;

namespace {

constexpr std::uint64_t kSeedsPerCell = 5;

struct CellOutcome {
  std::size_t runs = 0;
  std::size_t passed = 0;
  std::uint64_t violations = 0;
  bool contraction_ok = true;
  double worst_ratio = 0.0;  ///< max observed d' / ceil(d/2)
  Stats rounds;
};

/// Seeds 1..seeds of one cell: n = 5, ts = ta = 1, 1-agreement (adjacent
/// vertices), one corrupted slot unless the adversary is none, strict
/// monitors.
std::vector<RunSpec> seeds_of(const std::string& domain, Network network,
                              Adversary adversary, double scale, std::uint64_t seeds) {
  std::vector<RunSpec> grid;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    grid.push_back(claim::spec({1, 5, 1, 1}, 1.0, Workload::kUniformBall, scale, network,
                               adversary, adversary == Adversary::kNone ? 0 : 1, seed));
    grid.back().domain = domain;
    grid.back().monitors = obs::MonitorMode::kStrict;
  }
  return grid;
}

CellOutcome judge(const std::vector<RunResult>& results) {
  CellOutcome out;
  for (const auto& result : results) {
    ++out.runs;
    if (result.verdict.d_aa()) ++out.passed;
    out.violations += result.monitor_violations;
    out.rounds.add(result.rounds);
    // The exact integer contraction bound of the tree midpoint rule,
    // checked over the honest complete-layer diameters the harness
    // recorded. (The strict monitors enforce the same bound live; this
    // re-derivation keeps the bench independent of the monitor path.)
    for (std::size_t i = 1; i < result.iteration_diameters.size(); ++i) {
      const double prev = result.iteration_diameters[i - 1];
      const double next = result.iteration_diameters[i];
      const double bound = std::ceil(prev / 2.0);
      if (prev > 0.0 && bound > 0.0) {
        out.worst_ratio = std::max(out.worst_ratio, next / bound);
      }
      if (next > bound + 1e-9) out.contraction_ok = false;
    }
  }
  return out;
}

}  // namespace

int main() {
  claim::Claims claims;
  std::printf("== T11a: graph AA contraction under adversarial pressure ==\n");
  std::printf("tree = 63-vertex complete binary tree, path = 64-vertex line; "
              "strict monitors, bound d' <= ceil(d/2) per iteration "
              "(arXiv:2502.05591)\n\n");

  const std::vector<Network> networks{
      Network::kSyncJitter, Network::kSyncWorstCase, Network::kAsyncReorder,
      Network::kAsyncExponential};
  const std::vector<Adversary> adversaries{
      Adversary::kSilent, Adversary::kEquivocator, Adversary::kOutlier,
      Adversary::kCrash};

  bool all_pass = true;
  std::uint64_t total_violations = 0;
  Table table({"domain", "network", "adversary", "runs", "pass", "violations",
               "worst d'/ceil(d/2)", "mean rounds", "ok"});
  for (const std::string domain : {"tree", "path"}) {
    for (const Network network : networks) {
      for (const Adversary adversary : adversaries) {
        const auto outcome =
            judge(run_sweep(seeds_of(domain, network, adversary, 10.0, kSeedsPerCell)));
        const bool ok = claims.check(
            outcome.passed == outcome.runs && outcome.violations == 0 &&
                outcome.contraction_ok,
            "T11a %s %s %s: a D-AA miss, a monitor violation or d' > ceil(d/2)",
            domain.c_str(), to_string(network).c_str(), to_string(adversary).c_str());
        all_pass = all_pass && ok;
        total_violations += outcome.violations;
        table.row({domain, to_string(network), to_string(adversary),
                   fmt(std::uint64_t{outcome.runs}),
                   fmt(std::uint64_t{outcome.passed}),
                   fmt(outcome.violations), fmt(outcome.worst_ratio),
                   fmt(outcome.rounds.mean()), fmt_ok(ok)});
      }
    }
  }
  table.print();

  std::printf("\n== T11b: convergence depth on the 64-vertex path ==\n");
  std::printf("(worst case: ceil(log2(spread)) halving iterations; the Πinit "
              "witness exchange usually collapses estimates much sooner)\n\n");
  Table depth({"scale", "mean input diameter", "T estimate", "max output it",
               "mean rounds", "all 1-agree"});
  for (const double scale : {4.0, 16.0, 60.0}) {
    const auto results =
        run_sweep(seeds_of("path", Network::kSyncJitter, Adversary::kNone, scale, 10));
    Stats diam;
    Stats est;
    std::uint32_t max_it = 0;
    Stats rounds;
    bool agree = true;
    std::uint64_t violations = 0;
    for (const auto& result : results) {
      diam.add(result.input_diameter);
      est.add(static_cast<double>(result.min_estimate));
      max_it = std::max(max_it, result.max_output_iteration);
      rounds.add(result.rounds);
      agree = agree && result.verdict.d_aa();
      violations += result.monitor_violations;
    }
    claims.check(agree && violations == 0,
                 "T11b scale %g: a D-AA miss or a monitor violation", scale);
    all_pass = all_pass && agree;
    total_violations += violations;
    depth.row({fmt(scale), fmt(diam.mean()), fmt(est.mean()),
               fmt(std::uint64_t{max_it}), fmt(rounds.mean()), fmt_ok(agree)});
  }
  depth.print();

  std::printf("\nGraph-AA prediction (arXiv:2502.05591): at most "
              "ceil(log2(spread)) halving iterations, validity on the "
              "geodesic hull throughout; in practice the witness exchange "
              "collapses estimates within an iteration. Measured: %s, %llu "
              "violation(s).\n",
              all_pass ? "all runs passed" : "FAILURES (see tables)",
              static_cast<unsigned long long>(total_violations));
  return claims.exit_code();
}
