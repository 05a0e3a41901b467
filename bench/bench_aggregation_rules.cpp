// T8 — Aggregation-rule ablation (DESIGN.md decision follow-up).
//
// The paper adopts the diameter-midpoint rule of [Függer-Nowak 18], which
// carries the proven sqrt(7/8) per-iteration contraction. A natural
// alternative is the centroid of the safe area's extreme points. This
// ablation measures, over the same adversarial view pairs as T2a:
//   * the worst and mean contraction ratio of both rules, and
//   * whether end-to-end runs still reach eps-agreement with the centroid
//     rule (they do — the halting estimate is computed from the SAME
//     sqrt(7/8) formula, so if the centroid contracted slower than the
//     bound it would surface as agreement failures).
//
// Exits 1 unless every midpoint worst ratio is <= sqrt(7/8) and both
// end-to-end runs are live, valid and agreed.
#include <cmath>
#include <cstdio>
#include <vector>

#include "claim.hpp"
#include "common/rng.hpp"
#include "harness/runner.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"

using namespace hydra;
using namespace hydra::harness;
using protocols::Aggregation;

namespace {

/// Contraction ratios of one rule over `trials` view pairs whose ts
/// Byzantine slots hold far outliers; degenerate pairs are skipped.
Stats measure_rule(Aggregation aggregation, const claim::Shape& c, std::uint64_t seed,
                   int trials) {
  Rng rng(seed);
  auto p = c.params();
  p.aggregation = aggregation;
  const auto byzantine = [&](const std::vector<geo::Vec>&) {
    return claim::random_corner(rng, c.dim, claim::kViewScale * 100.0);
  };
  Stats ratios;
  for (int trial = 0; trial < trials; ++trial) {
    if (const auto ratio = claim::view_pair_ratio(rng, p, c.ts, byzantine)) {
      ratios.add(*ratio);
    }
  }
  return ratios;
}

}  // namespace

int main() {
  const double bound = std::sqrt(7.0 / 8.0);
  claim::Claims claims;
  std::printf("== T8: aggregation-rule ablation — diameter midpoint (paper) vs "
              "extreme-point centroid ==\n\n");

  Table table({"D", "n", "ts", "ta", "rule", "worst ratio", "mean ratio",
               "proven bound?"});
  const std::vector<claim::Shape> cases{
      {1, 5, 1, 1}, {2, 5, 1, 1}, {2, 8, 2, 1}, {3, 6, 1, 1},
  };
  for (const auto& c : cases) {
    const int trials = c.dim >= 3 ? 60 : 250;
    for (const auto agg : {Aggregation::kDiameterMidpoint, Aggregation::kCentroid}) {
      const auto ratios = measure_rule(agg, c, 31 * c.n + c.dim, trials);
      const bool centroid = agg == Aggregation::kCentroid;
      claims.check(centroid || ratios.max() <= bound + 1e-6,
                   "T8 D=%zu n=%zu ts=%zu ta=%zu: midpoint worst ratio %g", c.dim, c.n,
                   c.ts, c.ta, ratios.max());
      table.row(claim::row({c.cells(),
                            {centroid ? "centroid" : "midpoint", fmt(ratios.max()),
                             fmt(ratios.mean()),
                             centroid ? "no (measured only)" : "yes, sqrt(7/8)"}}));
    }
  }
  table.print();
  std::printf("(bound for the midpoint rule: %.4f)\n\n", bound);

  std::printf("End-to-end check: full runs with each rule (async, hostile "
              "mix) —\n");
  Table runs({"rule", "live", "valid", "agree", "out-diam"});
  for (const auto agg : {Aggregation::kDiameterMidpoint, Aggregation::kCentroid}) {
    auto spec = claim::spec({2, 8, 2, 1}, 1e-2, Workload::kGaussian, 20.0,
                            Network::kAsyncReorder, Adversary::kMixed, 1, 93);
    spec.params.aggregation = agg;
    const auto verdict = execute(spec).verdict;
    const char* rule = agg == Aggregation::kCentroid ? "centroid" : "midpoint";
    claims.check(verdict.d_aa(), "T8 end-to-end %s: D-AA failed", rule);
    runs.row(claim::row({{rule}, claim::verdict_cells(verdict)}));
  }
  runs.print();
  std::printf("\nTakeaway: the centroid often contracts faster on average but "
              "lacks a worst-case guarantee; the paper's midpoint rule is the "
              "safe default.\n");
  return claims.exit_code();
}
