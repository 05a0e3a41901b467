// T2 — Convergence factor (Lemmas 5.14 / 5.15).
//
// Part A validates Lemma 5.15 where it actually bites: over adversarially
// constructed PAIRS of ΠoBC-legal views. Two honest parties' output sets
// M1, M2 satisfy (Theorem 4.4): per-party values consistent, |M1 ∩ M2| >=
// n - ts, |M1 ∪ M2| <= n. For each trial we draw honest values, let the
// adversary pick Byzantine values (far outliers, near-duplicates, or hull
// stretchers) and which legal subsets each view sees, run the ΠAA-it rule
// on both views, and check delta(v1, v2) <= sqrt(7/8) * delta_max(honest).
//
// Part B reports the end-to-end view: in full protocol runs the witness
// exchange shares so much information that honest views (and hence values)
// typically collapse within one or two iterations — far faster than the
// worst-case bound, which is the practical takeaway.
//
// Exits 1 unless every T2a worst ratio is <= sqrt(7/8) and every T2b run
// agrees.
#include <cmath>
#include <cstdio>
#include <vector>

#include "claim.hpp"
#include "common/rng.hpp"
#include "harness/runner.hpp"
#include "harness/stats.hpp"
#include "harness/sweep.hpp"
#include "harness/table.hpp"

using namespace hydra;
using namespace hydra::harness;

namespace {

/// One adversarial Byzantine value, its strategy drawn at random.
geo::Vec byz_value(Rng& rng, std::size_t dim, const std::vector<geo::Vec>& honest) {
  switch (rng.next_below(3)) {
    case 0:  // far outlier
      return claim::random_corner(rng, dim, claim::kViewScale * 1e4);
    case 1:  // near-duplicate of an honest value (degeneracy attack)
      return honest[rng.next_below(honest.size())];
    default: {  // hull stretcher: just outside the honest spread
      geo::Vec v = honest[rng.next_below(honest.size())];
      for (std::size_t d = 0; d < dim; ++d) {
        v[d] += rng.next_double(-2.0, 2.0) * claim::kViewScale;
      }
      return v;
    }
  }
}

}  // namespace

int main() {
  const double bound = std::sqrt(7.0 / 8.0);
  claim::Claims claims;
  std::printf("== T2a: Lemma 5.15 over adversarial ΠoBC-legal view pairs ==\n");
  std::printf("theory: delta(v, v') <= sqrt(7/8) * delta_max(honest) = %.6f * "
              "diam\n\n",
              bound);

  Table table({"D", "n", "ts", "ta", "regime", "trials", "worst ratio", "mean ratio",
               "<= bound?"});
  const std::vector<claim::Shape> cases{
      {1, 4, 1, 0}, {1, 5, 1, 1}, {1, 7, 2, 1}, {2, 4, 1, 0}, {2, 5, 1, 1},
      {2, 8, 2, 1}, {2, 9, 2, 2}, {3, 5, 1, 0}, {3, 6, 1, 1},
  };

  bool all_ok = true;
  for (const auto& c : cases) {
    for (const bool synchronous : {true, false}) {
      if (!synchronous && c.ta == 0) continue;
      Rng rng(1000 * c.n + 10 * c.ts + c.ta + (synchronous ? 0 : 7));
      const int trials = c.dim >= 3 ? 60 : 300;
      const auto byzantine = [&](const std::vector<geo::Vec>& honest) {
        return byz_value(rng, c.dim, honest);
      };
      // A degenerate pair (coinciding honest values) counts as ratio 0.
      Stats ratios;
      for (int trial = 0; trial < trials; ++trial) {
        ratios.add(claim::view_pair_ratio(rng, c.params(), synchronous ? c.ts : c.ta,
                                          byzantine)
                       .value_or(0.0));
      }
      const bool ok = claims.check(
          ratios.max() <= bound + 1e-6, "T2a D=%zu n=%zu ts=%zu ta=%zu %s: worst ratio %g",
          c.dim, c.n, c.ts, c.ta, synchronous ? "sync" : "async", ratios.max());
      all_ok = all_ok && ok;
      table.row(claim::row({c.cells(),
                            {synchronous ? "sync" : "async", fmt(std::uint64_t(trials)),
                             fmt(ratios.max()), fmt(ratios.mean()), fmt_ok(ok)}}));
    }
  }
  table.print();

  std::printf("\n== T2b: end-to-end — iterations until honest values coincide "
              "==\n");
  std::printf("(full protocol runs; the witness exchange typically collapses "
              "views within 1-2 iterations, far faster than worst case)\n\n");
  Table table_b({"D", "n", "ts", "ta", "network", "adversary", "T_est",
                 "iters-to-collapse", "agree"});
  struct RunCase {
    claim::Shape shape;
    Network network;
    Adversary adversary;
    std::size_t corruptions;
  };
  const std::vector<RunCase> runs{
      {{2, 8, 2, 1}, Network::kAsyncExponential, Adversary::kOutlier, 2},
      {{2, 8, 2, 1}, Network::kAsyncReorder, Adversary::kOutlier, 1},
      {{2, 5, 1, 1}, Network::kAsyncExponential, Adversary::kNone, 0},
      {{3, 6, 1, 1}, Network::kAsyncExponential, Adversary::kOutlier, 1},
  };
  // Full protocol runs are independent, so execute them on the parallel
  // engine; results come back in input order.
  std::vector<RunSpec> grid;
  for (const auto& rc : runs) {
    grid.push_back(claim::spec(rc.shape, 1e-2, Workload::kGaussian, 20.0, rc.network,
                               rc.adversary, rc.corruptions,
                               11 * rc.shape.n + rc.corruptions));
  }
  const auto results = run_sweep(grid);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& rc = runs[i];
    const auto& result = results[i];
    std::size_t collapse = result.iteration_diameters.size();
    for (std::size_t it = 0; it < result.iteration_diameters.size(); ++it) {
      if (result.iteration_diameters[it] <= 1e-12) {
        collapse = it;
        break;
      }
    }
    claims.check(result.verdict.agreed, "T2b row %zu: honest outputs disagree", i + 1);
    table_b.row(claim::row({rc.shape.cells(),
                            {to_string(rc.network), to_string(rc.adversary),
                             fmt(result.min_estimate), fmt(std::uint64_t(collapse)),
                             fmt_ok(result.verdict.agreed)}}));
  }
  table_b.print();

  std::printf("\nPaper prediction: T2a worst ratios <= %.4f everywhere. "
              "Measured: %s. T2b shows practice beats the bound by orders of "
              "magnitude.\n",
              bound, all_ok ? "all within the bound" : "VIOLATION (see table)");
  return claims.exit_code();
}
