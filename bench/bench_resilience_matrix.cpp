// T1 — Resilience matrix (Theorem 5.19).
//
// The paper's headline claim: ΠAA achieves ts-secure D-AA under synchrony
// and ta-secure D-AA under asynchrony whenever (D+1) ts + ta < n. This
// binary sweeps feasible (n, ts, ta, D) triples, runs the protocol at the
// full tolerated corruption level under both network regimes and a hostile
// adversary mix, and reports the oracle verdicts. It then runs "overload"
// rows — one corruption beyond the threshold — where the guarantees are
// allowed (and expected) to fail, demonstrating the bound is tight in
// practice, matching the Theorem 3.1/3.2 lower bounds. Exits 1 unless every
// T1a row holds D-AA and every (D, sync/async) group of T1b shows a
// violation.
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "claim.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "harness/table.hpp"

using namespace hydra;
using namespace hydra::harness;

namespace {

void run_block(const std::vector<claim::Shape>& rows, bool overload,
               claim::Claims& claims) {
  // Build the whole grid first, then execute it on the parallel engine; the
  // table prints in input order regardless of completion order.
  std::vector<RunSpec> grid;
  std::vector<claim::Shape> grid_rows;
  for (const auto& r : rows) {
    if (!r.params().feasible()) continue;

    struct Cell {
      Network network;
      std::size_t corruptions;
      Adversary adversary;
    };
    const std::size_t cs = overload ? r.ts + 1 : r.ts;
    const std::size_t ca = overload ? r.ta + 1 : r.ta;
    const std::vector<Cell> cells{
        {Network::kSyncJitter, cs, overload ? Adversary::kOutlier : Adversary::kMixed},
        {Network::kSyncWorstCase, cs, Adversary::kSilent},
        {Network::kAsyncReorder, ca, overload ? Adversary::kOutlier : Adversary::kMixed},
        {Network::kAsyncExponential, ca, Adversary::kSilent},
    };
    for (const auto& cell : cells) {
      if (cell.corruptions >= r.n) continue;
      grid.push_back(claim::spec(
          r, 5e-2, Workload::kUniformBall, 10.0, cell.network,
          cell.corruptions == 0 ? Adversary::kNone : cell.adversary, cell.corruptions,
          7 * r.n + 13 * r.ts + r.ta + (overload ? 1000 : 0)));
      grid_rows.push_back(r);
    }
  }

  const auto results = run_sweep(grid);

  Table table({"D", "n", "ts", "ta", "network", "adversary", "corrupt", "live",
               "valid", "agree", "out-diam"});
  std::map<std::pair<std::size_t, bool>, bool> group_violated;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto& r = grid_rows[i];
    const auto& spec = grid[i];
    const auto& verdict = results[i].verdict;
    table.row(claim::row({r.cells(),
                          {to_string(spec.network), to_string(spec.adversary),
                           fmt(std::uint64_t{spec.corruptions})},
                          claim::verdict_cells(verdict)}));
    if (overload) {
      group_violated[{r.dim, is_synchronous(spec.network)}] |= !verdict.d_aa();
    } else {
      claims.check(verdict.d_aa(), "T1a D=%zu n=%zu ts=%zu ta=%zu %s %s: D-AA failed",
                   r.dim, r.n, r.ts, r.ta, to_string(spec.network).c_str(),
                   to_string(spec.adversary).c_str());
    }
  }
  table.print();
  for (const auto& [group, violated] : group_violated) {
    claims.check(violated, "T1b D=%zu %s: no violation one corruption past the bound",
                 group.first, group.second ? "sync" : "async");
  }
}

}  // namespace

int main() {
  const std::vector<claim::Shape> rows{
      // D = 1 (n > 2 ts + ta and n > 3 ts for the Bracha substrate)
      {1, 4, 1, 0},
      {1, 5, 1, 1},
      {1, 7, 2, 1},
      // D = 2 (n > 3 ts + ta)
      {2, 4, 1, 0},
      {2, 5, 1, 1},
      {2, 7, 2, 0},
      {2, 8, 2, 1},
      {2, 9, 2, 2},
      // D = 3 (n > 4 ts + ta)
      {3, 5, 1, 0},
      {3, 6, 1, 1},
  };
  claim::Claims claims;

  std::printf("== T1a: at the tolerated thresholds — every row must read "
              "yes/yes/yes ==\n");
  std::printf("(sync rows corrupt ts parties; async rows corrupt ta; "
              "'mixed' cycles silent/equivocator/outlier/halt-rusher/"
              "spammer/crash)\n\n");
  run_block(rows, /*overload=*/false, claims);

  std::printf("\n== T1b: one corruption beyond the threshold — failures "
              "expected (bound is tight) ==\n");
  std::printf("(outlier attackers: validity violations surface as valid=NO; "
              "silent attackers: liveness loss)\n\n");
  run_block(rows, /*overload=*/true, claims);

  std::printf("\nPaper prediction (Thm 5.19 + Thms 3.1/3.2): T1a all-pass; "
              "T1b shows violations at ts+1 / ta+1.\n");
  return claims.exit_code();
}
