// T5 — Πinit estimate quality + the known-bounds ablation.
//
// Theorem 5.18 guarantees every honest estimate T is SUFFICIENT:
// T >= log_sqrt(7/8)(eps / diam(I_0)). This binary sweeps eps and measures:
//  * the honest estimates T (min/max) and the iteration actually output;
//  * whether the final outputs meet eps (they must);
//  * how conservative the estimate is (output diameter / eps);
// and then ablates Πinit against the fixed-iteration mode of [20] (known
// input bounds supplied out of band): same guarantees, c_init = 8 rounds
// saved, but requiring a priori knowledge the hybrid model does not have.
// Exits 1 unless every T5a row agrees and both T5b rows agree and are valid.
#include <cstdio>
#include <vector>

#include "claim.hpp"
#include "harness/runner.hpp"
#include "harness/table.hpp"
#include "protocols/init.hpp"

using namespace hydra;
using namespace hydra::harness;

int main() {
  claim::Claims claims;
  std::printf("== T5a: Πinit estimate sufficiency across eps (async network, "
              "n = 8, ts = 2, ta = 1, D = 2) ==\n\n");

  Table table({"eps", "input-diam", "T_min", "T_max", "out-iter(max)", "out-diam",
               "agree", "diam/eps"});
  for (const double eps : {1e-1, 1e-2, 1e-3, 1e-4, 1e-5}) {
    const auto result = execute(claim::spec({2, 8, 2, 1}, eps, Workload::kGaussian, 20.0,
                                            Network::kAsyncReorder, Adversary::kSilent, 1,
                                            static_cast<std::uint64_t>(1.0 / eps)));
    claims.check(result.verdict.agreed, "T5a eps=%g: the estimate was not sufficient", eps);
    table.row({fmt(eps), fmt(result.input_diameter), fmt(result.min_estimate),
               fmt(result.max_estimate), fmt(std::uint64_t{result.max_output_iteration}),
               fmt(result.verdict.output_diameter), fmt_ok(result.verdict.agreed),
               fmt(result.verdict.output_diameter / eps)});
  }
  table.print();

  std::printf("\n== T5b: ablation — Πinit estimation vs known-bounds "
              "fixed-iteration mode ([20]'s assumption) ==\n\n");
  Table ab({"mode", "rounds", "messages", "agree", "valid", "note"});
  for (const bool fixed : {false, true}) {
    auto spec = claim::spec({2, 5, 1, 1}, 1e-3, Workload::kGaussian, 20.0,
                            Network::kAsyncReorder, Adversary::kNone, 0, 77);
    if (fixed) {
      // Known input bound: diameter <= 2 * scale (supplied a priori).
      spec.params.fixed_iterations =
          protocols::sufficient_iterations(spec.params.eps, 2.0 * 20.0);
    }
    const auto result = execute(spec);
    const char* mode = fixed ? "fixed-T (known bounds)" : "Pi_init (estimated)";
    claims.check(result.verdict.agreed && result.verdict.valid,
                 "T5b %s: outputs disagree or leave the honest hull", mode);
    ab.row({mode, fmt(result.rounds), fmt(result.messages),
            fmt_ok(result.verdict.agreed), fmt_ok(result.verdict.valid),
            fixed ? "needs a-priori input bound" : "self-contained"});
  }
  ab.print();

  std::printf("\nPaper prediction: estimates are always sufficient (agree = yes "
              "in every T5a row) and within a small constant of the minimal "
              "iteration count; Πinit costs %d extra rounds over known-bounds "
              "mode but removes the a-priori-knowledge assumption of [20].\n",
              protocols::Params::kCInit);
  return claims.exit_code();
}
