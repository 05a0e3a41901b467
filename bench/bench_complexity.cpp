// T3 — Round and message complexity.
//
// The paper's timing constants: c_rBC = 3 and c'_rBC = 2 (Theorem 4.2),
// c_oBC = 5 (Theorem 4.4), c_init = 2 c_rBC + c'_rBC = 8 (Theorem 5.18),
// c_AA-it = 5 (Section 5). Under synchrony the protocol finishes by
// (c_init + (T_min + 1) * c_AA-it + c'_rBC) * Delta. This binary measures
// end-to-end rounds and traffic across n and checks them against those
// bounds; message complexity is Theta(n^3) per rBC round trip (n parallel
// Bracha instances of n^2 messages each). Exits 1 unless every run holds
// D-AA within the round bound and sends exactly its pinned message count
// (the simulator is deterministic per (spec, seed)).
#include <cstdio>
#include <vector>

#include "claim.hpp"
#include "harness/runner.hpp"
#include "harness/table.hpp"
#include "protocols/params.hpp"

using namespace hydra;
using namespace hydra::harness;

int main() {
  using protocols::Params;
  claim::Claims claims;
  std::printf("== T3: round and message complexity under synchrony ==\n");
  std::printf("constants: c_rBC=%d c'_rBC=%d c_oBC=%d c_init=%d c_AA-it=%d\n\n",
              Params::kCRbc, Params::kCRbcCond, Params::kCObc, Params::kCInit,
              Params::kCAaIt);

  Table table({"n", "ts", "ta", "D", "T_min", "rounds", "bound", "ok", "messages",
               "KiB", "msgs/n^3"});
  struct Case {
    claim::Shape shape;
    std::uint64_t messages;
  };
  const std::vector<Case> cases{
      {{2, 4, 1, 0}, 342},     {{2, 5, 1, 1}, 768},   {{2, 7, 2, 0}, 1740},
      {{2, 8, 2, 1}, 2856},    {{2, 9, 2, 2}, 4368},  {{2, 11, 3, 1}, 7040},
      {{2, 13, 3, 3}, 12960},  {{3, 6, 1, 1}, 1450},
  };

  bool all_ok = true;
  for (const auto& [c, messages] : cases) {
    const auto result =
        execute(claim::spec(c, 1e-3, Workload::kUniformBall, 10.0, Network::kSyncWorstCase,
                            Adversary::kSilent, c.ts, 31 * c.n));
    // Bound: init + (T_min + 1) iterations + halt propagation.
    const double bound = Params::kCInit +
                         static_cast<double>(result.min_estimate + 1) *
                             Params::kCAaIt +
                         Params::kCRbcCond;
    const bool ok = claims.check(result.verdict.d_aa() && result.rounds <= bound + 1e-9,
                                 "T3 n=%zu: D-AA failed or rounds %g > bound %g", c.n,
                                 result.rounds, bound);
    claims.check(result.messages == messages, "T3 n=%zu: %llu messages, pinned %llu",
                 c.n, static_cast<unsigned long long>(result.messages),
                 static_cast<unsigned long long>(messages));
    all_ok = all_ok && ok;
    const double n3 = static_cast<double>(c.n) * c.n * c.n;
    table.row({fmt(std::uint64_t{c.n}), fmt(std::uint64_t{c.ts}),
               fmt(std::uint64_t{c.ta}), fmt(std::uint64_t{c.dim}),
               fmt(result.min_estimate), fmt(result.rounds), fmt(bound), fmt_ok(ok),
               fmt(result.messages), fmt(static_cast<double>(result.bytes) / 1024.0),
               fmt(static_cast<double>(result.messages) / n3)});
  }
  table.print();

  std::printf("\nPaper prediction: rounds <= c_init + (T_min + 1) c_AA-it + "
              "c'_rBC; messages = Theta(n^3) per round-trip (flat msgs/n^3 "
              "column). Measured: %s.\n",
              all_ok ? "all bounds hold" : "BOUND VIOLATION (see table)");
  return claims.exit_code();
}
