// T6a — the D >= 3 support-direction ablation.
//
// DESIGN.md decision 3 trades exactness for generality above D = 3 — the
// diameter pair of the safe area is computed from direction-sampled support
// points (D = 3 itself has an exact facet-enumeration kernel since hull3d
// landed). This ablation measures the sampled kernel against the exact one
// on D = 3 instances: relative diameter error and midpoint shift as the
// direction budget grows, plus the effective per-iteration contraction in a
// real D = 3 protocol run per budget.
//
// Kernel runtimes (ns/point) are measured and gated by `hydra perf` against
// bench/baselines/BENCH_geometry.json.
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "geometry/convex.hpp"
#include "geometry/safe_area.hpp"
#include "harness/runner.hpp"
#include "harness/table.hpp"

using namespace hydra;

namespace {

std::vector<geo::Vec> random_points(Rng& rng, std::size_t count, std::size_t dim,
                                    double radius = 10.0) {
  std::vector<geo::Vec> pts;
  for (std::size_t i = 0; i < count; ++i) {
    geo::Vec v(dim, 0.0);
    for (std::size_t d = 0; d < dim; ++d) v[d] = rng.next_double(-radius, radius);
    pts.push_back(std::move(v));
  }
  return pts;
}

void direction_ablation() {
  std::printf("== T6a: D = 3 support-direction ablation (reference: the EXACT "
              "facet-enumeration kernel) ==\n\n");
  harness::Table table({"directions", "rel diameter err (max/20)",
                        "midpoint shift (max/20)", "contraction in live run"});

  // Geometry accuracy of the direction-sampled kernel against the exact
  // vertex enumeration on random D = 3 safe areas. The sampled kernel is
  // what D >= 4 (and oversized D = 3 instances) actually run.
  for (const std::size_t dirs : {8u, 16u, 32u, 64u, 128u}) {
    Rng rng(99);
    double max_diam_err = 0.0;
    double max_mid_shift = 0.0;
    for (int trial = 0; trial < 20; ++trial) {
      const auto pts = random_points(rng, 6, 3);
      const auto ref = geo::SafeArea::compute(pts, 1);
      if (!ref.exact()) continue;  // degenerate draw; skip
      // Recreate the sampled result directly from support points.
      std::vector<std::vector<geo::Vec>> hulls;
      for (std::size_t drop = 0; drop < pts.size(); ++drop) {
        std::vector<geo::Vec> h;
        for (std::size_t i = 0; i < pts.size(); ++i) {
          if (i != drop) h.push_back(pts[i]);
        }
        hulls.push_back(std::move(h));
      }
      Rng dir_rng(0x5afea4ea);
      std::vector<geo::Vec> support;
      for (std::size_t k = 0; k < dirs; ++k) {
        geo::Vec u{dir_rng.next_gaussian(), dir_rng.next_gaussian(),
                   dir_rng.next_gaussian()};
        const double len = geo::norm(u);
        if (len < 1e-9) continue;
        u *= 1.0 / len;
        if (const auto s = geo::support_point(hulls, u)) support.push_back(*s);
      }
      if (ref.empty() || support.empty()) continue;
      const double ref_diam = ref.diameter();
      if (ref_diam < 1e-9) continue;
      const auto pair = geo::max_distance_pair(support);
      const double sampled_diam = geo::distance(pair->first, pair->second);
      max_diam_err =
          std::max(max_diam_err, std::abs(sampled_diam - ref_diam) / ref_diam);
      const auto ref_mid = ref.midpoint_rule();
      const geo::Vec mid = geo::midpoint(pair->first, pair->second);
      max_mid_shift =
          std::max(max_mid_shift, geo::distance(*ref_mid, mid) / ref_diam);
    }

    // Effective contraction in a real D = 3 protocol run with this budget.
    harness::RunSpec spec;
    spec.params.n = 6;
    spec.params.ts = 1;
    spec.params.ta = 1;
    spec.params.dim = 3;
    spec.params.eps = 1e-1;
    spec.params.delta = 1000;
    spec.params.safe_opts.support_directions = dirs;
    spec.workload = harness::Workload::kUniformBall;
    spec.workload_scale = 20.0;
    spec.network = harness::Network::kAsyncReorder;
    spec.seed = 5;
    const auto result = harness::execute(spec);
    double worst_ratio = 0.0;
    for (std::size_t i = 1; i < result.iteration_diameters.size(); ++i) {
      if (result.iteration_diameters[i - 1] > 1e-7) {
        worst_ratio = std::max(worst_ratio, result.iteration_diameters[i] /
                                                result.iteration_diameters[i - 1]);
      }
    }
    table.row({harness::fmt(std::uint64_t{dirs}), harness::fmt(max_diam_err),
               harness::fmt(max_mid_shift), harness::fmt(worst_ratio)});
  }
  table.print();
  std::printf("\nDiameter is only ever UNDER-estimated by sampling, so the "
              "midpoint stays in the safe area (validity unaffected); the "
              "contraction factor degrades gracefully at tiny budgets.\n\n");
}

}  // namespace

int main() {
  direction_ablation();
  return 0;
}
