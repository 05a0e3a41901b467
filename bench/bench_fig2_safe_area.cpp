// F2 — Figure 2 reproduction: the worked safe-area computation.
//
// Figure 2 intersects the convex hulls of every 3-point subset of four
// points a, b, c, d (t = 1) and arrives at a single point v; whichever of
// the four points is Byzantine, v lies in the convex hull of the three
// honest ones. This binary replays the figure's intersection sequence with
// the exact 2-D kernel, prints each partial intersection, and verifies the
// containment claim for all four corruption choices. It then reruns the
// computation across dimensions and trim values to chart when safe areas
// are full-dimensional, degenerate, or empty (the Section 5 example). Exits
// 1 unless the collapse ends in one point inside every honest triple, the
// Section 5 triangle's safe_1 is empty, and every chart row the Helly bound
// calls non-empty reads 20/20.
#include <cstdio>
#include <vector>

#include "claim.hpp"
#include "common/rng.hpp"
#include "geometry/convex.hpp"
#include "geometry/polygon.hpp"
#include "geometry/safe_area.hpp"
#include "harness/table.hpp"

using namespace hydra;
using harness::Table;

namespace {

std::string vertices_of(const geo::ConvexPolygon2D& poly) {
  if (poly.empty()) return "(empty)";
  std::string out;
  for (const auto& v : poly.vertices()) out += geo::to_string(v) + " ";
  return out;
}

void figure2_walkthrough(claim::Claims& claims) {
  // A quadrilateral in convex position, like the figure's a, b, c, d.
  const std::vector<geo::Vec> pts{{0.0, 0.0}, {4.0, 0.0}, {3.0, 3.0}, {0.5, 2.5}};
  const char* names[] = {"a", "b", "c", "d"};

  std::printf("points: ");
  for (int i = 0; i < 4; ++i) {
    std::printf("%s=%s ", names[i], geo::to_string(pts[i]).c_str());
  }
  std::printf("   t = 1\n\n");

  // Intersect the four 3-point hulls in the figure's order.
  geo::ConvexPolygon2D region;
  bool first = true;
  for (std::size_t removed = 0; removed < 4; ++removed) {
    std::vector<geo::Vec> kept;
    std::string label = "convex({";
    for (std::size_t j = 0; j < 4; ++j) {
      if (j == removed) continue;
      kept.push_back(pts[j]);
      label += names[j];
      label += ",";
    }
    label.back() = '}';
    label += ")";
    const auto hull = geo::ConvexPolygon2D::hull_of(kept);
    region = first ? hull : region.intersect(hull);
    first = false;
    std::printf("after intersecting %-18s : %s\n", label.c_str(),
                vertices_of(region).c_str());
  }

  claims.check(region.vertices().size() == 1,
               "F2: the four-hull collapse ends in %zu points, not one",
               region.vertices().size());

  const auto sa = geo::SafeArea::compute(pts, 1);
  const auto mid = sa.midpoint_rule();
  std::printf("\nsafe_1 = %s  diameter = %.3g  -> single point v, as in the "
              "figure\n",
              vertices_of(sa.polygon2d()).c_str(), sa.diameter());

  Table table({"corrupted point", "v in convex(honest 3)?"});
  for (std::size_t byz = 0; byz < 4; ++byz) {
    std::vector<geo::Vec> honest;
    for (std::size_t j = 0; j < 4; ++j) {
      if (j != byz) honest.push_back(pts[j]);
    }
    const bool inside = claims.check(mid && geo::in_convex_hull(honest, *mid, 1e-7),
                                     "F2: v leaves the honest hull when %s is corrupted",
                                     names[byz]);
    table.row({names[byz], harness::fmt_ok(inside)});
  }
  table.print();
}

void emptiness_chart(claim::Claims& claims) {
  std::printf("\n== When is safe_t(M) non-empty? (Lemma 5.5 boundary) ==\n");
  std::printf("The Section 5 example: safe_1({(0,0),(0,1),(1,0)}) with |M| = "
              "n - ts = 3 is EMPTY,\nwhich is why the protocol trims "
              "max(k, ta) instead of ts.\n\n");

  const std::vector<geo::Vec> tri{{0.0, 0.0}, {0.0, 1.0}, {1.0, 0.0}};
  const bool empty = claims.check(geo::SafeArea::compute(tri, 1).empty(),
                                  "F2: safe_1 of the Section 5 triangle is not empty");
  std::printf("safe_1({(0,0),(0,1),(1,0)}) empty: %s\n", harness::fmt_ok(empty).c_str());
  std::printf("safe_0 of the same M (k = 0, ta = 0 trim): diameter %.4g "
              "(= the full hull)\n\n",
              geo::SafeArea::compute(tri, 0).diameter());

  // Chart: random point sets, |M| = m, trim t — non-empty iff Lemma 5.5's
  // precondition m - (D+1) t >= 1 ... m - t(D+1) >= 1 is only the Helly
  // sufficient bound; measure the empirical boundary.
  Table table({"D", "m", "t", "Helly bound says", "measured non-empty (20 seeds)"});
  Rng rng(2024);
  for (std::size_t dim = 1; dim <= 3; ++dim) {
    for (std::size_t m = 3; m <= 6; ++m) {
      for (std::size_t t = 1; t < m && t <= 2; ++t) {
        int nonempty = 0;
        for (int trial = 0; trial < 20; ++trial) {
          std::vector<geo::Vec> pts;
          for (std::size_t i = 0; i < m; ++i) pts.push_back(claim::random_point(rng, dim, 1.0));
          if (!geo::SafeArea::compute(pts, t).empty()) ++nonempty;
        }
        const bool helly = m >= (dim + 1) * t + 1;
        claims.check(!helly || nonempty == 20,
                     "F2 D=%zu m=%zu t=%zu: Helly says non-empty, measured %d/20", dim,
                     m, t, nonempty);
        table.row({harness::fmt(std::uint64_t{dim}), harness::fmt(std::uint64_t{m}),
                   harness::fmt(std::uint64_t{t}),
                   helly ? "non-empty" : "may be empty",
                   harness::fmt(std::uint64_t(nonempty)) + "/20"});
      }
    }
  }
  table.print();
}

}  // namespace

int main() {
  claim::Claims claims;
  std::printf("== F2: Figure 2 — safe area of four points, t = 1 ==\n\n");
  figure2_walkthrough(claims);
  emptiness_chart(claims);
  return claims.exit_code();
}
