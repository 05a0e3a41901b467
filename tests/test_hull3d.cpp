// Tests for the exact D = 3 kernel: quickhull facet enumeration, half-space
// vertex enumeration, and their integration into SafeArea (cross-validated
// against the LP kernel).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "geometry/convex.hpp"
#include "geometry/hull3d.hpp"
#include "geometry/safe_area.hpp"
#include "geometry/vec.hpp"

namespace hydra::geo {
namespace {

std::vector<Vec> unit_cube() {
  std::vector<Vec> pts;
  for (int i = 0; i < 8; ++i) {
    pts.push_back(Vec{(i & 1) ? 1.0 : 0.0, (i & 2) ? 1.0 : 0.0, (i & 4) ? 1.0 : 0.0});
  }
  return pts;
}

std::vector<Vec> random_points(Rng& rng, std::size_t count, double radius) {
  std::vector<Vec> pts;
  for (std::size_t i = 0; i < count; ++i) {
    pts.push_back(Vec{rng.next_double(-radius, radius), rng.next_double(-radius, radius),
                      rng.next_double(-radius, radius)});
  }
  return pts;
}

bool satisfies_all(const std::vector<Plane3>& planes, const Vec& p, double tol) {
  for (const auto& plane : planes) {
    if (dot(plane.n, p) > plane.c + tol) return false;
  }
  return true;
}

TEST(Hull3D, CubeFacets) {
  const auto cube = unit_cube();
  const auto facets = hull3d_facets(cube);
  ASSERT_TRUE(facets.has_value());
  // 6 square faces triangulated -> 12 triangles (or some coplanar merge
  // thereof); all vertices on-boundary, center strictly inside.
  EXPECT_GE(facets->size(), 6u);
  for (const auto& v : cube) {
    EXPECT_TRUE(satisfies_all(*facets, v, 1e-9));
  }
  EXPECT_TRUE(satisfies_all(*facets, Vec{0.5, 0.5, 0.5}, 0.0));
  EXPECT_FALSE(satisfies_all(*facets, Vec{1.2, 0.5, 0.5}, 1e-6));
  EXPECT_FALSE(satisfies_all(*facets, Vec{0.5, 0.5, -0.2}, 1e-6));
}

TEST(Hull3D, TetrahedronHasFourFacets) {
  const std::vector<Vec> tet{
      {0.0, 0.0, 0.0}, {1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}};
  const auto facets = hull3d_facets(tet);
  ASSERT_TRUE(facets.has_value());
  EXPECT_EQ(facets->size(), 4u);
}

TEST(Hull3D, DegenerateInputsRejected) {
  // Fewer than 4 points.
  EXPECT_FALSE(hull3d_facets(std::vector<Vec>{{0, 0, 0}, {1, 1, 1}}).has_value());
  // Coincident.
  EXPECT_FALSE(hull3d_facets(std::vector<Vec>(5, Vec{1, 2, 3})).has_value());
  // Collinear.
  std::vector<Vec> line;
  for (int i = 0; i < 6; ++i) line.push_back(Vec{1.0 * i, 2.0 * i, 3.0 * i});
  EXPECT_FALSE(hull3d_facets(line).has_value());
  // Coplanar.
  std::vector<Vec> plane;
  Rng rng(3);
  for (int i = 0; i < 8; ++i) {
    plane.push_back(Vec{rng.next_double(-1, 1), rng.next_double(-1, 1), 0.0});
  }
  EXPECT_FALSE(hull3d_facets(plane).has_value());
  // Two points, each twice, and a third within 1e-7 of one of them: a
  // restriction hull of `hydra run --n 6 --ts 1 --ta 1 --dim 3 --network
  // async-exp --adversary outlier --seed 88`. It passes the initial-simplex
  // checks, but a face of the simplex joins two equal points, so its normal
  // is zero and the kernel must decline rather than abort.
  const std::vector<Vec> near_equal{
      {6.9329765449801926, -2.018211689486634, 1.8246763671049848},
      {5.4457400599058019, -1.4575968298886437, 5.3251840879966039},
      {5.4457401109102648, -1.457596878928598, 5.3251841282763053},
      {6.9329765449801926, -2.018211689486634, 1.8246763671049848},
      {5.4457401109102648, -1.457596878928598, 5.3251841282763053}};
  EXPECT_FALSE(hull3d_facets(near_equal).has_value());
}

TEST(Hull3D, FacetsAgreeWithLpMembership) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pts = random_points(rng, 6 + rng.next_below(8), 5.0);
    const auto facets = hull3d_facets(pts);
    ASSERT_TRUE(facets.has_value()) << "trial " << trial;
    // Input points are inside their own hull.
    for (const auto& p : pts) {
      EXPECT_TRUE(satisfies_all(*facets, p, 1e-7)) << "trial " << trial;
    }
    // Random probes: facet membership == LP membership (modulo a boundary
    // band where the tolerance conventions differ).
    for (int probe = 0; probe < 12; ++probe) {
      const Vec q{rng.next_double(-6, 6), rng.next_double(-6, 6),
                  rng.next_double(-6, 6)};
      const bool facet_in = satisfies_all(*facets, q, 1e-8);
      const bool facet_in_wide = satisfies_all(*facets, q, 1e-4);
      if (facet_in != facet_in_wide) continue;  // boundary band
      EXPECT_EQ(facet_in, in_convex_hull(pts, q, 1e-8))
          << "trial " << trial << " q=" << to_string(q);
    }
  }
}

TEST(Hull3D, HullWithFarOutlier) {
  // The sliver regression in 3-D: a distant outlier must not erase small
  // geometry.
  auto pts = unit_cube();
  pts.push_back(Vec{1e6, -1e6, 1e6});
  const auto facets = hull3d_facets(pts);
  ASSERT_TRUE(facets.has_value());
  for (const auto& p : pts) {
    EXPECT_TRUE(satisfies_all(*facets, p, 1e-3));
  }
  EXPECT_FALSE(satisfies_all(*facets, Vec{-0.5, 0.5, 0.5}, 1e-3));
}

TEST(Hull3D, VertexEnumerationOfCube) {
  // The unit cube as 6 half-spaces -> exactly its 8 corners.
  std::vector<Plane3> planes;
  for (int d = 0; d < 3; ++d) {
    Vec plus(3, 0.0);
    plus[d] = 1.0;
    Vec minus(3, 0.0);
    minus[d] = -1.0;
    planes.push_back({plus, 1.0});
    planes.push_back({minus, 0.0});
  }
  const auto vertices = halfspace_intersection_vertices(planes, 1.0);
  ASSERT_TRUE(vertices.has_value());
  EXPECT_EQ(vertices->size(), 8u);
  EXPECT_NEAR(diameter(*vertices), std::sqrt(3.0), 1e-9);
}

TEST(Hull3D, VertexEnumerationOfEmptyIntersection) {
  // x <= 0 and x >= 1 simultaneously.
  std::vector<Plane3> planes{{Vec{1.0, 0.0, 0.0}, 0.0}, {Vec{-1.0, 0.0, 0.0}, -1.0},
                             {Vec{0.0, 1.0, 0.0}, 1.0}, {Vec{0.0, -1.0, 0.0}, 1.0},
                             {Vec{0.0, 0.0, 1.0}, 1.0}, {Vec{0.0, 0.0, -1.0}, 1.0}};
  const auto vertices = halfspace_intersection_vertices(planes, 1.0);
  ASSERT_TRUE(vertices.has_value());
  EXPECT_TRUE(vertices->empty());
}

TEST(Hull3D, PlaneBudgetRefusal) {
  std::vector<Plane3> planes;
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    Vec n{rng.next_gaussian(), rng.next_gaussian(), rng.next_gaussian()};
    const double len = norm(n);
    if (len < 1e-9) continue;
    n *= 1.0 / len;
    planes.push_back({n, 1.0});
  }
  EXPECT_FALSE(halfspace_intersection_vertices(planes, 1.0, 240).has_value());
}

// ------------------------------------------- SafeArea D = 3 integration

TEST(SafeArea3D, ExactKernelEngagesAndAgreesWithLp) {
  Rng rng(13);
  int exact_count = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto pts = random_points(rng, 6, 8.0);
    const auto sa = SafeArea::compute(pts, 1);
    ASSERT_FALSE(sa.empty()) << "trial " << trial;  // Lemma 5.5 shape
    if (sa.exact()) ++exact_count;
    // Every extreme point is in every restriction hull (validity).
    for (const auto& e : sa.extreme_points()) {
      EXPECT_TRUE(sa.contains(e, 1e-5)) << "trial " << trial;
    }
    const auto mid = sa.midpoint_rule();
    ASSERT_TRUE(mid.has_value());
    EXPECT_TRUE(sa.contains(*mid, 1e-5));
  }
  // Random full-dimensional configurations: the exact kernel should engage
  // nearly always.
  EXPECT_GE(exact_count, 18);
}

TEST(SafeArea3D, ExactDiameterAtLeastSampled) {
  // The sampled kernel under-estimates the diameter; the exact kernel must
  // dominate it.
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    const auto pts = random_points(rng, 6, 8.0);
    const auto exact = SafeArea::compute(pts, 1);
    if (!exact.exact()) continue;

    // Force the sampled path by exceeding the plane budget via options? The
    // kernel has no toggle, so compare against a support-sampled diameter
    // computed directly.
    std::vector<std::vector<Vec>> hulls;
    for (std::size_t drop = 0; drop < pts.size(); ++drop) {
      std::vector<Vec> h;
      for (std::size_t i = 0; i < pts.size(); ++i) {
        if (i != drop) h.push_back(pts[i]);
      }
      hulls.push_back(std::move(h));
    }
    double sampled = 0.0;
    std::vector<Vec> support;
    Rng dir_rng(99);
    for (int k = 0; k < 32; ++k) {
      Vec u{dir_rng.next_gaussian(), dir_rng.next_gaussian(), dir_rng.next_gaussian()};
      const double len = norm(u);
      if (len < 1e-9) continue;
      u *= 1.0 / len;
      if (const auto s = support_point(hulls, u)) support.push_back(*s);
    }
    sampled = diameter(support);
    EXPECT_GE(exact.diameter() + 1e-6, sampled) << "trial " << trial;
  }
}

TEST(SafeArea3D, DegenerateValuesFallBackGracefully) {
  // Duplicated values make restriction hulls rank-deficient; the kernel
  // must fall back to the LP path and still produce a valid midpoint.
  std::vector<Vec> pts(4, Vec{1.0, 2.0, 3.0});
  pts.push_back(Vec{1.0, 2.0, 3.0});
  pts.push_back(Vec{2.0, 2.0, 3.0});
  const auto sa = SafeArea::compute(pts, 1);
  ASSERT_FALSE(sa.empty());
  EXPECT_FALSE(sa.exact());
  const auto mid = sa.midpoint_rule();
  ASSERT_TRUE(mid.has_value());
  EXPECT_TRUE(sa.contains(*mid, 1e-5));
}

TEST(SafeArea3D, ByzantineOutlierStillValid) {
  // The canonical attack shape with the exact kernel engaged.
  const std::vector<Vec> values{{-100000, -100000, 100000},
                                {-6.0, -0.5, -0.9},
                                {8.9, 3.6, 1.5},
                                {-8.2, 5.8, -0.8},
                                {6.9, 7.4, -4.3},
                                {1.0, 1.0, 1.0}};
  const std::vector<Vec> honest(values.begin() + 1, values.end());
  const auto sa = SafeArea::compute(values, 1);
  ASSERT_FALSE(sa.empty());
  for (const auto& e : sa.extreme_points()) {
    EXPECT_TRUE(in_convex_hull(honest, e, 1e-3)) << to_string(e);
  }
}

}  // namespace
}  // namespace hydra::geo
