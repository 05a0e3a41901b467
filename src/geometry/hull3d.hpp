// Exact convex kernel for D = 3.
//
// Two primitives:
//  * hull3d_facets  — the half-space (H-) representation of the convex hull
//    of a full-dimensional 3-D point set, via quickhull. Degenerate inputs
//    (rank < 3) return nullopt, and the caller falls back to the LP kernel;
//    measure-zero configurations are exactly where an exact facet kernel
//    stops paying for its complexity.
//  * halfspace_intersection_vertices — the vertex (V-) representation of an
//    intersection of half-spaces, by enumerating plane triples. O(P^3) in
//    the deduplicated plane count P, which is why SafeArea only routes
//    through here when P stays small (the protocol's n <= ~10 regime).
//
// Together they make the D = 3 safe area exact: the intersection of the
// restriction hulls is the intersection of all their facet half-spaces, and
// its diameter pair is attained at the enumerated vertices.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "geometry/vec.hpp"

namespace hydra::geo {

/// The half-space { x : dot(n, x) <= c } with |n| = 1.
struct Plane3 {
  Vec n;
  double c = 0.0;
};

/// H-representation of conv(points) for full-dimensional 3-D input;
/// nullopt when the points are (numerically) coplanar/collinear/coincident
/// or any face comes out with a zero or non-finite normal.
/// `tol` is relative to the point-cloud extent.
[[nodiscard]] std::optional<std::vector<Plane3>> hull3d_facets(
    std::span<const Vec> points, double tol = 1e-10);

/// All vertices of the polytope { x : dot(p.n, x) <= p.c for all p }.
/// Near-duplicate planes are merged first; if more than `max_planes` remain
/// the O(P^3) enumeration is refused (nullopt). An EMPTY result means the
/// intersection is empty or has no vertex (an unbounded or tangent
/// lower-dimensional case) — callers cross-check with the LP kernel.
/// `scale` is the coordinate magnitude the tolerances are relative to.
[[nodiscard]] std::optional<std::vector<Vec>> halfspace_intersection_vertices(
    std::span<const Plane3> planes, double scale, std::size_t max_planes = 240,
    double tol = 1e-9);

}  // namespace hydra::geo
