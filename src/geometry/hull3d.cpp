#include "geometry/hull3d.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>

#include "common/assert.hpp"
#include "obs/prof.hpp"

namespace hydra::geo {
namespace {

struct V3 {
  double x = 0.0, y = 0.0, z = 0.0;

  V3() = default;
  V3(double x_, double y_, double z_) : x(x_), y(y_), z(z_) {}
  explicit V3(const Vec& v) : x(v[0]), y(v[1]), z(v[2]) {}

  V3 operator-(const V3& o) const { return {x - o.x, y - o.y, z - o.z}; }
  V3 operator+(const V3& o) const { return {x + o.x, y + o.y, z + o.z}; }
  V3 operator*(double s) const { return {x * s, y * s, z * s}; }
};

double dot3(const V3& a, const V3& b) { return a.x * b.x + a.y * b.y + a.z * b.z; }
V3 cross3(const V3& a, const V3& b) {
  return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z, a.x * b.y - a.y * b.x};
}
double norm3(const V3& a) { return std::sqrt(dot3(a, a)); }

struct Face {
  std::array<std::size_t, 3> v{};  // vertex indices, CCW seen from outside
  V3 n;                            // unit outward normal
  double c = 0.0;                  // dot(n, x) <= c inside
  bool alive = true;
  std::vector<std::size_t> outside;  // conflict list
};

/// Signed distance of point i above face f.
double height(const Face& f, const V3& p) { return dot3(f.n, p) - f.c; }

/// The face (a, b, c) oriented away from `interior`; nullopt when its
/// normal is zero or not finite (coincident or collinear corners: duplicate
/// and near-equal input points can get past the initial-simplex checks).
std::optional<Face> make_face(std::size_t a, std::size_t b, std::size_t c,
                              const std::vector<V3>& pts, const V3& interior) {
  Face f;
  f.v = {a, b, c};
  V3 n = cross3(pts[b] - pts[a], pts[c] - pts[a]);
  const double len = norm3(n);
  if (!std::isfinite(len) || len <= 0.0) return std::nullopt;
  n = n * (1.0 / len);
  double off = dot3(n, pts[a]);
  if (dot3(n, interior) > off) {  // flip outward
    n = n * -1.0;
    off = -off;
    std::swap(f.v[1], f.v[2]);
  }
  f.n = n;
  f.c = off;
  return f;
}

}  // namespace

std::optional<std::vector<Plane3>> hull3d_facets(std::span<const Vec> points,
                                                 double tol) {
  HYDRA_PROF_SCOPE("geo.hull3d.facets");
  if (points.size() < 4) return std::nullopt;
  for ([[maybe_unused]] const auto& p : points) HYDRA_ASSERT(p.dim() == 3);

  // Normalize (translate to centroid, scale to unit box) so every epsilon
  // below is relative.
  Vec center(3, 0.0);
  for (const auto& p : points) center += p;
  center *= 1.0 / static_cast<double>(points.size());
  double extent = 0.0;
  for (const auto& p : points) {
    for (int d = 0; d < 3; ++d) extent = std::max(extent, std::abs(p[d] - center[d]));
  }
  if (extent <= 0.0) return std::nullopt;  // all points coincide

  std::vector<V3> pts;
  pts.reserve(points.size());
  for (const auto& p : points) {
    pts.emplace_back((p[0] - center[0]) / extent, (p[1] - center[1]) / extent,
                     (p[2] - center[2]) / extent);
  }
  const double eps = std::max(tol, 1e-12);

  // Initial simplex: farthest pair among axis extremes, then farthest from
  // the line, then farthest from the plane.
  std::size_t i0 = 0;
  std::size_t i1 = 0;
  double best = -1.0;
  for (int axis = 0; axis < 3; ++axis) {
    std::size_t lo = 0;
    std::size_t hi = 0;
    for (std::size_t i = 1; i < pts.size(); ++i) {
      const double v = axis == 0 ? pts[i].x : axis == 1 ? pts[i].y : pts[i].z;
      const double vlo = axis == 0 ? pts[lo].x : axis == 1 ? pts[lo].y : pts[lo].z;
      const double vhi = axis == 0 ? pts[hi].x : axis == 1 ? pts[hi].y : pts[hi].z;
      if (v < vlo) lo = i;
      if (v > vhi) hi = i;
    }
    const double d = norm3(pts[hi] - pts[lo]);
    if (d > best) {
      best = d;
      i0 = lo;
      i1 = hi;
    }
  }
  if (best < eps) return std::nullopt;

  const V3 dir = (pts[i1] - pts[i0]) * (1.0 / best);
  std::size_t i2 = i0;
  best = -1.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const V3 w = pts[i] - pts[i0];
    const V3 perp = w - dir * dot3(w, dir);
    const double d = norm3(perp);
    if (d > best) {
      best = d;
      i2 = i;
    }
  }
  if (best < eps) return std::nullopt;  // collinear

  V3 plane_n = cross3(pts[i1] - pts[i0], pts[i2] - pts[i0]);
  plane_n = plane_n * (1.0 / norm3(plane_n));
  std::size_t i3 = i0;
  best = -1.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double d = std::abs(dot3(plane_n, pts[i] - pts[i0]));
    if (d > best) {
      best = d;
      i3 = i;
    }
  }
  if (best < eps) return std::nullopt;  // coplanar

  const V3 interior =
      (pts[i0] + pts[i1] + pts[i2] + pts[i3]) * 0.25;

  // A degenerate face anywhere declines the whole hull; the caller falls
  // back to the LP kernel.
  std::vector<Face> faces;
  for (const auto& [a, b, c] : {std::array{i0, i1, i2}, std::array{i0, i1, i3},
                                std::array{i0, i2, i3}, std::array{i1, i2, i3}}) {
    auto face = make_face(a, b, c, pts, interior);
    if (!face) return std::nullopt;
    faces.push_back(std::move(*face));
  }

  // Conflict lists.
  const double lift = 4.0 * eps;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (auto& f : faces) {
      if (height(f, pts[i]) > lift) {
        f.outside.push_back(i);
        break;
      }
    }
  }

  // Quickhull main loop. Faces are scanned linearly for visibility — fine
  // at protocol scales (tens of points).
  const std::size_t max_rounds = 4 * pts.size() + 64;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    // Find a face with a non-empty conflict list.
    std::size_t fi = faces.size();
    for (std::size_t i = 0; i < faces.size(); ++i) {
      if (faces[i].alive && !faces[i].outside.empty()) {
        fi = i;
        break;
      }
    }
    if (fi == faces.size()) break;  // done

    // Farthest conflict point of that face.
    const auto& conflict = faces[fi].outside;
    std::size_t apex = conflict[0];
    double h_best = -1.0;
    for (const auto i : conflict) {
      const double h = height(faces[fi], pts[i]);
      if (h > h_best) {
        h_best = h;
        apex = i;
      }
    }
    const V3 p = pts[apex];

    // Visible faces and their orphaned conflict points.
    std::vector<std::size_t> visible;
    std::vector<std::size_t> orphans;
    for (std::size_t i = 0; i < faces.size(); ++i) {
      if (faces[i].alive && height(faces[i], p) > lift) {
        visible.push_back(i);
        orphans.insert(orphans.end(), faces[i].outside.begin(),
                       faces[i].outside.end());
        faces[i].outside.clear();
      }
    }
    HYDRA_ASSERT(!visible.empty());

    // Horizon: directed edges of visible faces whose reverse edge is not in
    // a visible face.
    std::map<std::pair<std::size_t, std::size_t>, int> edge_count;
    for (const auto i : visible) {
      const auto& v = faces[i].v;
      for (int e = 0; e < 3; ++e) {
        edge_count[{v[e], v[(e + 1) % 3]}] += 1;
      }
    }
    std::vector<std::pair<std::size_t, std::size_t>> horizon;
    for (const auto& [edge, count] : edge_count) {
      if (edge_count.find({edge.second, edge.first}) == edge_count.end()) {
        horizon.push_back(edge);
      }
    }
    for (const auto i : visible) faces[i].alive = false;

    // New cone of faces from the apex over the horizon.
    std::vector<std::size_t> fresh;
    for (const auto& [a, b] : horizon) {
      // Skip degenerate slivers (apex collinear with the edge).
      const V3 cr = cross3(pts[b] - pts[a], p - pts[a]);
      if (norm3(cr) < eps * eps) continue;
      auto face = make_face(a, b, apex, pts, interior);
      if (!face) return std::nullopt;
      faces.push_back(std::move(*face));
      fresh.push_back(faces.size() - 1);
    }

    // Reassign orphans.
    for (const auto i : orphans) {
      if (i == apex) continue;
      for (const auto f : fresh) {
        if (height(faces[f], pts[i]) > lift) {
          faces[f].outside.push_back(i);
          break;
        }
      }
    }
  }

  // Any leftover conflict points mean the round budget was hit: bail to the
  // LP kernel rather than return a wrong hull.
  for (const auto& f : faces) {
    if (f.alive && !f.outside.empty()) return std::nullopt;
  }

  // Map planes back to original coordinates:
  // dot(n, (x - center)/extent) <= c  ==>  dot(n, x) <= c*extent + dot(n, center).
  std::vector<Plane3> planes;
  for (const auto& f : faces) {
    if (!f.alive) continue;
    Vec n{f.n.x, f.n.y, f.n.z};
    const double c = f.c * extent + f.n.x * center[0] + f.n.y * center[1] +
                     f.n.z * center[2];
    planes.push_back(Plane3{std::move(n), c});
  }
  return planes;
}

std::optional<std::vector<Vec>> halfspace_intersection_vertices(
    std::span<const Plane3> planes, double scale, std::size_t max_planes,
    double tol) {
  HYDRA_PROF_SCOPE("geo.hull3d.vertices");
  // Deduplicate near-identical planes (restriction hulls share most facets).
  std::vector<Plane3> unique;
  for (const auto& p : planes) {
    const bool dup = std::any_of(unique.begin(), unique.end(), [&](const Plane3& q) {
      return std::abs(p.n[0] - q.n[0]) < 1e-9 && std::abs(p.n[1] - q.n[1]) < 1e-9 &&
             std::abs(p.n[2] - q.n[2]) < 1e-9 && std::abs(p.c - q.c) < 1e-9 * scale;
    });
    if (!dup) unique.push_back(p);
  }
  if (unique.size() > max_planes) return std::nullopt;

  std::vector<Vec> vertices;
  const std::size_t m = unique.size();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      for (std::size_t k = j + 1; k < m; ++k) {
        const auto& a = unique[i].n;
        const auto& b = unique[j].n;
        const auto& c = unique[k].n;
        // Cramer's rule on the 3x3 system n_i . x = c_i.
        const double det = a[0] * (b[1] * c[2] - b[2] * c[1]) -
                           a[1] * (b[0] * c[2] - b[2] * c[0]) +
                           a[2] * (b[0] * c[1] - b[1] * c[0]);
        // Unit normals make det scale-free; near-degenerate triples produce
        // ill-conditioned vertices (error ~ eps_machine * scale / det), so
        // they are skipped — a true vertex they would have defined is also
        // defined by some better-conditioned triple or deduped away.
        if (std::abs(det) < 1e-6) continue;
        const double d0 = unique[i].c;
        const double d1 = unique[j].c;
        const double d2 = unique[k].c;
        const double x = (d0 * (b[1] * c[2] - b[2] * c[1]) -
                          a[1] * (d1 * c[2] - b[2] * d2) +
                          a[2] * (d1 * c[1] - b[1] * d2)) /
                         det;
        const double y = (a[0] * (d1 * c[2] - b[2] * d2) -
                          d0 * (b[0] * c[2] - b[2] * c[0]) +
                          a[2] * (b[0] * d2 - d1 * c[0])) /
                         det;
        const double z = (a[0] * (b[1] * d2 - d1 * c[1]) -
                          a[1] * (b[0] * d2 - d1 * c[0]) +
                          d0 * (b[0] * c[1] - b[1] * c[0])) /
                         det;
        const Vec v{x, y, z};
        // Feasibility tolerance relative to THIS vertex's magnitude: a
        // global scale (dominated by a distant Byzantine outlier) would
        // admit spurious vertices far outside the small honest geometry.
        const double local =
            std::max({1.0, std::abs(x), std::abs(y), std::abs(z)});
        const double feas_eps = tol * 1e2 * local;
        bool inside = true;
        for (const auto& p : unique) {
          if (dot(p.n, v) > p.c + feas_eps) {
            inside = false;
            break;
          }
        }
        if (!inside) continue;
        const bool dup = std::any_of(vertices.begin(), vertices.end(),
                                     [&](const Vec& w) {
                                       return approx_equal(v, w, 1e-7 * scale);
                                     });
        if (!dup) vertices.push_back(v);
      }
    }
  }
  return vertices;
}

}  // namespace hydra::geo
