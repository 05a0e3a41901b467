// Shared scaffolding of the paper-claim binaries (DESIGN.md §4): the one
// RunSpec factory, the adversarial ΠoBC view pairs of T2a and T8, the
// verdict cells of a run table, and the Claims accumulator that turns each
// printed paper prediction into the binary's exit status. Every claim
// binary is also a ctest labelled `paper` (bench/CMakeLists.txt).
#pragma once

#include <cstdarg>
#include <cstdio>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "geometry/vec.hpp"
#include "harness/runner.hpp"
#include "harness/table.hpp"
#include "protocols/aa_iteration.hpp"
#include "protocols/codec.hpp"

namespace hydra::claim {

/// The (D, n, ts, ta) shape that keys the rows of the claim tables.
struct Shape {
  std::size_t dim, n, ts, ta;

  /// The protocol parameters at this shape (Delta = 1000 ticks).
  [[nodiscard]] protocols::Params params(double eps = 1e-3) const {
    return {.n = n, .ts = ts, .ta = ta, .dim = dim, .eps = eps};
  }

  /// The D, n, ts, ta cells that open a table row.
  [[nodiscard]] std::vector<std::string> cells() const {
    return {harness::fmt(std::uint64_t{dim}), harness::fmt(std::uint64_t{n}),
            harness::fmt(std::uint64_t{ts}), harness::fmt(std::uint64_t{ta})};
  }
};

/// The one RunSpec factory of the claim binaries. Callers set anything else
/// (protocol, aggregation, fixed iterations, domain, monitors) on the result.
inline harness::RunSpec spec(const Shape& shape, double eps, harness::Workload workload,
                             double scale, harness::Network network,
                             harness::Adversary adversary, std::size_t corruptions,
                             std::uint64_t seed) {
  harness::RunSpec s;
  s.params = shape.params(eps);
  s.workload = workload;
  s.workload_scale = scale;
  s.network = network;
  s.adversary = adversary;
  s.corruptions = corruptions;
  s.seed = seed;
  return s;
}

/// A point with every coordinate uniform in [-scale, scale].
inline geo::Vec random_point(Rng& rng, std::size_t dim, double scale) {
  geo::Vec v(dim, 0.0);
  for (std::size_t d = 0; d < dim; ++d) v[d] = rng.next_double(-scale, scale);
  return v;
}

/// A random corner of [-magnitude, magnitude]^dim: the far outlier.
inline geo::Vec random_corner(Rng& rng, std::size_t dim, double magnitude) {
  geo::Vec v(dim, 0.0);
  for (std::size_t d = 0; d < dim; ++d) {
    v[d] = (rng.next_below(2) != 0u ? 1.0 : -1.0) * magnitude;
  }
  return v;
}

/// Honest values of a view pair are uniform in [-kViewScale, kViewScale]^D.
inline constexpr double kViewScale = 10.0;

/// One adversarial pair of ΠoBC-legal views (Theorem 4.4). Slots
/// [corruptions, n) draw honest values; each slot below takes
/// `byzantine(honest)`. A synchronous view is every honest pair plus any
/// Byzantine subset; an asynchronous one is any >= n - ts pairs sharing
/// >= n - ts with the other view. Both views here hold every honest pair,
/// which satisfies both, and each includes a Byzantine pair when its own
/// random mask says so. Returns delta(v1, v2) over the honest diameter for
/// the ΠAA-it outputs v1, v2, or nullopt when the honest values coincide;
/// the caller decides how a degenerate pair counts.
template <typename ByzantineDraw>
std::optional<double> view_pair_ratio(Rng& rng, const protocols::Params& p,
                                      std::size_t corruptions,
                                      ByzantineDraw&& byzantine) {
  std::vector<geo::Vec> honest;
  for (std::size_t i = corruptions; i < p.n; ++i) {
    honest.push_back(random_point(rng, p.dim, kViewScale));
  }
  protocols::PairList all;
  for (std::size_t i = 0; i < p.n; ++i) {
    all.emplace_back(static_cast<PartyId>(i),
                     i < corruptions ? byzantine(honest) : honest[i - corruptions]);
  }
  const auto view = [&](std::uint64_t mask) {
    protocols::PairList m;
    for (const auto& pair : all) {
      if (pair.first >= corruptions || ((mask >> pair.first) & 1u) != 0) m.push_back(pair);
    }
    return m;
  };
  const auto m1 = view(rng.next_u64());
  const auto m2 = view(rng.next_u64());
  const double honest_diam = geo::diameter(honest);
  if (honest_diam < 1e-12) return std::nullopt;
  return geo::distance(protocols::compute_new_value(p, m1),
                       protocols::compute_new_value(p, m2)) /
         honest_diam;
}

/// The live / valid / agree / out-diam cells of a run table row.
inline std::vector<std::string> verdict_cells(const harness::Verdict& v) {
  return {harness::fmt_ok(v.live), harness::fmt_ok(v.valid),
          harness::fmt_ok(v.agreed), harness::fmt(v.output_diameter)};
}

/// Concatenates cell groups into one table row.
inline std::vector<std::string> row(std::initializer_list<std::vector<std::string>> groups) {
  std::vector<std::string> out;
  for (const auto& group : groups) out.insert(out.end(), group.begin(), group.end());
  return out;
}

/// Turns each printed paper prediction into a check. A broken one prints one
/// line and makes main return 1; a run where every check holds prints
/// nothing extra.
class Claims {
 public:
  /// Records one check; `format` (printf-style) describes the break and is
  /// printed only when `holds` is false. Returns `holds`.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((format(printf, 3, 4)))
#endif
  bool check(bool holds, const char* format, ...) {
    if (holds) return true;
    ++broken_;
    std::va_list args;
    va_start(args, format);
    std::printf("CLAIM BROKEN: ");
    std::vprintf(format, args);
    std::printf("\n");
    va_end(args);
    return false;
  }

  /// main's exit status: 1 when any check broke.
  [[nodiscard]] int exit_code() const { return broken_ == 0 ? 0 : 1; }

 private:
  int broken_ = 0;
};

}  // namespace hydra::claim
