#include "harness/workloads.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "domain/domain.hpp"

namespace hydra::harness {

std::string to_string(Workload workload) {
  switch (workload) {
    case Workload::kUniformBall: return "ball";
    case Workload::kSimplexCorners: return "simplex";
    case Workload::kClustered: return "clustered";
    case Workload::kCollinear: return "collinear";
    case Workload::kGaussian: return "gaussian";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const auto workload :
       {Workload::kUniformBall, Workload::kSimplexCorners, Workload::kClustered,
        Workload::kCollinear, Workload::kGaussian}) {
    if (to_string(workload) == name) return workload;
  }
  return std::nullopt;
}

std::vector<geo::Vec> make_inputs(Workload workload, std::size_t n, std::size_t dim,
                                  double scale, std::uint64_t seed,
                                  const domain::ValueDomain* dom) {
  HYDRA_ASSERT(n > 0 && dim > 0);
  if (dom != nullptr) {
    if (auto own = dom->make_inputs(n, dim, scale, seed)) return std::move(*own);
  }
  Rng rng(seed ^ 0x3c6ef372fe94f82bULL);
  std::vector<geo::Vec> inputs;
  inputs.reserve(n);

  switch (workload) {
    case Workload::kUniformBall: {
      for (std::size_t i = 0; i < n; ++i) {
        // Rejection-sample the unit ball, then scale.
        geo::Vec v(dim, 0.0);
        double len2 = 2.0;
        while (len2 > 1.0) {
          len2 = 0.0;
          for (std::size_t d = 0; d < dim; ++d) {
            v[d] = rng.next_double(-1.0, 1.0);
            len2 += v[d] * v[d];
          }
        }
        v *= scale;
        inputs.push_back(std::move(v));
      }
      break;
    }
    case Workload::kSimplexCorners: {
      // The Theorem 3.1 construction: inputs are scale * e_d for d in
      // {0, .., D}, where e_0 = 0 and e_d is the d-th unit vector.
      for (std::size_t i = 0; i < n; ++i) {
        geo::Vec v(dim, 0.0);
        const std::size_t corner = i % (dim + 1);
        if (corner > 0) v[corner - 1] = scale;
        inputs.push_back(std::move(v));
      }
      break;
    }
    case Workload::kClustered: {
      geo::Vec offset(dim, 0.0);
      offset[0] = scale;
      for (std::size_t i = 0; i < n; ++i) {
        geo::Vec v(dim, 0.0);
        for (std::size_t d = 0; d < dim; ++d) v[d] = rng.next_gaussian() * scale * 0.01;
        if (i % 2 == 1) v += offset;
        inputs.push_back(std::move(v));
      }
      break;
    }
    case Workload::kCollinear: {
      geo::Vec direction(dim, 1.0 / std::sqrt(static_cast<double>(dim)));
      for (std::size_t i = 0; i < n; ++i) {
        inputs.push_back(direction * (scale * rng.next_double()));
      }
      break;
    }
    case Workload::kGaussian: {
      for (std::size_t i = 0; i < n; ++i) {
        geo::Vec v(dim, 0.0);
        for (std::size_t d = 0; d < dim; ++d) v[d] = rng.next_gaussian() * scale;
        inputs.push_back(std::move(v));
      }
      break;
    }
  }
  return inputs;
}

}  // namespace hydra::harness
