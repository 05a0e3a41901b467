#include "protocols/aa_iteration.hpp"

#include <atomic>

#include "common/assert.hpp"
#include "domain/domain.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"

namespace hydra::protocols {
namespace {

// The fallback count lives in the run's obs::Context (parallel sweeps run
// many isolated counters at once); without a context it is not counted. The
// domain layer cannot see obs, so it reports fallbacks in AggregateResult
// and this wrapper notes them.
void note_fallback() {
  if (obs::Context* ctx = obs::current_context()) ctx->safe_area_fallbacks.fetch_add(1);
  if (obs::enabled()) {
    obs::registry().counter("aa.safe_area_fallbacks").inc();
  }
}

}  // namespace

geo::Vec compute_new_value(const Params& params, const PairList& m) {
  // Wall-clock timing of the geometry kernel lives in the phase profiler
  // ("aa.safe_area", with the geo.* kernels as children), which exports to
  // the perf JSON side-channel only — so the registry snapshot, like the
  // trace, is byte-deterministic per (spec, seed). Only the deterministic
  // call count stays a registry metric.
  HYDRA_PROF_SCOPE("aa.safe_area");
  if (obs::enabled()) obs::registry().counter("aa.safe_area_calls").inc();

  HYDRA_ASSERT(m.size() >= params.n - params.ts);
  HYDRA_ASSERT(m.size() <= params.n);
  const domain::AggregateSpec spec{
      params.n, params.ts, params.ta,
      params.aggregation == Aggregation::kCentroid, params.safe_opts};
  const auto values = values_of(m);
  auto result = domain::resolve(params.domain).aggregate(spec, values);
  for (std::uint32_t i = 0; i < result.fallbacks; ++i) note_fallback();
  return std::move(result.value);
}

}  // namespace hydra::protocols
