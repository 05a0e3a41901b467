// Decorators that wrap the public seams between the library's layers, so the
// benchmark can time each layer from its own files without touching src/.
//
//   LayerBackend  wraps net::Backend::run. Registered under new names
//                 ("bench-probe-<inner>", "bench-trace-<inner>") because
//                 net::register_backend replaces an existing registration.
//                 Probe mode only harvests per-agreement results after the
//                 run; trace mode also installs a profiler and wraps every
//                 party.
//   TracedParty   wraps every sim::IParty the backend receives
//                 (start/on_message/on_timer -> span "bench.party").
//   TracedEnv     the Env the party wrapper hands to the protocol
//                 (send/broadcast -> span "bench.net").
//   TimedDomain   a ValueDomain forwarding to euclid(), timing aggregate
//                 (span "bench.geometry"); serve workloads pass it in
//                 ServeSpec::params.domain.
//
// Spans are obs::Profiler phases (HYDRA_PROF_SCOPE), so the program's own
// phases (geo.lp.simplex, sim.event, ...) nest under them and self times
// partition the traced pass. obs::enabled() stays off throughout.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "domain/domain.hpp"
#include "net/backend.hpp"
#include "obs/prof.hpp"

namespace agreebench {

using Clock = std::chrono::steady_clock;

/// What one Backend::run call left behind, harvested before the caller
/// (harness::execute or serve::run_serve) tears the parties down.
struct RunRecord {
  hydra::net::BackendStats stats;
  Clock::time_point entry;  ///< when Backend::run was entered

  /// Solo runs: latest honest AaParty::output_time, in ticks.
  hydra::Time decision_time = 0;
  /// Serve runs, per instance k: every honest party decided, the latest
  /// honest decision minus the due time k * interarrival, and the latest
  /// admission minus the due time (all in ticks).
  std::vector<bool> decided;
  std::vector<hydra::Time> due_latency;
  std::vector<hydra::Time> admission_lag;
  /// Trace mode: run() entry to the first IParty::start, and the highest
  /// thread count seen in /proc/self/status while handlers ran.
  double setup_ms = 0.0;
  std::uint64_t threads_peak = 0;
  /// Trace mode: safe-area fallbacks counted during the run.
  std::uint64_t fallbacks = 0;
};

/// Shared between the benchmark loop and the registered decorators. The loop sets
/// the fields describing the next call, then reads `records` back. One
/// thread issues calls, one at a time.
struct Collector {
  std::size_t corruptions = 0;     ///< solo: party ids below this are Byzantine
  std::uint32_t instances = 0;     ///< serve: instances per run (0 = solo)
  hydra::Time interarrival = 0;    ///< serve: instance k is due at k * this
  hydra::obs::Profiler* run_profiler = nullptr;  ///< trace mode: in-run phases
  std::vector<RunRecord> records;
};

/// Registers "bench-probe-<name>" and "bench-trace-<name>" decorators over
/// each named builtin backend. Call after harness::ensure_backends_registered.
void register_decorators(Collector& collector);

/// Forwards everything to the Euclidean domain and times aggregate().
class TimedDomain final : public hydra::domain::ValueDomain {
 public:
  [[nodiscard]] std::string_view name() const noexcept override;
  [[nodiscard]] bool validate(const hydra::geo::Vec& v) const override;
  [[nodiscard]] double distance(const hydra::geo::Vec& a,
                                const hydra::geo::Vec& b) const override;
  [[nodiscard]] double diameter(
      std::span<const hydra::geo::Vec> points) const override;
  [[nodiscard]] hydra::domain::AggregateResult aggregate(
      const hydra::domain::AggregateSpec& spec,
      std::span<const hydra::geo::Vec> values) const override;
  [[nodiscard]] bool in_validity_set(std::span<const hydra::geo::Vec> basis,
                                     const hydra::geo::Vec& candidate,
                                     double tol) const override;
  [[nodiscard]] double contraction_factor() const noexcept override;
  [[nodiscard]] double contraction_bound(double factor,
                                         double prev_diameter) const override;
  [[nodiscard]] std::uint64_t sufficient_iterations(double eps,
                                                    double diam) const override;
  [[nodiscard]] bool feasible(std::size_t n, std::size_t ts, std::size_t ta,
                              std::size_t dim) const noexcept override;
  [[nodiscard]] std::optional<std::size_t> required_dim() const noexcept override;
  [[nodiscard]] double min_eps() const noexcept override;
  [[nodiscard]] std::optional<std::vector<hydra::geo::Vec>> make_inputs(
      std::size_t n, std::size_t dim, double scale,
      std::uint64_t seed) const override;
  [[nodiscard]] std::string format_value(const hydra::geo::Vec& v) const override;
};

}  // namespace agreebench
