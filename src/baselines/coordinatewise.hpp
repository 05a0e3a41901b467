// Coordinate-wise decomposition baseline: run D independent 1-D Approximate
// Agreement instances, one per coordinate, and assemble the output vector.
//
// This is the classical strawman whose failure motivates multidimensional
// AA (Mendes-Herlihy [26], Vaidya-Garg [32]): per-coordinate agreement only
// confines the output to the BOUNDING BOX of the honest inputs, not their
// convex hull. A Byzantine party (or just asynchronous scheduling) can
// steer different coordinates toward different honest parties' values,
// producing an output like (1, 1) from honest inputs (0,0), (1,0), (0,1) —
// inside every coordinate range, far outside the hull.
//
// Implementation: a serve::InstanceMux hosting one 1-D ΠAA instance per
// coordinate (instance d = coordinate d). Liveness and per-coordinate
// agreement are inherited; only multidimensional VALIDITY is lost — exactly
// what bench_coordinatewise measures.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "common/assert.hpp"
#include "protocols/aa.hpp"
#include "serve/instance_mux.hpp"

namespace hydra::baselines {

class CoordinatewiseParty final : public sim::IParty {
 public:
  /// Why the decomposition cannot run for `params`, or nullopt when it can.
  /// Callers with a user (CLI, benches) surface this BEFORE constructing a
  /// party — the constructor aborts on infeasible parameters, which is the
  /// right contract for protocol code but useless as a user error.
  [[nodiscard]] static std::optional<std::string> feasibility_error(
      const protocols::Params& params) {
    protocols::Params scalar = params;
    scalar.dim = 1;
    if (scalar.feasible()) return std::nullopt;
    return "coordinatewise decomposition runs one 1-D session per "
           "coordinate, which needs n > 2 ts + ta and n > 3 ts; n=" +
           std::to_string(params.n) + " ts=" + std::to_string(params.ts) +
           " ta=" + std::to_string(params.ta) +
           " violates that (raise n or lower ts/ta)";
  }

  /// `params.dim` is the vector dimension D; each coordinate runs a 1-D
  /// instance with the same (n, ts, ta, eps, delta). The 1-D instances need
  /// n > 3 ts and n > 2 ts + ta (the library's D = 1 requirements).
  /// `directory` is shared by every party hosting a CoordinatewiseParty,
  /// built as InstanceDirectory(D, number of such parties): a coordinate's
  /// instance retires once all of them decided it.
  CoordinatewiseParty(const protocols::Params& params, const geo::Vec& input,
                      serve::InstanceDirectory& directory)
      : dim_(params.dim), mux_(mux_config(params, input, directory)) {}

  void start(sim::Env& env) override { mux_.start(env); }
  void on_message(sim::Env& env, PartyId from, const sim::Message& msg) override {
    mux_.on_message(env, from, msg);
  }
  void on_timer(sim::Env& env, std::uint64_t timer_id) override {
    mux_.on_timer(env, timer_id);
  }

  [[nodiscard]] bool has_output() const { return mux_.all_done(); }

  /// The assembled vector; only meaningful once has_output().
  [[nodiscard]] geo::Vec output() const {
    geo::Vec out(dim_, 0.0);
    for (std::uint32_t d = 0; d < dim_; ++d) out[d] = mux_.record(d).output[0];
    return out;
  }

 private:
  static serve::InstanceMux::Config mux_config(const protocols::Params& params,
                                               const geo::Vec& input,
                                               serve::InstanceDirectory& directory) {
    HYDRA_ASSERT(input.dim() == params.dim);
    HYDRA_ASSERT_MSG(!feasibility_error(params).has_value(),
                     "1-D sessions need n > 2 ts + ta and n > 3 ts");
    protocols::Params scalar = params;
    scalar.dim = 1;
    serve::InstanceMux::Config cfg;
    cfg.instances = static_cast<std::uint32_t>(params.dim);
    // The serving engine's default linger: echo tails drain into live slots.
    cfg.linger = 8 * params.delta;
    cfg.gc_retry = params.delta;
    cfg.directory = &directory;
    cfg.make_party = [scalar, input](std::uint32_t d) {
      return std::make_unique<protocols::AaParty>(scalar, geo::Vec{input[d]});
    };
    cfg.decided = [](const sim::IParty& party, std::uint32_t) {
      return static_cast<const protocols::AaParty&>(party).has_output();
    };
    cfg.snapshot = [](std::uint32_t, const sim::IParty& party,
                      serve::InstanceRecord& rec) {
      rec.has_output = true;
      rec.output = static_cast<const protocols::AaParty&>(party).output();
    };
    return cfg;
  }

  std::size_t dim_;
  serve::InstanceMux mux_;
};

}  // namespace hydra::baselines
