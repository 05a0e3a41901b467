#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "adversary/behaviors.hpp"
#include "common/assert.hpp"
#include "harness/oracles.hpp"
#include "net/backend.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "protocols/aa.hpp"
#include "serve/instance_mux.hpp"

namespace hydra::serve {
namespace {

using protocols::AaParty;

/// One instance's monitoring kit: a MonitorHost plus the private registry
/// and context that scope its hooks to exactly that instance's dispatches.
struct InstanceObs {
  explicit InstanceObs(obs::MonitorHost::Config config)
      : host(std::move(config)) {
    ctx.registry = &registry;
    ctx.monitors = &host;
    ctx.enabled = true;
  }

  obs::Registry registry;
  obs::MonitorHost host;
  obs::Context ctx;
};

}  // namespace

ServeResult run_serve(const ServeSpec& spec) {
  const protocols::Params& p = spec.params;
  HYDRA_ASSERT_MSG(spec.instances >= 1 && spec.instances <= kMaxInstances,
                   "serve: instance count out of the tag-bit range");
  HYDRA_ASSERT_MSG(spec.corruptions < p.n,
                   "serve: corruptions must leave an honest majority slot");
  HYDRA_ASSERT_MSG(spec.adversary == harness::Adversary::kNone ||
                       spec.adversary == harness::Adversary::kSilent ||
                       spec.adversary == harness::Adversary::kCrash,
                   "serve: only the schedule-bound adversaries (none, silent, "
                   "crash) are supported per instance");
  HYDRA_ASSERT(spec.interarrival >= 0);
  const Duration linger = spec.linger >= 0 ? spec.linger : 8 * p.delta;

  // Which instances run adversary code in the corrupted party slots.
  std::vector<bool> corrupt(spec.instances, false);
  const bool adversarial =
      spec.adversary != harness::Adversary::kNone && spec.corruptions > 0;
  if (adversarial) {
    for (const std::uint32_t k : spec.corrupt_instances) {
      HYDRA_ASSERT_MSG(k < spec.instances,
                       "serve: corrupt_instances names an instance >= instances");
      corrupt[k] = true;
    }
  }

  // Inputs are a pure function of (spec, instance): instance k draws from
  // the solo seed instance_seed(spec.seed, k), so a single-instance
  // harness run with that seed reproduces it exactly (the isolation tests
  // compare against exactly such runs).
  std::vector<std::vector<geo::Vec>> inputs(spec.instances);
  for (std::uint32_t k = 0; k < spec.instances; ++k) {
    inputs[k] = harness::make_inputs(spec.workload, p.n, p.dim, spec.workload_scale,
                                     instance_seed(spec.seed, k), p.domain);
  }
  const auto is_corrupt_slot = [&](std::uint32_t instance, PartyId id) {
    return corrupt[instance] && id < spec.corruptions;
  };

  // Each instance runs like a single hybrid-protocol run of this spec: the
  // harness builds its monitor configuration and its network model.
  harness::RunSpec run_spec;
  run_spec.params = p;
  run_spec.network = spec.network;
  run_spec.adversary = spec.adversary;
  run_spec.corruptions = adversarial ? spec.corruptions : 0;
  run_spec.monitors = spec.monitors;

  // Per-instance invariant monitors. One host per instance, shared by all n
  // muxes (its hooks serialize internally); installed around dispatches via
  // the mux's instance_context hook, so each host observes exactly its own
  // instance's sends/values/deliveries.
  std::vector<std::unique_ptr<InstanceObs>> monitors;
  if (spec.monitors != obs::MonitorMode::kOff) {
    monitors.reserve(spec.instances);
    for (std::uint32_t k = 0; k < spec.instances; ++k) {
      std::vector<bool> honest(p.n, true);
      std::vector<geo::Vec> honest_inputs;
      for (PartyId id = 0; id < p.n; ++id) {
        honest[id] = !is_corrupt_slot(k, id);
        if (honest[id]) honest_inputs.push_back(inputs[k][id]);
      }
      monitors.push_back(std::make_unique<InstanceObs>(*harness::make_monitor_config(
          run_spec, p, honest, std::move(honest_inputs))));
    }
  }

  // Every party must decide every instance before its slot retires; corrupt
  // slots count as decided from admission (mirroring the single-run
  // harness, where Byzantine slots are finished from the start).
  InstanceDirectory directory(spec.instances, static_cast<std::uint32_t>(p.n));

  std::vector<std::unique_ptr<sim::IParty>> parties;
  std::vector<const InstanceMux*> muxes;
  parties.reserve(p.n);
  muxes.reserve(p.n);
  for (PartyId id = 0; id < p.n; ++id) {
    InstanceMux::Config cfg;
    cfg.instances = spec.instances;
    cfg.interarrival = spec.interarrival;
    cfg.linger = linger;
    cfg.gc_retry = p.delta;
    cfg.directory = &directory;
    cfg.make_party = [&spec, &inputs, &is_corrupt_slot, &p,
                      id](std::uint32_t instance) -> std::unique_ptr<sim::IParty> {
      if (is_corrupt_slot(instance, id)) {
        if (spec.adversary == harness::Adversary::kCrash) {
          // Same crash schedule as the single-run harness, shifted to the
          // instance's admission tick (solo time 0 = arrival here).
          const Time arrival = Time{instance} * spec.interarrival;
          return std::make_unique<adversary::CrashParty>(
              std::make_unique<AaParty>(p, inputs[instance][id]),
              arrival + harness::crash_tick(p, id));
        }
        return std::make_unique<adversary::SilentParty>();
      }
      return std::make_unique<AaParty>(p, inputs[instance][id]);
    };
    cfg.decided = [&is_corrupt_slot, id](const sim::IParty& party,
                                         std::uint32_t instance) {
      if (is_corrupt_slot(instance, id)) return true;
      return static_cast<const AaParty&>(party).has_output();
    };
    cfg.snapshot = [&is_corrupt_slot, id](std::uint32_t instance,
                                          const sim::IParty& party,
                                          InstanceRecord& rec) {
      if (is_corrupt_slot(instance, id)) {
        rec.corrupt_slot = true;
        return;
      }
      const auto& aa = static_cast<const AaParty&>(party);
      rec.has_output = aa.has_output();
      if (rec.has_output) rec.output = aa.output();
      rec.output_iteration = aa.output_iteration();
    };
    if (!monitors.empty()) {
      cfg.instance_context = [&monitors](std::uint32_t instance) {
        return &monitors[instance]->ctx;
      };
    }
    auto mux = std::make_unique<InstanceMux>(std::move(cfg));
    muxes.push_back(mux.get());
    parties.push_back(std::move(mux));
  }

  auto backend = harness::make_backend(
      "ServeSpec::backend", spec.backend,
      net::BackendConfig{.n = p.n,
                         .delta = p.delta,
                         .seed = spec.seed,
                         .max_time = spec.max_time,
                         .us_per_tick = spec.us_per_tick,
                         .timeout_ms = spec.timeout_ms,
                         .endpoints = spec.endpoints,
                         .instance_tag_limit = spec.instances},
      harness::make_network(run_spec));

  const auto finished = [](const sim::IParty& party, PartyId) {
    return static_cast<const InstanceMux&>(party).all_done();
  };
  const auto wall_start = std::chrono::steady_clock::now();
  const auto stats = backend->run(parties, finished);
  const auto wall_end = std::chrono::steady_clock::now();

  ServeResult result;
  result.messages = stats.wire.messages;
  result.bytes = stats.wire.bytes;
  result.end_time = stats.end_time;
  result.hit_limit = stats.hit_limit;
  result.timed_out = stats.timed_out;
  result.wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                       wall_end - wall_start)
                       .count();
  result.frames_auth_dropped = stats.frames_auth_dropped;
  result.frames_decode_dropped = stats.frames_decode_dropped;
  result.transport_health = stats.health;
  for (const InstanceMux* mux : muxes) {
    result.late_dropped += mux->late_dropped();
    result.unknown_dropped += mux->unknown_dropped();
    result.slots_allocated = std::max(result.slots_allocated, mux->slots_allocated());
    result.live_peak = std::max(result.live_peak, mux->live_peak());
  }

  // Every mux hosts the same run projected per party; judge each instance
  // with the same D-AA oracle as single runs.
  const bool quiescent = spec.backend == "sim" && !stats.hit_limit;
  result.outcomes.resize(spec.instances);
  result.all_pass = true;
  for (std::uint32_t k = 0; k < spec.instances; ++k) {
    InstanceOutcome& out = result.outcomes[k];
    std::vector<geo::Vec> outputs;
    std::vector<geo::Vec> honest_inputs;
    std::size_t expected = 0;
    bool all_decided = true;
    std::uint64_t instance_late = 0;
    for (PartyId id = 0; id < p.n; ++id) {
      const InstanceRecord& rec = muxes[id]->record(k);
      out.admitted_at = rec.admitted_at;
      all_decided = all_decided && rec.decided;
      out.messages += rec.messages;
      out.bytes += rec.bytes;
      instance_late += rec.late_dropped;
      if (is_corrupt_slot(k, id)) continue;
      ++expected;
      honest_inputs.push_back(inputs[k][id]);
      if (rec.has_output) outputs.push_back(rec.output);
      if (rec.decided) {
        out.decision_latency =
            std::max(out.decision_latency, rec.decided_at - rec.admitted_at);
      }
      out.max_output_iteration =
          std::max(out.max_output_iteration, rec.output_iteration);
    }
    out.late_dropped = instance_late;
    out.decided = all_decided;
    if (all_decided) ++result.decided;
    const auto verdict =
        harness::check_d_aa(outputs, expected, honest_inputs, p.eps,
                            /*tol=*/1e-5, p.domain);
    out.pass = verdict.d_aa();
    out.output_diameter = verdict.output_diameter;
    result.all_pass = result.all_pass && out.pass;
    if (!monitors.empty()) {
      // Totality needs a drained queue AND an instance whose tail was not
      // cut short by aggressive GC — a nonzero late-drop count means echoes
      // were discarded, which legitimately leaves ΠrBC instances partial.
      monitors[k]->host.finalize(stats.end_time,
                                 quiescent && all_decided && instance_late == 0);
      const std::uint64_t v = monitors[k]->host.total_violations();
      out.monitor_violations = v;
      result.monitor_violations += v;
      for (auto& violation : monitors[k]->host.violations()) {
        result.violations.push_back(std::move(violation));
      }
    }
  }
  return result;
}

}  // namespace hydra::serve
