#include "harness/runner.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <mutex>
#include <set>
#include <utility>

#include "adversary/behaviors.hpp"
#include "adversary/schedulers.hpp"
#include "baselines/sync_lockstep.hpp"
#include "common/assert.hpp"
#include "common/log.hpp"
#include "domain/domain.hpp"
#include "faults/faults.hpp"
#include "harness/stats.hpp"
#include "net/backend.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "protocols/aa.hpp"
#include "protocols/init.hpp"
#include "sim/delay.hpp"
#include "sim/simulation.hpp"
#include "transport/socket_net.hpp"
#include "transport/thread_net.hpp"

namespace hydra::harness {
namespace {

using protocols::AaParty;
using protocols::Params;

std::set<PartyId> corrupted_set(std::size_t corruptions) {
  std::set<PartyId> out;
  for (std::size_t i = 0; i < corruptions; ++i) out.insert(static_cast<PartyId>(i));
  return out;
}

std::unique_ptr<sim::IParty> make_byzantine(Adversary kind, const RunSpec& spec,
                                            const Params& p, PartyId id,
                                            const geo::Vec& input,
                                            std::uint64_t salt) {
  switch (kind) {
    case Adversary::kNone:
    case Adversary::kSilent:
      return std::make_unique<adversary::SilentParty>();
    case Adversary::kCrash:
      return std::make_unique<adversary::CrashParty>(
          std::make_unique<AaParty>(p, input), crash_tick(p, id));
    case Adversary::kEquivocator: {
      geo::Vec base(p.dim, 0.0);
      base[0] = 3.0 * spec.workload_scale;
      return std::make_unique<adversary::EquivocatorParty>(p, base,
                                                           spec.workload_scale);
    }
    case Adversary::kOutlier: {
      geo::Vec extreme(p.dim, 0.0);
      for (std::size_t d = 0; d < p.dim; ++d) {
        extreme[d] = (d % 2 == 0 ? 1.0 : -1.0) * 1e5 * spec.workload_scale;
      }
      return std::make_unique<AaParty>(p, extreme);
    }
    case Adversary::kHaltRusher:
      return std::make_unique<adversary::HaltRusherParty>(p, geo::Vec(p.dim, 0.0));
    case Adversary::kSpammer:
      return std::make_unique<adversary::SpammerParty>(p, spec.seed ^ salt,
                                                       p.delta / 2, 80 * p.delta);
    case Adversary::kStraggler:
      return std::make_unique<adversary::StragglerEchoParty>(p);
    case Adversary::kTurncoat:
      return std::make_unique<adversary::TurncoatParty>(p, input,
                                                        (9 + Time(id) * 4) * p.delta);
    case Adversary::kMixed: {
      static constexpr Adversary kCycle[] = {
          Adversary::kSilent,     Adversary::kEquivocator, Adversary::kOutlier,
          Adversary::kHaltRusher, Adversary::kSpammer,     Adversary::kCrash,
          Adversary::kTurncoat,
      };
      return make_byzantine(kCycle[id % std::size(kCycle)], spec, p, id, input, salt);
    }
  }
  return std::make_unique<adversary::SilentParty>();
}

void summary_json(obs::JsonWriter& w, std::string_view name,
                  const Stats::Summary& s) {
  w.key(name);
  w.begin_object();
  w.kv("count", std::uint64_t{s.count});
  w.kv("mean", s.mean);
  w.kv("min", s.min);
  w.kv("max", s.max);
  w.kv("stddev", s.stddev);
  w.kv("p50", s.p50);
  w.kv("p95", s.p95);
  w.kv("p99", s.p99);
  w.end_object();
}

/// The MH-style baseline runs the hybrid machinery at ta = ts. For specs
/// where (D+1) ts + ts >= n that combination violates the feasibility
/// condition even though the hybrid protocol itself is fine, and naively
/// forcing ta = ts aborts deep inside AaParty. Use the largest ta the
/// condition admits instead; specs with no feasible ta at all are rejected
/// with an explicit message.
std::size_t async_mh_ta(const Params& p) {
  HYDRA_ASSERT_MSG(p.n > (p.dim + 1) * p.ts && p.n > 3 * p.ts,
                   "async-mh baseline: no feasible ta exists for (n, ts, D); "
                   "requires n > (D+1) ts and n > 3 ts");
  return std::min(p.ts, p.n - (p.dim + 1) * p.ts - 1);
}

/// Run identity for cross-process trace stitching: a hash over exactly the
/// spec fields that every serve/join process of one distributed run shares
/// (backend name included — it is identical across the processes of a run —
/// but NOT socket_local/trace paths, which legitimately differ). The merge
/// tool refuses to stitch traces whose run_ids disagree.
std::uint64_t spec_run_id(const RunSpec& spec) {
  std::string s = to_string(spec.protocol) + '|' + to_string(spec.network) +
                  '|' + to_string(spec.adversary) + '|' +
                  to_string(spec.workload) + '|' +
                  std::to_string(spec.workload_scale) + '|' +
                  std::to_string(spec.corruptions) + '|' +
                  std::to_string(spec.params.n) + '|' +
                  std::to_string(spec.params.ts) + '|' +
                  std::to_string(spec.params.ta) + '|' +
                  std::to_string(spec.params.dim) + '|' +
                  std::to_string(spec.params.eps) + '|' +
                  std::to_string(spec.params.delta) + '|' +
                  std::to_string(spec.seed) + '|' + spec.faults + '|' +
                  spec.backend;
  // Appended only for non-Euclidean domains so every pre-domain-layer run id
  // (and with it the merge tool's cross-version stitching) stays stable.
  if (!spec.domain.empty() && spec.domain != "euclid") s += '|' + spec.domain;
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// The `meta` trace header: everything obs/merge.cpp needs to check that a
/// set of per-process traces belongs to one run and to rebuild the exact
/// MonitorHost configuration for the post-hoc global re-evaluation. Field
/// values mirror make_monitor_config's resolution (ta clamping, contraction
/// gating, budget selection) so the re-run judges with the live monitors'
/// parameters, not the raw spec's.
std::string meta_line(const RunSpec& spec,
                      const std::optional<obs::MonitorHost::Config>& cfg,
                      std::uint32_t proc, const std::vector<bool>& honest) {
  const Params& p = spec.params;
  obs::JsonWriter w;
  w.begin_object();
  w.kv("ev", "meta");
  w.kv("schema", "hydra-trace-v1");
  if (proc != 0) w.kv("proc", std::uint64_t{proc});
  w.kv("run_id", spec_run_id(spec));
  w.kv("seed", spec.seed);
  w.kv("n", std::uint64_t{p.n});
  w.kv("ts", std::uint64_t{p.ts});
  w.kv("ta", std::uint64_t{cfg.has_value() ? cfg->ta : p.ta});
  w.kv("dim", std::uint64_t{p.dim});
  w.kv("eps", p.eps);
  if (!spec.domain.empty() && spec.domain != "euclid") {
    w.kv("domain", spec.domain);
  }
  w.kv("mode", obs::to_string(spec.monitors));
  w.kv("contraction", cfg.has_value() ? cfg->contraction_factor : 0.0);
  w.kv("hull_tol", cfg.has_value() ? cfg->hull_tol : 0.0);
  w.kv("msgs_fixed", cfg.has_value() ? cfg->budget.msgs_fixed : 0);
  w.kv("msgs_per_it", cfg.has_value() ? cfg->budget.msgs_per_iteration : 0);
  w.kv("bytes_fixed", cfg.has_value() ? cfg->budget.bytes_fixed : 0);
  w.kv("bytes_per_it", cfg.has_value() ? cfg->budget.bytes_per_iteration : 0);
  w.key("honest");
  w.begin_array();
  for (const bool h : honest) w.value(std::uint64_t{h ? 1u : 0u});
  w.end_array();
  w.key("local");
  w.begin_array();
  for (const PartyId id : spec.socket_local) w.value(std::uint64_t{id});
  w.end_array();
  w.kv("backend", spec.backend);
  w.end_object();
  return w.take();
}

/// The per-run metrics snapshot: spec echo, verdict, totals, per-party and
/// per-round communication, the diameter-contraction series (the empirical
/// side of the paper's convergence lemmas), round-latency summary, and the
/// run-registry dump.
void write_metrics_json(const RunSpec& spec, const RunResult& result,
                        const Stats& round_latency) {
  obs::JsonWriter w;
  w.begin_object();

  w.key("spec");
  w.begin_object();
  w.kv("protocol", to_string(spec.protocol));
  w.kv("network", to_string(spec.network));
  w.kv("adversary", to_string(spec.adversary));
  w.kv("workload", to_string(spec.workload));
  w.kv("workload_scale", spec.workload_scale);
  w.kv("corruptions", std::uint64_t{spec.corruptions});
  w.kv("n", std::uint64_t{spec.params.n});
  w.kv("ts", std::uint64_t{spec.params.ts});
  w.kv("ta", std::uint64_t{spec.params.ta});
  w.kv("dim", std::uint64_t{spec.params.dim});
  w.kv("eps", spec.params.eps);
  w.kv("delta", std::int64_t{spec.params.delta});
  w.kv("seed", spec.seed);
  w.kv("faults", spec.faults);
  w.kv("backend", spec.backend);
  if (!spec.domain.empty() && spec.domain != "euclid") {
    w.kv("domain", spec.domain);
  }
  w.end_object();

  w.key("verdict");
  w.begin_object();
  w.kv("live", result.verdict.live);
  w.kv("valid", result.verdict.valid);
  w.kv("agreed", result.verdict.agreed);
  w.kv("output_diameter", result.verdict.output_diameter);
  w.end_object();

  w.key("totals");
  w.begin_object();
  w.kv("messages", result.messages);
  w.kv("bytes", result.bytes);
  w.kv("end_time", std::int64_t{result.end_time});
  w.kv("rounds", result.rounds);
  w.kv("hit_limit", result.hit_limit);
  w.kv("input_diameter", result.input_diameter);
  w.kv("min_estimate", result.min_estimate);
  w.kv("max_estimate", result.max_estimate);
  w.kv("max_output_iteration", std::uint64_t{result.max_output_iteration});
  w.kv("safe_area_fallbacks", result.safe_area_fallbacks);
  w.kv("max_sent_by_party", result.max_sent_by_party);
  w.kv("frames_auth_dropped", result.frames_auth_dropped);
  w.kv("frames_decode_dropped", result.frames_decode_dropped);
  w.end_object();

  const auto u64_array = [&w](std::string_view name,
                              const std::vector<std::uint64_t>& xs) {
    w.key(name);
    w.begin_array();
    for (const auto x : xs) w.value(x);
    w.end_array();
  };
  u64_array("sent_per_party", result.sent_per_party);
  w.key("per_round");
  w.begin_object();
  u64_array("messages", result.messages_per_round);
  u64_array("bytes", result.bytes_per_round);
  w.end_object();

  // diameter_per_round[i] = honest value diameter after iteration i; the
  // paper predicts contraction by sqrt(7/8) per iteration (Lemma 5.10).
  w.key("diameter_per_round");
  w.begin_array();
  for (const double d : result.iteration_diameters) w.value(d);
  w.end_array();

  summary_json(w, "round_latency_delta", round_latency.summary());

  w.key("monitor");
  w.begin_object();
  w.kv("mode", obs::to_string(spec.monitors));
  w.kv("violations", result.monitor_violations);
  w.kv("aborted", result.monitor_aborted);
  w.end_object();

  w.key("faults");
  w.begin_object();
  w.kv("spec", spec.faults);
  w.kv("drops", result.fault_drops);
  w.kv("dups", result.fault_dups);
  w.kv("delays", result.fault_delays);
  w.end_object();

  // Per-party progress (thread backend; arrays empty on the simulator).
  w.key("progress");
  w.begin_object();
  w.kv("backend", spec.backend);
  w.kv("timed_out", result.timed_out);
  w.kv("wall_ms", std::int64_t{result.wall_ms});
  w.kv("timeout_detail", result.timeout_detail);
  const auto progress_array = [&w, &result](std::string_view name,
                                            auto&& field) {
    w.key(name);
    w.begin_array();
    for (const auto& p : result.progress) w.value(std::uint64_t{field(p)});
    w.end_array();
  };
  progress_array("finished",
                 [](const net::PartyProgress& p) -> std::uint64_t { return p.finished ? 1 : 0; });
  progress_array("crash_stopped",
                 [](const net::PartyProgress& p) -> std::uint64_t { return p.crash_stopped ? 1 : 0; });
  progress_array("events",
                 [](const net::PartyProgress& p) -> std::uint64_t { return p.events; });
  progress_array("last_progress",
                 [](const net::PartyProgress& p) -> std::uint64_t {
                   return static_cast<std::uint64_t>(p.last_progress);
                 });
  w.end_object();

  // Socket-transport link health; omitted entirely when all-zero so
  // sim/threads metrics stay byte-identical to previous releases.
  const net::TransportHealth& th = result.transport_health;
  if (th.any()) {
    w.key("transport_health");
    w.begin_object();
    w.kv("connect_attempts", th.connect_attempts);
    w.kv("connects", th.connects);
    w.kv("accepts", th.accepts);
    w.kv("frames_sent", th.frames_sent);
    w.kv("flushes", th.flushes);
    w.kv("frames_received", th.frames_received);
    w.kv("egress_hwm", th.egress_hwm);
    w.kv("mailbox_hwm", th.mailbox_hwm);
    const auto bucket_array = [&w](std::string_view name, const auto& buckets) {
      w.key(name);
      w.begin_array();
      for (const auto b : buckets) w.value(std::uint64_t{b});
      w.end_array();
    };
    bucket_array("flush_ns_buckets", th.flush_ns_buckets);
    bucket_array("frame_bytes_buckets", th.frame_bytes_buckets);
    w.end_object();
  }

  // Under an installed per-run context this is the run's own registry.
  w.key("registry");
  w.raw(obs::registry().to_json());

  w.end_object();

  obs::write_document(spec.metrics_out, w.str(), "metrics");
}

/// The hydra-perf-v1 phase-profile export: a short spec echo (enough to know
/// what was profiled) plus the profiler's per-phase aggregates. Written to
/// its own side-channel file because the nanosecond fields are wall clock:
/// the trace and metrics files stay byte-deterministic per (spec, seed),
/// this one does not (its phase COUNTS do — test_prof.cpp).
void write_perf_json(const RunSpec& spec, const obs::Profiler& profiler) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", "hydra-perf-v1");
  w.key("spec");
  w.begin_object();
  w.kv("protocol", to_string(spec.protocol));
  w.kv("network", to_string(spec.network));
  w.kv("adversary", to_string(spec.adversary));
  w.kv("corruptions", std::uint64_t{spec.corruptions});
  w.kv("n", std::uint64_t{spec.params.n});
  w.kv("ts", std::uint64_t{spec.params.ts});
  w.kv("ta", std::uint64_t{spec.params.ta});
  w.kv("dim", std::uint64_t{spec.params.dim});
  w.kv("seed", spec.seed);
  w.kv("backend", spec.backend);
  w.end_object();
  // Splice the profiler's {"phases":{...}} document minus its outer braces.
  const std::string phases = profiler.to_json();
  HYDRA_ASSERT(phases.size() >= 2 && phases.front() == '{' && phases.back() == '}');
  w.raw(std::string_view(phases).substr(1, phases.size() - 2));
  w.end_object();

  obs::write_document(spec.perf_out, w.str(), "perf");
}

/// RAII for the per-run observability session. Every run gets its OWN
/// obs::Context — a private registry, the run's trace sink, and an isolated
/// safe-area fallback counter — installed thread-locally for execute()'s
/// duration. Concurrent runs (harness/sweep.hpp) therefore never share
/// mutable observability state.
class ObsSession {
 public:
  ObsSession(const RunSpec& spec,
             std::optional<obs::MonitorHost::Config> monitor_config,
             std::uint32_t proc) {
    if (!spec.trace_out.empty()) {
      sink_ = std::make_unique<obs::TraceSink>(spec.trace_out);
      if (!sink_->ok()) sink_.reset();
      if (sink_ != nullptr) sink_->set_proc(proc);
    }
    if (monitor_config.has_value()) {
      monitors_ = std::make_unique<obs::MonitorHost>(std::move(*monitor_config));
    }
    if (!spec.perf_out.empty()) {
      profiler_ = std::make_unique<obs::Profiler>();
    }
    if (!spec.stats_out.empty()) {
      stats_ = std::make_unique<obs::StatsPublisher>(
          spec.stats_out, spec.stats_interval_ms, proc);
      if (!stats_->ok()) stats_.reset();
    }
    ctx_.registry = &registry_;
    ctx_.trace_sink = sink_.get();
    ctx_.monitors = monitors_.get();
    ctx_.profiler = profiler_.get();
    // Live telemetry is a side channel, not trace instrumentation: backends
    // look it up once at run start (obs::stats()), so it neither needs nor
    // sets the per-event enabled flag.
    ctx_.stats = stats_.get();
    // Profiling counts as observability: the full phase tree includes scopes
    // (net.egress, net.deliver) that live on enabled-only paths.
    ctx_.enabled = sink_ != nullptr || !spec.metrics_out.empty() ||
                   monitors_ != nullptr || profiler_ != nullptr;
    // Log lines emitted while this thread's context holds a sink should land
    // in it (the hook resolves per-thread at emit time, so this is safe to
    // install from concurrent sessions).
    if (sink_ != nullptr) obs::install_log_hook();
    scoped_.emplace(&ctx_);
  }

  ~ObsSession() {
    scoped_.reset();  // restore the caller's context before the sink dies
    if (stats_ != nullptr) stats_->stop();  // final heartbeat + flush
    if (sink_ != nullptr) sink_->flush();
  }

  [[nodiscard]] bool active() const noexcept { return ctx_.enabled; }
  [[nodiscard]] obs::MonitorHost* monitors() const noexcept {
    return monitors_.get();
  }
  [[nodiscard]] obs::Profiler* profiler() const noexcept {
    return profiler_.get();
  }
  [[nodiscard]] std::uint64_t safe_area_fallbacks() const noexcept {
    return ctx_.safe_area_fallbacks.load();
  }

 private:
  obs::Registry registry_;
  std::unique_ptr<obs::TraceSink> sink_;
  std::unique_ptr<obs::MonitorHost> monitors_;
  std::unique_ptr<obs::Profiler> profiler_;
  std::unique_ptr<obs::StatsPublisher> stats_;
  obs::Context ctx_;
  std::optional<obs::ScopedContext> scoped_;
};

}  // namespace

std::optional<obs::MonitorHost::Config> make_monitor_config(
    const RunSpec& spec, const Params& p, const std::vector<bool>& honest,
    std::vector<geo::Vec> honest_inputs) {
  if (spec.monitors == obs::MonitorMode::kOff) return std::nullopt;
  obs::MonitorHost::Config cfg;
  cfg.mode = spec.monitors;
  cfg.n = p.n;
  cfg.ts = p.ts;
  cfg.ta = spec.protocol == Protocol::kAsyncMh ? async_mh_ta(p) : p.ta;
  cfg.dim = p.dim;
  cfg.eps = p.eps;
  cfg.honest = honest;
  cfg.honest_inputs = std::move(honest_inputs);
  cfg.domain = p.domain;
  if (spec.protocol != Protocol::kSyncLockstep &&
      p.aggregation == protocols::Aggregation::kDiameterMidpoint) {
    // The domain's proven factor for the midpoint rule: sqrt(7/8) Euclidean
    // (Lemma 5.10), 1/2 for tree midpoints.
    cfg.contraction_factor = domain::resolve(p.domain).contraction_factor();
  }
  const bool schedule_bound_adversary =
      spec.adversary == Adversary::kNone || spec.adversary == Adversary::kSilent ||
      spec.adversary == Adversary::kCrash || spec.adversary == Adversary::kOutlier;
  if (schedule_bound_adversary) {
    cfg.budget = obs::complexity_budget(to_string(spec.protocol), p.n, p.dim);
  }
  return cfg;
}

std::unique_ptr<sim::DelayModel> make_network(const RunSpec& spec) {
  const Duration delta = spec.params.delta;
  switch (spec.network) {
    case Network::kSyncWorstCase:
      return std::make_unique<sim::FixedDelay>(delta);
    case Network::kSyncJitter:
      return std::make_unique<sim::UniformDelay>(1, delta);
    case Network::kSyncTargeted:
      return std::make_unique<adversary::TargetedScheduler>(
          std::make_unique<sim::UniformDelay>(1, std::max<Duration>(1, delta / 2)),
          std::set<PartyId>{static_cast<PartyId>(spec.params.n - 1)}, delta);
    case Network::kSyncRushing:
      return std::make_unique<adversary::RushingScheduler>(
          corrupted_set(spec.corruptions), 1, delta);
    case Network::kAsyncReorder:
      return std::make_unique<adversary::ReorderScheduler>(delta, 0.3, 12 * delta);
    case Network::kAsyncPartition: {
      std::set<PartyId> group;
      for (PartyId id = 0; id < spec.params.n / 2; ++id) group.insert(id);
      return std::make_unique<adversary::PartitionScheduler>(
          std::make_unique<sim::UniformDelay>(1, delta), std::move(group), 2 * delta,
          50 * delta);
    }
    case Network::kAsyncExponential:
      return std::make_unique<sim::ExponentialDelay>(2.0 * static_cast<double>(delta),
                                                     60 * delta);
  }
  return std::make_unique<sim::FixedDelay>(delta);
}

void ensure_backends_registered() {
  // std::call_once rather than static-initializer registration: the backend
  // object files live in static libraries, where an unreferenced
  // self-registering global gets dropped by the linker.
  static std::once_flag once;
  std::call_once(once, [] {
    sim::register_sim_backend();
    transport::register_thread_backend();
    transport::register_socket_backends();
  });
}

std::vector<std::string> backend_names() {
  ensure_backends_registered();
  return net::backend_names();
}

std::unique_ptr<net::Backend> make_backend(std::string_view field,
                                           const std::string& name,
                                           const net::BackendConfig& config,
                                           std::unique_ptr<sim::DelayModel> delay) {
  ensure_backends_registered();
  auto backend = net::make_backend(name, config, std::move(delay));
  if (backend == nullptr) {
    // Actionable, not just fatal: name the backend that failed to resolve
    // AND every name that would have worked.
    std::string known;
    for (const auto& registered : backend_names()) {
      if (!known.empty()) known += ", ";
      known += registered;
    }
    const std::string msg = "unknown " + std::string(field) + " \"" + name +
                            "\"; registered backends: " + known;
    HYDRA_ASSERT_MSG(backend != nullptr, msg.c_str());
  }
  return backend;
}

std::string to_string(Network network) {
  switch (network) {
    case Network::kSyncWorstCase: return "sync-worst";
    case Network::kSyncJitter: return "sync-jitter";
    case Network::kSyncTargeted: return "sync-target";
    case Network::kSyncRushing: return "sync-rush";
    case Network::kAsyncReorder: return "async-reorder";
    case Network::kAsyncPartition: return "async-partition";
    case Network::kAsyncExponential: return "async-exp";
  }
  return "?";
}

bool is_synchronous(Network network) {
  switch (network) {
    case Network::kSyncWorstCase:
    case Network::kSyncJitter:
    case Network::kSyncTargeted:
    case Network::kSyncRushing:
      return true;
    default:
      return false;
  }
}

std::string to_string(Adversary adversary) {
  switch (adversary) {
    case Adversary::kNone: return "none";
    case Adversary::kSilent: return "silent";
    case Adversary::kCrash: return "crash";
    case Adversary::kEquivocator: return "equivocate";
    case Adversary::kOutlier: return "outlier";
    case Adversary::kHaltRusher: return "halt-rush";
    case Adversary::kSpammer: return "spam";
    case Adversary::kStraggler: return "straggler";
    case Adversary::kTurncoat: return "turncoat";
    case Adversary::kMixed: return "mixed";
  }
  return "?";
}

std::optional<Network> parse_network(std::string_view name) {
  for (const auto network :
       {Network::kSyncWorstCase, Network::kSyncJitter, Network::kSyncTargeted,
        Network::kSyncRushing, Network::kAsyncReorder, Network::kAsyncPartition,
        Network::kAsyncExponential}) {
    if (to_string(network) == name) return network;
  }
  return std::nullopt;
}

std::optional<Adversary> parse_adversary(std::string_view name) {
  for (const auto adversary :
       {Adversary::kNone, Adversary::kSilent, Adversary::kCrash,
        Adversary::kEquivocator, Adversary::kOutlier, Adversary::kHaltRusher,
        Adversary::kSpammer, Adversary::kStraggler, Adversary::kTurncoat,
        Adversary::kMixed}) {
    if (to_string(adversary) == name) return adversary;
  }
  return std::nullopt;
}

std::optional<Protocol> parse_protocol(std::string_view name) {
  for (const auto protocol :
       {Protocol::kHybrid, Protocol::kSyncLockstep, Protocol::kAsyncMh}) {
    if (to_string(protocol) == name) return protocol;
  }
  return std::nullopt;
}

std::string to_string(Protocol protocol) {
  switch (protocol) {
    case Protocol::kHybrid: return "hybrid";
    case Protocol::kSyncLockstep: return "sync-lockstep";
    case Protocol::kAsyncMh: return "async-mh";
  }
  return "?";
}

RunResult execute(const RunSpec& spec) {
  // Resolve the value domain up front; the resolved pointer rides in the
  // effective Params every protocol object below receives. nullptr (the
  // Euclidean default) keeps every downstream path byte-identical to the
  // pre-domain-layer harness.
  const hydra::domain::ValueDomain* dom = nullptr;
  if (!spec.domain.empty() && spec.domain != "euclid") {
    dom = hydra::domain::find(spec.domain);
    if (dom == nullptr) {
      const std::string msg = "unknown RunSpec::domain \"" + spec.domain +
                              "\"; registered domains: " +
                              hydra::domain::known_names();
      HYDRA_ASSERT_MSG(dom != nullptr, msg.c_str());
    }
    HYDRA_ASSERT_MSG(spec.protocol == Protocol::kHybrid,
                     "non-Euclidean domains run the hybrid protocol only "
                     "(the baselines' thresholds are Euclidean-specific)");
    if (const auto rd = dom->required_dim()) {
      HYDRA_ASSERT_MSG(spec.params.dim == *rd,
                       "RunSpec::params.dim conflicts with the domain's "
                       "required dimension");
    }
  }
  Params effective = spec.params;
  effective.domain = dom;
  const Params& p = effective;
  HYDRA_ASSERT(spec.corruptions < p.n);

  // The fault plan is part of the spec: a party the plan crashes is a faulty
  // party for every judgement below, exactly like a corrupted slot — except
  // it runs the honest protocol and dies at the network layer.
  faults::FaultPlan fault_plan;
  if (!spec.faults.empty()) {
    std::string error;
    auto parsed = faults::parse_fault_plan(spec.faults, &error);
    HYDRA_ASSERT_MSG(parsed.has_value(), "invalid RunSpec::faults spec");
    fault_plan = std::move(*parsed);
    HYDRA_ASSERT_MSG(fault_plan.empty() ||
                         fault_plan.max_party() < static_cast<PartyId>(p.n),
                     "fault plan names a party >= n");
  }

  // Inputs and the honest mask are pure functions of the spec; computing
  // them before the session starts lets the monitor config see the honest
  // inputs without emitting any observability events.
  const auto inputs =
      make_inputs(spec.workload, p.n, p.dim, spec.workload_scale, spec.seed, dom);
  std::vector<bool> honest_mask(p.n, true);
  std::vector<geo::Vec> honest_inputs;
  for (PartyId id = 0; id < p.n; ++id) {
    const bool corrupt = id < spec.corruptions && spec.adversary != Adversary::kNone;
    honest_mask[id] = !corrupt && !fault_plan.crashes_party(id);
    if (honest_mask[id]) honest_inputs.push_back(inputs[id]);
  }
  HYDRA_ASSERT_MSG(!honest_inputs.empty(),
                   "corruptions + fault-plan crashes leave no honest party");

  // The process's trace identity: 0 for single-process runs (the proc key is
  // suppressed and the trace keeps its historical shape), 1 + min(local
  // party) for serve/join processes — unique because their party sets are
  // disjoint (obs/merge.hpp).
  const std::uint32_t proc =
      spec.socket_local.empty()
          ? 0u
          : 1u + *std::min_element(spec.socket_local.begin(),
                                   spec.socket_local.end());
  auto monitor_config = make_monitor_config(spec, p, honest_mask, honest_inputs);
  const std::string meta = meta_line(spec, monitor_config, proc, honest_mask);
  const ObsSession obs_session(spec, std::move(monitor_config), proc);

  if (auto* tr = obs::trace()) {
    // The merge substrate header: the meta line first, then the exact input
    // vector of every party this process hosts (%.17g — the merged validity
    // re-check rebuilds the global honest-input hull bit-for-bit).
    tr->raw_line(meta);
    for (PartyId id = 0; id < p.n; ++id) {
      if (!spec.socket_local.empty() &&
          std::find(spec.socket_local.begin(), spec.socket_local.end(), id) ==
              spec.socket_local.end()) {
        continue;
      }
      tr->input(0, id, honest_mask[id], inputs[id].coords());
    }
  }

  // One code path for every backend: build the net::Backend named by the
  // spec ("sim" = deterministic discrete-event simulator, "threads" = real
  // thread-per-party transport), hand it the same DelayModel, parties, and
  // injector, and read back backend-neutral stats.
  auto backend =
      make_backend("RunSpec::backend", spec.backend,
                   net::BackendConfig{.n = p.n,
                                      .delta = p.delta,
                                      .seed = spec.seed,
                                      .max_time = spec.max_time,
                                      .us_per_tick = spec.us_per_tick,
                                      .timeout_ms = spec.timeout_ms,
                                      .endpoints = spec.socket_endpoints,
                                      .local_parties = spec.socket_local},
                   make_network(spec));

  std::optional<faults::FaultInjector> injector;
  if (!fault_plan.empty()) {
    injector.emplace(fault_plan,
                     faults::FaultInjector::Config{
                         .seed = spec.seed,
                         .synchronous = is_synchronous(spec.network),
                         .delta = p.delta});
    backend->set_fault_injector(&*injector);
    // The scheduled crash/partition timeline lands in the trace up front so
    // hydra report can render it alongside the violation timeline.
    if (obs_session.active()) injector->emit_timeline();
  }

  // For the lock-step baseline, R comes from the true input diameter (the
  // baseline's "known input bounds" assumption).
  baselines::SyncLockstepConfig lockstep{
      .n = p.n,
      .t = p.ts,
      .dim = p.dim,
      .delta = p.delta,
      .rounds = protocols::sufficient_iterations(
          p.eps, std::max(1e-12, geo::diameter(inputs))),
      .domain = dom};

  // In multi-process socket mode only the parties hosted here are judged:
  // remote slots never run in this process, so their observers would read
  // never-started party objects and report them unfinished. Validity still
  // judges against every honest INPUT (computed above, a pure function of
  // the spec, identical in each process).
  std::vector<bool> judged_mask(p.n, true);
  if (!spec.socket_local.empty()) {
    judged_mask.assign(p.n, false);
    for (const PartyId id : spec.socket_local) {
      HYDRA_ASSERT_MSG(id < p.n, "RunSpec::socket_local names a party >= n");
      judged_mask[id] = true;
    }
  }

  std::vector<const AaParty*> hybrid_parties;
  std::vector<const baselines::SyncLockstepParty*> lockstep_parties;

  // Observer pointers are captured before run(): the net::Backend ownership
  // contract keeps every party object alive (and unmoved) until the backend
  // is destroyed, even when the backend takes the unique_ptrs.
  std::vector<std::unique_ptr<sim::IParty>> parties;
  parties.reserve(p.n);
  // Per-slot finishing predicate for the thread backend's shutdown decision
  // (the simulator detects quiescence and ignores it). Byzantine slots count
  // as finished from the start — shutdown is driven by the protocol slots.
  enum class Finish : std::uint8_t { kAlways, kAa, kLockstep };
  std::vector<Finish> finish_kind(p.n, Finish::kAlways);

  for (PartyId id = 0; id < p.n; ++id) {
    const bool corrupt = id < spec.corruptions && spec.adversary != Adversary::kNone;
    if (corrupt) {
      parties.push_back(make_byzantine(spec.adversary, spec, p, id, inputs[id], 0x9e3779b9));
      continue;
    }
    // A fault-plan-crashed party runs the honest protocol (the injector
    // silences it at the network layer) but is excluded from the observer
    // lists: its outputs are not judged and its history does not feed the
    // contraction series — it is a faulty party in the paper's sense.
    switch (spec.protocol) {
      case Protocol::kHybrid: {
        auto party = std::make_unique<AaParty>(p, inputs[id]);
        if (honest_mask[id] && judged_mask[id]) hybrid_parties.push_back(party.get());
        finish_kind[id] = Finish::kAa;
        parties.push_back(std::move(party));
        break;
      }
      case Protocol::kAsyncMh: {
        // ts = ta = t: identical machinery, baseline thresholds — clamped to
        // the largest feasible ta when ta = ts would violate
        // (D+1) ts + ta < n (see async_mh_ta above).
        Params mh = p;
        mh.ta = async_mh_ta(p);
        auto party = std::make_unique<AaParty>(mh, inputs[id]);
        if (honest_mask[id] && judged_mask[id]) hybrid_parties.push_back(party.get());
        finish_kind[id] = Finish::kAa;
        parties.push_back(std::move(party));
        break;
      }
      case Protocol::kSyncLockstep: {
        auto party = std::make_unique<baselines::SyncLockstepParty>(lockstep, inputs[id]);
        if (honest_mask[id] && judged_mask[id]) lockstep_parties.push_back(party.get());
        finish_kind[id] = Finish::kLockstep;
        parties.push_back(std::move(party));
        break;
      }
    }
  }

  const auto finished = [&finish_kind](const sim::IParty& party, PartyId id) {
    switch (finish_kind[id]) {
      case Finish::kAa:
        return static_cast<const AaParty&>(party).has_output();
      case Finish::kLockstep:
        return static_cast<const baselines::SyncLockstepParty&>(party).has_output();
      case Finish::kAlways:
        break;
    }
    return true;
  };

  const auto stats = backend->run(parties, finished);

  RunResult result;
  result.monitor_aborted = stats.monitor_aborted;
  if (injector.has_value()) {
    const auto totals = injector->totals();
    result.fault_drops = totals.dropped;
    result.fault_dups = totals.duplicated;
    result.fault_delays = totals.delayed;
  }
  // Totality can only be judged on a quiescent run: the simulator drains
  // its queue unless truncated (limit or strict abort), while the thread
  // backend shuts down the moment every party finished and may legally
  // leave in-flight ΠrBC echoes undelivered. The trace `end` marker carries
  // the same flag so merged-trace re-evaluation makes the same call.
  const bool quiescent = spec.backend == "sim" && !stats.hit_limit &&
                         !stats.monitor_aborted;
  if (auto* mon = obs_session.monitors()) {
    mon->finalize(stats.end_time, quiescent);
    result.violations = mon->violations();
    result.monitor_violations = mon->total_violations();
  }
  // The session's context starts every run at zero, so no before/after
  // bookkeeping (which raced under concurrent runs) is needed.
  result.safe_area_fallbacks = obs_session.safe_area_fallbacks();
  for (const auto sent : stats.wire.sent_per_party) {
    result.max_sent_by_party = std::max(result.max_sent_by_party, sent);
  }
  result.sent_per_party = stats.wire.sent_per_party;
  result.messages_per_round = stats.wire.messages_per_round;
  result.bytes_per_round = stats.wire.bytes_per_round;
  result.input_diameter = hydra::domain::resolve(dom).diameter(honest_inputs);
  result.messages = stats.wire.messages;
  result.bytes = stats.wire.bytes;
  result.end_time = stats.end_time;
  result.hit_limit = stats.hit_limit;
  result.rounds = static_cast<double>(stats.end_time) / static_cast<double>(p.delta);
  result.timed_out = stats.timed_out;
  result.wall_ms = stats.wall_ms;
  result.progress = stats.progress;
  result.timeout_detail = stats.timeout_detail;
  result.frames_auth_dropped = stats.frames_auth_dropped;
  result.frames_decode_dropped = stats.frames_decode_dropped;
  result.transport_health = stats.health;

  std::vector<geo::Vec> outputs;
  std::size_t expected = 0;
  if (spec.protocol == Protocol::kSyncLockstep) {
    expected = lockstep_parties.size();
    for (const auto* party : lockstep_parties) {
      if (party->has_output()) outputs.push_back(party->output());
    }
  } else {
    expected = hybrid_parties.size();
    result.min_estimate = UINT64_MAX;
    std::size_t min_history = SIZE_MAX;
    for (const auto* party : hybrid_parties) {
      if (party->has_output()) outputs.push_back(party->output());
      result.min_estimate = std::min(result.min_estimate, party->estimate());
      result.max_estimate = std::max(result.max_estimate, party->estimate());
      result.max_output_iteration =
          std::max(result.max_output_iteration, party->output_iteration());
      min_history = std::min(min_history, party->value_history().size());
    }
    if (result.min_estimate == UINT64_MAX) result.min_estimate = 0;
    // Honest value diameter per iteration (v_0, v_1, ...).
    if (min_history != SIZE_MAX) {
      for (std::size_t i = 0; i < min_history; ++i) {
        std::vector<geo::Vec> layer;
        layer.reserve(hybrid_parties.size());
        for (const auto* party : hybrid_parties) {
          layer.push_back(party->value_history()[i]);
        }
        result.iteration_diameters.push_back(
            hydra::domain::resolve(dom).diameter(layer));
      }
    }
  }

  result.verdict = check_d_aa(outputs, expected, honest_inputs, p.eps,
                              /*tol=*/1e-5, dom);

  if (obs_session.active()) {
    // Per-iteration latency in units of Delta, across every honest party:
    // value_times()[i] - value_times()[i-1] spans iteration i. Theorems 4.4
    // and 5.19 bound this by c_AA-it = 5 rounds under synchrony.
    Stats round_latency;
    static constexpr std::array<double, 7> kLatencyBounds{1.0, 2.0,  3.0, 5.0,
                                                          8.0, 13.0, 21.0};
    auto& latency_hist = obs::registry().histogram("aa.round_latency_delta",
                                                           kLatencyBounds);
    for (const auto* party : hybrid_parties) {
      const auto& times = party->value_times();
      for (std::size_t i = 1; i < times.size(); ++i) {
        const double in_delta = static_cast<double>(times[i] - times[i - 1]) /
                                static_cast<double>(p.delta);
        round_latency.add(in_delta);
        latency_hist.observe(in_delta);
      }
    }
    if (auto* tr = obs::trace()) {
      // Append the honest-diameter contraction series so the trace renders
      // a per-iteration counter track alongside the event timeline.
      for (std::size_t i = 0; i < result.iteration_diameters.size(); ++i) {
        tr->scalar(static_cast<Time>(i) * p.delta, 0, "honest_diameter",
                   result.iteration_diameters[i]);
      }
    }
    if (!spec.metrics_out.empty()) write_metrics_json(spec, result, round_latency);
    if (const auto* prof = obs_session.profiler()) write_perf_json(spec, *prof);
    HYDRA_LOG_INFO("run seed=%llu verdict=%s messages=%llu rounds=%.2f",
                   static_cast<unsigned long long>(spec.seed),
                   result.verdict.d_aa() ? "ok" : "FAIL",
                   static_cast<unsigned long long>(result.messages), result.rounds);
    if (auto* tr = obs::trace()) {
      // Clean end-of-trace marker, always the sink's last event: a killed
      // serve/join process never reaches this line, which is how the merge
      // tool distinguishes a finished island from a truncated one.
      tr->end(/*complete=*/!stats.timed_out, quiescent);
    }
  }
  return result;
}

}  // namespace hydra::harness
