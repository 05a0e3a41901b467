// The canonical agreement benchmark: three workloads driven through the
// public entry points harness::execute and serve::run_serve, every
// agreement judged by the D-AA oracle.
//
//   agreebench --workload NAME --seed N --seconds S --trace 0|1
//              [--rate AGREEMENTS_PER_S] [--sock-dir DIR]
//              [--git SHA] [--dirty 0|1|unknown]
//
// --trace 0  untraced passes for S seconds; prints the end-to-end metrics.
// --trace 1  an untraced pass over S/2 seconds, then a traced pass over the
//            same agreements; prints the per-layer metrics (layers.hpp).
// Every metric is printed as "metric NAME VALUE UNIT"; the last stdout line
// is one JSON object {"correct","attempted","failed","metrics"}. The exit
// status is 0 iff every agreement decided with a passing D-AA verdict and,
// on the simulator, the deterministic counts repeated exactly.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "harness/runner.hpp"
#include "layers.hpp"
#include "obs/context.hpp"
#include "obs/prof.hpp"
#include "serve/engine.hpp"
#include "serve/instance_mux.hpp"

namespace {

using namespace hydra;
using agreebench::Clock;
using agreebench::RunRecord;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double rate = 0.0;  ///< r2-rate-uds offered rate; 0 = the workload's own
  std::string sock_dir = ".bench_build";
  std::string git = "unknown";
  std::string dirty = "unknown";
};

double since_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Nearest-rank percentile, 0 <= p <= 100 (harness/stats.hpp convention).
double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(xs.size())));
  return xs[rank == 0 ? 0 : rank - 1];
}

/// The highest percentile with at least ten samples beyond it: p99 from 1000
/// samples, p99.9 from 10000; below 20 samples the median.
double tail_percentile(std::size_t samples) {
  if (samples >= 10000) return 99.9;
  if (samples < 20) return 50.0;
  return std::min(99.0, std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(samples))));
}

/// One agreement's end-to-end outcome.
struct Agreement {
  bool ok = false;          ///< every honest party decided, D-AA verdict passed
  double latency_ms = 0.0;  ///< wall time to the decision
  double rounds = 0.0;      ///< decision latency in units of Delta
  double admission_lag_ms = 0.0;
  /// Open loop: decision time since the schedule started (0 elsewhere).
  double decided_at_ms = 0.0;
  std::uint32_t iterations = 0;  ///< largest honest output iteration
};

/// One timed pass over a workload's agreements.
struct Pass {
  std::vector<Agreement> agreements;
  double wall_s = 0.0;
  /// Agreements follow a schedule (decided_at_ms is set) rather than the
  /// pass's own pace.
  bool open_loop = false;
  double cpu_s = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
  /// Counts the simulator makes deterministic (messages, bytes, Delta
  /// latencies, events), in a fixed order per call; traced passes add the
  /// LP solves and safe areas of every call to `traced_counts`.
  std::vector<std::uint64_t> counts;
  std::vector<std::uint64_t> traced_counts;
  std::size_t calls = 0;  ///< execute / run_serve calls in the pass
  // serve layer
  std::uint64_t live_peak = 0;
  std::uint64_t slots = 0;
  std::uint64_t dropped = 0;
  net::TransportHealth health;
  std::uint64_t frames_dropped = 0;
  // trace mode
  double setup_ms = 0.0;  ///< run() entry -> first start, summed over calls
  std::uint64_t threads_peak = 0;
  std::uint64_t fallbacks = 0;
  std::vector<obs::Profiler::Snapshot> outer_phases;
  std::vector<obs::Profiler::Snapshot> run_phases;

  [[nodiscard]] std::size_t ok_count() const {
    return static_cast<std::size_t>(std::count_if(
        agreements.begin(), agreements.end(), [](const Agreement& a) { return a.ok; }));
  }
};

std::uint64_t phase_count(const std::vector<obs::Profiler::Snapshot>& phases,
                          std::string_view name) {
  for (const auto& p : phases) {
    if (p.name == name) return p.count;
  }
  return 0;
}

double phase_total_ms(const std::vector<obs::Profiler::Snapshot>& phases,
                      std::string_view name) {
  for (const auto& p : phases) {
    if (p.name == name) return static_cast<double>(p.total_ns) / 1e6;
  }
  return 0.0;
}

/// Geometry time: self time of every geometry phase inside the run — the
/// program's geo.* kernels, aa.safe_area (ΠAA-it's call into the domain) and
/// the benchmark's own ValueDomain::aggregate span.
double geometry_ms(const std::vector<obs::Profiler::Snapshot>& phases) {
  double ms = 0.0;
  for (const auto& p : phases) {
    if (p.name.starts_with("geo.") || p.name == "aa.safe_area" ||
        p.name == "bench.geometry") {
      ms += static_cast<double>(p.self_ns) / 1e6;
    }
  }
  return ms;
}

/// Interpolated percentile of a log2 histogram (bucket k = [2^k, 2^(k+1))).
double bucket_percentile(const std::array<std::uint64_t, net::TransportHealth::kBuckets>& b,
                         double p) {
  std::uint64_t total = 0;
  for (const auto c : b) total += c;
  if (total == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(total);
  double seen = 0.0;
  for (std::size_t k = 0; k < b.size(); ++k) {
    if (b[k] == 0) continue;
    if (seen + static_cast<double>(b[k]) >= rank) {
      const double lo = k == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(k));
      const double hi = std::ldexp(1.0, static_cast<int>(k) + 1);
      return lo + (hi - lo) * (rank - seen) / static_cast<double>(b[k]);
    }
    seen += static_cast<double>(b[k]);
  }
  return std::ldexp(1.0, static_cast<int>(b.size()));
}

/// Trace mode, after one execute/run_serve call: its LP solves and safe
/// areas (run-profiler counts before and after it) and its backend figures.
void note_traced_call(Pass& pass, const RunRecord& rec,
                      const std::vector<obs::Profiler::Snapshot>& before,
                      const obs::Profiler& run_profiler) {
  const auto after = run_profiler.snapshot();
  for (const char* phase : {"geo.lp.simplex", "aa.safe_area"}) {
    pass.traced_counts.push_back(phase_count(after, phase) - phase_count(before, phase));
  }
  pass.setup_ms += rec.setup_ms;
  pass.threads_peak = std::max(pass.threads_peak, rec.threads_peak);
  pass.fallbacks += rec.fallbacks;
}

// ---------------------------------------------------------------- workloads

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] virtual bool simulated() const = 0;
  /// One set-up: spec construction, input generation and a warm-up.
  virtual void setup() = 0;
  /// Runs agreements for `budget_s` seconds, or exactly the agreements of
  /// `replay` when given (the traced pass repeats the untraced one).
  virtual Pass run(double budget_s, const Pass* replay, bool traced) = 0;
};

/// Closed loop, one client: sequential harness::execute calls on the
/// simulator, R^3, n=6, ts=ta=1, sync-jitter delays, one outlier.
class SoloWorkload final : public Workload {
 public:
  SoloWorkload(agreebench::Collector& c, std::uint64_t seed) : c_(c), seed_(seed) {}

  [[nodiscard]] bool simulated() const override { return true; }

  void setup() override {
    // Warm-up on a fixed seed: four iterations of the same shape, so the
    // geometry kernels and allocator are warm without a seed-dependent cost.
    auto warm = spec(0x5eedULL, "bench-probe-sim");
    warm.params.fixed_iterations = 4;
    c_.corruptions = warm.corruptions;
    c_.instances = 0;
    c_.records.clear();
    (void)harness::execute(warm);
  }

  Pass run(double budget_s, const Pass* replay, bool traced) override {
    Pass pass;
    c_.corruptions = 1;
    c_.instances = 0;
    const auto t0 = Clock::now();
    const double c0 = cpu_s();
    for (std::uint32_t i = 0;; ++i) {
      if (replay != nullptr ? i >= replay->calls : since_s(t0) >= budget_s) break;
      const auto s = spec(serve::instance_seed(seed_, i),
                          traced ? "bench-trace-sim" : "bench-probe-sim");
      c_.records.clear();
      const auto before = traced ? c_.run_profiler->snapshot()
                                 : std::vector<obs::Profiler::Snapshot>{};
      const auto a0 = Clock::now();
      harness::RunResult res;
      {
        HYDRA_PROF_SCOPE("bench.harness");
        res = harness::execute(s);
      }
      const auto a1 = Clock::now();
      const RunRecord& rec = c_.records.back();
      Agreement a;
      a.ok = res.verdict.d_aa() && !res.hit_limit;
      a.latency_ms = std::chrono::duration<double, std::milli>(a1 - a0).count();
      a.rounds = static_cast<double>(rec.decision_time) /
                 static_cast<double>(s.params.delta);
      a.admission_lag_ms =
          std::chrono::duration<double, std::milli>(rec.entry - a0).count();
      a.iterations = res.max_output_iteration;
      pass.agreements.push_back(a);
      pass.messages += res.messages;
      pass.bytes += res.bytes;
      pass.events += rec.stats.events;
      pass.counts.insert(pass.counts.end(),
                         {res.messages, res.bytes,
                          static_cast<std::uint64_t>(rec.decision_time),
                          rec.stats.events});
      if (traced) note_traced_call(pass, rec, before, *c_.run_profiler);
      ++pass.calls;
    }
    pass.wall_s = since_s(t0);
    pass.cpu_s = cpu_s() - c0;
    return pass;
  }

 private:
  static harness::RunSpec spec(std::uint64_t seed, const char* backend) {
    harness::RunSpec s;
    s.params.n = 6;
    s.params.ts = 1;
    s.params.ta = 1;
    s.params.dim = 3;
    // Synchronous delays: an agreement costs ~50 ms, so a run holds hundreds
    // and its percentiles are steady across seeds. Under async-exp one costs
    // 1-2 s and a run held ~20, too few for a steady median.
    s.network = harness::Network::kSyncJitter;
    s.adversary = harness::Adversary::kOutlier;
    s.corruptions = 1;
    s.seed = seed;
    s.backend = backend;
    return s;
  }

  agreebench::Collector& c_;
  std::uint64_t seed_;
};

/// Shared by the two serve workloads: one serve::run_serve call per pass
/// step, outcomes joined with the harvested per-instance timing.
class ServeWorkload : public Workload {
 public:
  ServeWorkload(agreebench::Collector& c, std::uint64_t seed) : c_(c), seed_(seed) {}

 protected:
  /// Runs `spec` once and appends its agreements to `pass`. `tick_ms` maps
  /// ticks to wall milliseconds (0 on the simulator: latency is then the
  /// call's wall time, every instance of a burst deciding in the same run).
  void serve_once(serve::ServeSpec spec, bool traced, double tick_ms, Pass& pass) {
    spec.backend = std::string(traced ? "bench-trace-" : "bench-probe-") + spec.backend;
    if (traced) spec.params.domain = &timed_domain_;
    c_.corruptions = 0;
    c_.instances = spec.instances;
    c_.interarrival = spec.interarrival;
    c_.records.clear();
    const auto before = traced ? c_.run_profiler->snapshot()
                               : std::vector<obs::Profiler::Snapshot>{};
    const auto a0 = Clock::now();
    serve::ServeResult res;
    {
      HYDRA_PROF_SCOPE("bench.harness");
      res = serve::run_serve(spec);
    }
    const double call_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - a0).count();
    const RunRecord& rec = c_.records.back();
    const double entry_ms =
        std::chrono::duration<double, std::milli>(rec.entry - a0).count();
    const auto delta = static_cast<double>(spec.params.delta);
    pass.counts.insert(pass.counts.end(),
                       {res.messages, res.bytes, rec.stats.events});
    for (std::uint32_t k = 0; k < spec.instances; ++k) {
      const auto& out = res.outcomes[k];
      Agreement a;
      a.ok = rec.decided[k] && out.decided && out.pass && !res.timed_out &&
             !res.hit_limit;
      const double lag_ticks = static_cast<double>(rec.admission_lag[k]);
      const double due_ticks = static_cast<double>(rec.due_latency[k]);
      a.latency_ms = tick_ms > 0.0 ? due_ticks * tick_ms : call_ms;
      a.admission_lag_ms = tick_ms > 0.0 ? lag_ticks * tick_ms : entry_ms;
      a.decided_at_ms =
          tick_ms > 0.0
              ? (static_cast<double>(k * spec.interarrival) + due_ticks) * tick_ms
              : 0.0;
      a.rounds = due_ticks / delta;
      a.iterations = out.max_output_iteration;
      pass.agreements.push_back(a);
      pass.counts.push_back(static_cast<std::uint64_t>(rec.due_latency[k]));
    }
    pass.messages += res.messages;
    pass.bytes += res.bytes;
    pass.events += rec.stats.events;
    pass.live_peak = std::max<std::uint64_t>(pass.live_peak, res.live_peak);
    pass.slots = std::max<std::uint64_t>(pass.slots, res.slots_allocated);
    pass.dropped += res.late_dropped + res.unknown_dropped;
    pass.frames_dropped += res.frames_auth_dropped + res.frames_decode_dropped;
    const auto& h = res.transport_health;
    pass.health.frames_sent += h.frames_sent;
    pass.health.flushes += h.flushes;
    pass.health.egress_hwm = std::max(pass.health.egress_hwm, h.egress_hwm);
    pass.health.mailbox_hwm = std::max(pass.health.mailbox_hwm, h.mailbox_hwm);
    for (std::size_t i = 0; i < h.flush_ns_buckets.size(); ++i) {
      pass.health.flush_ns_buckets[i] += h.flush_ns_buckets[i];
    }
    if (traced) note_traced_call(pass, rec, before, *c_.run_profiler);
    ++pass.calls;
  }

  static serve::ServeSpec r2_spec(std::uint64_t seed) {
    serve::ServeSpec s;
    s.params.n = 5;
    s.params.ts = 1;
    s.params.ta = 1;
    s.params.dim = 2;
    s.seed = seed;
    return s;
  }

  agreebench::Collector& c_;
  std::uint64_t seed_;
  agreebench::TimedDomain timed_domain_;
};

/// Burst open loop on the simulator: 1000 instances admitted at t=0, R^2,
/// n=5, sync-worst, party 0 of every 4th instance crashes.
class BurstWorkload final : public ServeWorkload {
 public:
  using ServeWorkload::ServeWorkload;

  [[nodiscard]] bool simulated() const override { return true; }

  void setup() override {
    Pass warm;
    serve_once(spec(seed_ ^ 0x5eedULL, 100), false, 0.0, warm);
  }

  Pass run(double budget_s, const Pass* replay, bool traced) override {
    Pass pass;
    const auto t0 = Clock::now();
    const double c0 = cpu_s();
    for (std::size_t i = 0;; ++i) {
      if (replay != nullptr ? i >= replay->calls : (i > 0 && since_s(t0) >= budget_s)) {
        break;
      }
      serve_once(spec(seed_, kInstances), traced, 0.0, pass);
    }
    pass.wall_s = since_s(t0);
    pass.cpu_s = cpu_s() - c0;
    return pass;
  }

 private:
  static constexpr std::uint32_t kInstances = 1000;

  static serve::ServeSpec spec(std::uint64_t seed, std::uint32_t instances) {
    auto s = r2_spec(seed);
    s.network = harness::Network::kSyncWorstCase;
    s.adversary = harness::Adversary::kCrash;
    s.corruptions = 1;
    for (std::uint32_t k = 0; k < instances; k += 4) s.corrupt_instances.push_back(k);
    s.instances = instances;
    s.interarrival = 0;
    s.backend = "sim";
    return s;
  }
};

/// Open loop at a fixed rate over Unix-domain sockets: R^2, n=5, sync-jitter,
/// Delta = 8000 ticks x 5 us = 40 ms, no adversary, 50 agreements/s by
/// default. At 100/s and Delta = 20 ms about one run in twelve collapsed: a
/// scheduling stall longer than Delta pushes agreements onto the slow path,
/// their extra messages load the sockets further, and every agreement timed
/// out. Half the rate and twice Delta leave room to recover.
class RateWorkload final : public ServeWorkload {
 public:
  RateWorkload(agreebench::Collector& c, std::uint64_t seed, double rate,
               std::string sock_dir)
      : ServeWorkload(c, seed), rate_(rate), sock_dir_(std::move(sock_dir)) {}

  [[nodiscard]] bool simulated() const override { return false; }

  void setup() override {
    Pass warm;
    serve_once(spec(seed_ ^ 0x5eedULL, 1.0), false, kTickMs, warm);
  }

  Pass run(double budget_s, const Pass* replay, bool traced) override {
    Pass pass;
    const double seconds =
        replay != nullptr ? static_cast<double>(replay->agreements.size()) / rate_
                          : budget_s;
    const auto t0 = Clock::now();
    const double c0 = cpu_s();
    const auto s = spec(seed_, seconds);
    serve_once(s, traced, kTickMs, pass);
    pass.wall_s = since_s(t0);
    pass.cpu_s = cpu_s() - c0;
    pass.open_loop = true;
    return pass;
  }

 private:
  static constexpr double kUsPerTick = 5.0;
  static constexpr double kTickMs = kUsPerTick / 1000.0;

  [[nodiscard]] serve::ServeSpec spec(std::uint64_t seed, double seconds) const {
    auto s = r2_spec(seed);
    s.params.delta = 8000;
    s.us_per_tick = kUsPerTick;
    s.network = harness::Network::kSyncJitter;
    s.instances = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(std::lround(rate_ * seconds)));
    s.interarrival = std::llround(1e6 / (rate_ * kUsPerTick));
    s.timeout_ms = static_cast<std::int64_t>(seconds * 1000.0) + 60'000;
    s.backend = "uds";
    const std::string prefix =
        sock_dir_ + "/agreebench-" + std::to_string(::getpid()) + "-p";
    for (std::size_t id = 0; id < s.params.n; ++id) {
      s.endpoints.push_back(prefix + std::to_string(id) + ".sock");
    }
    return s;
  }

  double rate_;
  std::string sock_dir_;
};

// ----------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The metrics of one mode (in BENCHMARK.json order) plus extras that are
/// printed but not part of the result line: workload-specific figures, or
/// ones that are legitimately zero on healthy runs.
struct Report {
  std::vector<Metric> metrics;
  std::vector<Metric> extras;
};

double safe_div(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Agreements whose honest output iteration exceeds 1.
Metric fallback_frac(const Pass& p) {
  const auto fallbacks = std::count_if(p.agreements.begin(), p.agreements.end(),
                                       [](const Agreement& a) { return a.iterations > 1; });
  return {"protocols.fallback_frac",
          static_cast<double>(fallbacks) / static_cast<double>(p.agreements.size()),
          "ratio"};
}

/// How late agreements started against their due time (`p` = 100: the max).
Metric admission_lag(const Pass& p, double pct) {
  std::vector<double> lag;
  for (const auto& a : p.agreements) lag.push_back(a.admission_lag_ms);
  return {pct >= 100.0 ? "serve.admission_lag_ms_max" : "serve.admission_lag_ms_p50",
          percentile(lag, pct), "ms"};
}

/// Figures both modes print as extras.
void common_extras(const Pass& p, std::vector<Metric>& out) {
  out.push_back({"fail_frac",
                 static_cast<double>(p.agreements.size() - p.ok_count()) /
                     static_cast<double>(p.agreements.size()),
                 "ratio"});
  if (p.health.flushes > 0) {
    out.push_back({"transport.flush_us_p50",
                   bucket_percentile(p.health.flush_ns_buckets, 50.0) / 1000.0, "us"});
    out.push_back({"transport.flush_us_p99",
                   bucket_percentile(p.health.flush_ns_buckets, 99.0) / 1000.0, "us"});
  }
}

/// End-to-end metrics from the untraced pass.
Report end_to_end(const Pass& p, double setup_s) {
  std::vector<double> latency;
  std::vector<double> rounds;
  for (const auto& a : p.agreements) {
    // A failed agreement misses every latency bound.
    latency.push_back(a.ok ? a.latency_ms : p.wall_s * 1000.0);
    rounds.push_back(a.ok ? a.rounds : 1e9);
  }
  const std::size_t n = p.agreements.size();
  const auto decided = static_cast<double>(std::max<std::size_t>(1, p.ok_count()));
  const double tail = tail_percentile(n);
  // Open loop: from the first due time to the last decision, so neither the
  // socket mesh set-up nor the teardown counts, but a straggler does.
  double makespan_s = 0.0;
  for (const auto& a : p.agreements) {
    if (a.ok) makespan_s = std::max(makespan_s, a.decided_at_ms / 1000.0);
  }
  const double window_s = p.open_loop ? makespan_s : p.wall_s;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Report r;
  r.extras.push_back({"tail_percentile", tail, "p"});
  r.extras.push_back({"tail_samples", static_cast<double>(n), "count"});
  common_extras(p, r.extras);
  r.extras.push_back(fallback_frac(p));
  r.extras.push_back(admission_lag(p, 50.0));
  r.extras.push_back(admission_lag(p, 100.0));
  r.metrics = {
      {"setup_s", setup_s, "s"},
      {"agreements_per_s", safe_div(static_cast<double>(p.ok_count()), window_s), "1/s"},
      {"latency_ms_p50", percentile(latency, 50.0), "ms"},
      {"latency_ms_tail", percentile(latency, tail), "ms"},
      {"decision_rounds_p50", percentile(rounds, 50.0), "delta"},
      {"decision_rounds_tail", percentile(rounds, tail), "delta"},
      {"cpu_ms_per_agreement", p.cpu_s * 1000.0 / decided, "ms"},
      {"msgs_per_agreement", static_cast<double>(p.messages) / static_cast<double>(n),
       "count"},
      {"bytes_per_agreement", static_cast<double>(p.bytes) / static_cast<double>(n), "B"},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
  };
  return r;
}

/// Per-layer metrics from the traced pass (and the untraced one, for the
/// tracing overhead). Layer times, per agreement:
///   harness   execute/run_serve wall - Backend::run
///   backend   simulator: Backend::run - party handlers;
///             sockets: process CPU - handlers - harness
///   protocols party handlers - net - geometry
///   net       Env::send/broadcast
///   geometry  geo.* + aa.safe_area + ValueDomain::aggregate self time
/// The whole pass is the traced pass's wall time on the simulator and its
/// process CPU time on sockets; what no layer covers is `unattributed`.
Report per_layer(const Pass& t, const Pass& u, bool simulated) {
  const auto& rp = t.run_phases;
  const double agreements = static_cast<double>(t.agreements.size());
  const double pass_ms = simulated ? phase_total_ms(t.outer_phases, "bench.pass")
                                   : t.cpu_s * 1000.0;
  const double harness_ms = phase_total_ms(t.outer_phases, "bench.harness") -
                            phase_total_ms(rp, "bench.backend");
  const double party_ms = phase_total_ms(rp, "bench.party");
  const double net_ms = phase_total_ms(rp, "bench.net");
  const double geo_ms = geometry_ms(rp);
  const double protocols_ms = party_ms - net_ms - geo_ms;
  // On sockets the transport runs on threads no span covers, so it is the
  // remainder of the process CPU and nothing is left unattributed.
  const double backend_ms = simulated
                                ? phase_total_ms(rp, "bench.backend") - party_ms
                                : pass_ms - party_ms - harness_ms;
  const double unattributed_ms =
      simulated ? pass_ms - harness_ms - backend_ms - party_ms : 0.0;

  const auto calls = static_cast<double>(phase_count(rp, "bench.party"));
  const auto sends = static_cast<double>(phase_count(rp, "bench.net"));
  const auto lp = static_cast<double>(phase_count(rp, "geo.lp.simplex"));
  const auto safe_areas = static_cast<double>(phase_count(rp, "aa.safe_area"));
  std::uint64_t iterations = 0;
  for (const auto& a : t.agreements) iterations += a.iterations;
  const auto per = [agreements](double x) { return x / agreements; };
  const double cpu_t = t.cpu_s / agreements;
  const double cpu_u = u.cpu_s / static_cast<double>(u.agreements.size());
  Report r;
  common_extras(t, r.extras);
  if (lp > 0.0) {
    r.extras.push_back({"geometry.lp_us_per_solve",
                        phase_total_ms(rp, "geo.lp.simplex") * 1000.0 / lp, "us"});
  }
  r.metrics = {
      {"geometry.self_ms_per_agreement", per(geo_ms), "ms"},
      {"geometry.share", geo_ms / pass_ms, "ratio"},
      {"geometry.safe_areas_per_agreement", per(safe_areas), "count"},
      {"geometry.us_per_safe_area",
       safe_div(phase_total_ms(rp, "aa.safe_area") * 1000.0, safe_areas), "us"},
      {"geometry.lp_solves_per_agreement", per(lp), "count"},
      {"geometry.fallbacks_per_agreement", per(static_cast<double>(t.fallbacks)),
       "count"},
      {"protocols.self_ms_per_agreement", per(protocols_ms), "ms"},
      {"protocols.share", protocols_ms / pass_ms, "ratio"},
      {"protocols.calls_per_agreement", per(calls), "count"},
      {"protocols.self_us_per_call", safe_div(protocols_ms * 1000.0, calls), "us"},
      {"protocols.iterations_per_agreement", per(static_cast<double>(iterations)),
       "count"},
      fallback_frac(t),
      {"net.sends_per_agreement", per(sends), "count"},
      {"net.send_us_per_call", safe_div(net_ms * 1000.0, sends), "us"},
      {"net.share", net_ms / pass_ms, "ratio"},
      {"backend.self_ms_per_agreement", per(backend_ms), "ms"},
      {"backend.self_ns_per_event", safe_div(backend_ms * 1e6, calls), "ns"},
      {"backend.share", backend_ms / pass_ms, "ratio"},
      {"backend.setup_ms", t.setup_ms / static_cast<double>(t.calls), "ms"},
      {"sim.events_per_agreement", per(static_cast<double>(t.events)), "count"},
      {"transport.frames_per_flush",
       safe_div(static_cast<double>(t.health.frames_sent),
                static_cast<double>(t.health.flushes)),
       "count"},
      {"transport.egress_hwm", static_cast<double>(t.health.egress_hwm), "count"},
      {"transport.mailbox_hwm", static_cast<double>(t.health.mailbox_hwm), "count"},
      {"transport.threads_peak", static_cast<double>(t.threads_peak), "count"},
      {"transport.frames_dropped", static_cast<double>(t.frames_dropped), "count"},
      {"serve.live_peak", static_cast<double>(t.live_peak), "count"},
      {"serve.slots_allocated", static_cast<double>(t.slots), "count"},
      {"serve.dropped_per_agreement", per(static_cast<double>(t.dropped)), "count"},
      admission_lag(t, 50.0),
      admission_lag(t, 100.0),
      {"harness.self_ms_per_agreement", per(harness_ms), "ms"},
      {"unattributed.share", unattributed_ms / pass_ms, "ratio"},
      {"trace.overhead", cpu_t / cpu_u - 1.0, "ratio"},
  };
  return r;
}

std::unique_ptr<Workload> make_workload(const Options& o, agreebench::Collector& c) {
  if (o.workload == "r3-sync-solo") return std::make_unique<SoloWorkload>(c, o.seed);
  if (o.workload == "r2-burst-sim") return std::make_unique<BurstWorkload>(c, o.seed);
  if (o.workload == "r2-rate-uds") {
    return std::make_unique<RateWorkload>(c, o.seed, o.rate > 0.0 ? o.rate : 50.0,
                                          o.sock_dir);
  }
  return nullptr;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "agreebench: %s\nusage: agreebench --workload "
               "r3-sync-solo|r2-burst-sim|r2-rate-uds --seed N --seconds S "
               "--trace 0|1 [--rate R] [--sock-dir DIR] [--git SHA] "
               "[--dirty 0|1|unknown]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--rate") {
      o.rate = std::strtod(value.c_str(), nullptr);
    } else if (key == "--sock-dir") {
      o.sock_dir = value;
    } else if (key == "--git") {
      o.git = value;
    } else if (key == "--dirty") {
      o.dirty = value;
    } else {
      usage("unknown argument");
    }
  }
  if (argc % 2 == 0) usage("every option takes a value");
  if (o.seconds <= 0.0) usage("--seconds must be positive");
  return o;
}

/// True when `b`, the counts of a repeat of the first calls of `a`'s pass,
/// matches `a` exactly over its length.
bool counts_repeat(const std::vector<std::uint64_t>& a,
                   const std::vector<std::uint64_t>& b) {
  return !b.empty() && b.size() <= a.size() &&
         std::equal(b.begin(), b.end(), a.begin());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  agreebench::Collector collector;
  auto workload = make_workload(opt, collector);
  if (workload == nullptr) usage("unknown --workload");

  std::printf("agreebench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  const std::string build = AGREEBENCH_BUILD_TYPE;
  std::printf("stamp git=%s dirty=%s build=%s compiler=%s nproc=%ld\n",
              opt.git.c_str(), opt.dirty.c_str(), build.c_str(), AGREEBENCH_COMPILER,
              ::sysconf(_SC_NPROCESSORS_ONLN));
  if (build != "Release") std::printf("WARNING: not a Release build\n");
  if (opt.dirty != "0") std::printf("WARNING: working tree dirty or unknown\n");

  // Set-up, three times; the median is setup_s.
  std::vector<double> setups;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    harness::ensure_backends_registered();
    agreebench::register_decorators(collector);
    workload->setup();
    setups.push_back(since_s(t0));
  }
  const double setup_s = percentile(setups, 50.0);
  std::printf("setup_s runs %.4f %.4f %.4f\n", setups[0], setups[1], setups[2]);

  bool deterministic = true;
  Report report;
  Pass untraced = workload->run(opt.trace ? opt.seconds / 2.0 : opt.seconds, nullptr,
                                false);
  Pass traced;
  if (!opt.trace) {
    if (workload->simulated()) {
      // Repeat the first call: its deterministic counts must match exactly.
      Pass first;
      first.calls = 1;
      const Pass again = workload->run(0.0, &first, false);
      deterministic = counts_repeat(untraced.counts, again.counts);
    }
    report = end_to_end(untraced, setup_s);
  } else {
    obs::Profiler outer_prof;
    obs::Profiler run_prof;
    collector.run_profiler = &run_prof;
    obs::Context ctx;
    ctx.profiler = &outer_prof;
    {
      const obs::ScopedContext scope(&ctx);
      HYDRA_PROF_SCOPE("bench.pass");
      traced = workload->run(0.0, &untraced, true);
    }
    traced.outer_phases = outer_prof.snapshot();
    traced.run_phases = run_prof.snapshot();
    if (workload->simulated()) {
      deterministic = untraced.counts == traced.counts;
      // LP solves and safe areas: repeat the first call traced once more.
      Pass first;
      first.calls = 1;
      obs::Profiler again_prof;
      collector.run_profiler = &again_prof;
      const Pass again = workload->run(0.0, &first, true);
      deterministic = deterministic && counts_repeat(traced.traced_counts,
                                                     again.traced_counts);
    }
    collector.run_profiler = nullptr;
    report = per_layer(traced, untraced, workload->simulated());
  }

  std::size_t attempted = untraced.agreements.size();
  std::size_t failed = attempted - untraced.ok_count();
  if (opt.trace) {
    attempted += traced.agreements.size();
    failed += traced.agreements.size() - traced.ok_count();
  }
  const auto& metrics = report.metrics;
  for (const auto& m : metrics) {
    std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& m : report.extras) {
    std::printf("extra  %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!deterministic) {
    std::printf("ERROR: deterministic simulator counts differed between passes\n");
  }
  const bool correct = failed == 0 && deterministic;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
