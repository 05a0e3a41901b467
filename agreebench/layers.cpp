#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "obs/context.hpp"
#include "protocols/aa.hpp"
#include "serve/instance_mux.hpp"

namespace agreebench {
namespace {

using hydra::PartyId;
using hydra::Time;
namespace net = hydra::net;
namespace obs = hydra::obs;
namespace sim = hydra::sim;

/// Threads of this process, from /proc/self/status (0 if unreadable).
std::uint64_t thread_count() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t threads = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "Threads:", 8) == 0) {
      threads = std::strtoull(line + 8, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return threads;
}

/// State one traced run shares across its party wrappers (and, on the
/// socket backend, across their worker threads).
struct RunProbe {
  Clock::time_point entry;
  std::atomic<std::int64_t> first_start_ns{-1};  ///< after `entry`
  std::atomic<std::uint64_t> threads_peak{0};

  void note_start() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - entry)
                        .count();
    std::int64_t unset = -1;
    first_start_ns.compare_exchange_strong(unset, ns);
  }

  void sample_threads() {
    const std::uint64_t now = thread_count();
    std::uint64_t seen = threads_peak.load(std::memory_order_relaxed);
    while (now > seen &&
           !threads_peak.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
    }
  }
};

class TracedEnv final : public sim::Env {
 public:
  void bind(sim::Env& env) noexcept { inner_ = &env; }

  void send(PartyId to, sim::Message msg) override {
    HYDRA_PROF_SCOPE("bench.net");
    inner_->send(to, std::move(msg));
  }
  void broadcast(const sim::Message& msg) override {
    HYDRA_PROF_SCOPE("bench.net");
    inner_->broadcast(msg);
  }
  void set_timer(Time at, std::uint64_t timer_id) override {
    inner_->set_timer(at, timer_id);
  }
  [[nodiscard]] Time now() const override { return inner_->now(); }
  [[nodiscard]] PartyId self() const override { return inner_->self(); }
  [[nodiscard]] std::size_t n() const override { return inner_->n(); }

 private:
  sim::Env* inner_ = nullptr;
};

class TracedParty final : public sim::IParty {
 public:
  TracedParty(sim::IParty& inner, RunProbe& probe, bool samples_threads)
      : inner_(inner), probe_(probe), samples_threads_(samples_threads) {}

  void start(sim::Env& env) override {
    probe_.note_start();
    HYDRA_PROF_SCOPE("bench.party");
    env_.bind(env);
    inner_.start(env_);
  }
  void on_message(sim::Env& env, PartyId from, const sim::Message& msg) override {
    HYDRA_PROF_SCOPE("bench.party");
    tick();
    env_.bind(env);
    inner_.on_message(env_, from, msg);
  }
  void on_timer(sim::Env& env, std::uint64_t timer_id) override {
    HYDRA_PROF_SCOPE("bench.party");
    tick();
    env_.bind(env);
    inner_.on_timer(env_, timer_id);
  }

  [[nodiscard]] const sim::IParty& inner() const noexcept { return inner_; }

 private:
  void tick() {
    if (samples_threads_ && (++calls_ & 4095u) == 0) probe_.sample_threads();
  }

  sim::IParty& inner_;
  RunProbe& probe_;
  bool samples_threads_;
  std::uint32_t calls_ = 0;
  TracedEnv env_;
};

/// Reads per-agreement results out of the parties after the run.
void harvest(const Collector& c, const std::vector<const sim::IParty*>& parties,
             RunRecord& rec) {
  if (c.instances == 0) {
    for (std::size_t id = c.corruptions; id < parties.size(); ++id) {
      const auto* aa = dynamic_cast<const hydra::protocols::AaParty*>(parties[id]);
      if (aa != nullptr && aa->has_output()) {
        rec.decision_time = std::max(rec.decision_time, aa->output_time());
      }
    }
    return;
  }
  std::vector<const hydra::serve::InstanceMux*> muxes;
  for (const auto* p : parties) {
    muxes.push_back(dynamic_cast<const hydra::serve::InstanceMux*>(p));
    if (muxes.back() == nullptr) return;
  }
  rec.decided.assign(c.instances, false);
  rec.due_latency.assign(c.instances, 0);
  rec.admission_lag.assign(c.instances, 0);
  for (std::uint32_t k = 0; k < c.instances; ++k) {
    const Time due = Time{k} * c.interarrival;
    bool decided = true;
    Time last_decision = due;
    Time last_admission = due;
    for (const auto* mux : muxes) {
      const auto& r = mux->record(k);
      last_admission = std::max(last_admission, r.admitted_at);
      if (r.corrupt_slot) continue;
      decided = decided && r.decided;
      if (r.decided) last_decision = std::max(last_decision, r.decided_at);
    }
    rec.decided[k] = decided;
    rec.due_latency[k] = last_decision - due;
    rec.admission_lag[k] = last_admission - due;
  }
}

class LayerBackend final : public net::Backend {
 public:
  LayerBackend(std::unique_ptr<net::Backend> inner, Collector& collector,
               bool traced)
      : inner_(std::move(inner)), collector_(collector), traced_(traced) {}

  void set_fault_injector(hydra::faults::FaultInjector* injector) override {
    inner_->set_fault_injector(injector);
  }

  net::BackendStats run(std::vector<std::unique_ptr<sim::IParty>>& parties,
                        const FinishedFn& finished) override {
    std::vector<const sim::IParty*> observed;
    for (const auto& p : parties) observed.push_back(p.get());
    RunRecord rec;
    rec.entry = Clock::now();
    if (traced_) {
      run_traced(parties, finished, rec);
    } else {
      rec.stats = inner_->run(parties, finished);
    }
    harvest(collector_, observed, rec);
    collector_.records.push_back(std::move(rec));
    return collector_.records.back().stats;
  }

 private:
  void run_traced(std::vector<std::unique_ptr<sim::IParty>>& parties,
                  const FinishedFn& finished, RunRecord& rec) {
    // Keep the caller's observability state (execute() installs a per-run
    // context) and add the run profiler. The fallback counter is an atomic
    // inside the context, so hand its count back to the caller's context.
    obs::Context* outer = obs::current_context();
    if (outer != nullptr) {
      ctx_.registry = outer->registry;
      ctx_.trace_sink = outer->trace_sink;
      ctx_.monitors = outer->monitors;
      ctx_.stats = outer->stats;
      ctx_.enabled = outer->enabled;
    }
    ctx_.profiler = collector_.run_profiler;
    const obs::ScopedContext scope(&ctx_);
    HYDRA_PROF_SCOPE("bench.backend");
    probe_.entry = rec.entry;
    wrapped_.clear();
    for (std::size_t id = 0; id < parties.size(); ++id) {
      wrapped_.push_back(
          std::make_unique<TracedParty>(*parties[id], probe_, /*samples=*/id == 0));
    }
    // finished() and the caller both static_cast to their own party types:
    // hand them the inner objects.
    const FinishedFn unwrap = [&finished](const sim::IParty& party, PartyId id) {
      return finished(static_cast<const TracedParty&>(party).inner(), id);
    };
    probe_.sample_threads();
    rec.stats = inner_->run(wrapped_, unwrap);
    const std::int64_t start_ns = probe_.first_start_ns.load();
    rec.setup_ms = start_ns >= 0 ? static_cast<double>(start_ns) / 1e6 : 0.0;
    rec.threads_peak = probe_.threads_peak.load();
    rec.fallbacks = ctx_.safe_area_fallbacks.load();
    if (outer != nullptr) outer->safe_area_fallbacks.fetch_add(rec.fallbacks);
  }

  std::unique_ptr<net::Backend> inner_;
  Collector& collector_;
  bool traced_;
  obs::Context ctx_;
  RunProbe probe_;
  // Must outlive the run: the simulator takes ownership of the wrappers,
  // the socket backend borrows them.
  std::vector<std::unique_ptr<sim::IParty>> wrapped_;
};

const hydra::domain::ValueDomain& euclid() { return hydra::domain::euclid(); }

}  // namespace

void register_decorators(Collector& collector) {
  for (const char* name : {"sim", "uds"}) {
    for (const bool traced : {false, true}) {
      const std::string inner_name = name;
      net::register_backend(
          std::string(traced ? "bench-trace-" : "bench-probe-") + name,
          [&collector, inner_name, traced](
              const net::BackendConfig& config,
              std::unique_ptr<sim::DelayModel> delay) -> std::unique_ptr<net::Backend> {
            auto inner = net::make_backend(inner_name, config, std::move(delay));
            if (inner == nullptr) return nullptr;
            return std::make_unique<LayerBackend>(std::move(inner), collector, traced);
          });
    }
  }
}

// -- TimedDomain -------------------------------------------------------------

std::string_view TimedDomain::name() const noexcept { return euclid().name(); }
bool TimedDomain::validate(const hydra::geo::Vec& v) const {
  return euclid().validate(v);
}
double TimedDomain::distance(const hydra::geo::Vec& a,
                             const hydra::geo::Vec& b) const {
  return euclid().distance(a, b);
}
double TimedDomain::diameter(std::span<const hydra::geo::Vec> points) const {
  return euclid().diameter(points);
}
hydra::domain::AggregateResult TimedDomain::aggregate(
    const hydra::domain::AggregateSpec& spec,
    std::span<const hydra::geo::Vec> values) const {
  HYDRA_PROF_SCOPE("bench.geometry");
  return euclid().aggregate(spec, values);
}
bool TimedDomain::in_validity_set(std::span<const hydra::geo::Vec> basis,
                                  const hydra::geo::Vec& candidate,
                                  double tol) const {
  return euclid().in_validity_set(basis, candidate, tol);
}
double TimedDomain::contraction_factor() const noexcept {
  return euclid().contraction_factor();
}
double TimedDomain::contraction_bound(double factor, double prev_diameter) const {
  return euclid().contraction_bound(factor, prev_diameter);
}
std::uint64_t TimedDomain::sufficient_iterations(double eps, double diam) const {
  return euclid().sufficient_iterations(eps, diam);
}
bool TimedDomain::feasible(std::size_t n, std::size_t ts, std::size_t ta,
                           std::size_t dim) const noexcept {
  return euclid().feasible(n, ts, ta, dim);
}
std::optional<std::size_t> TimedDomain::required_dim() const noexcept {
  return euclid().required_dim();
}
double TimedDomain::min_eps() const noexcept { return euclid().min_eps(); }
std::optional<std::vector<hydra::geo::Vec>> TimedDomain::make_inputs(
    std::size_t n, std::size_t dim, double scale, std::uint64_t seed) const {
  return euclid().make_inputs(n, dim, scale, seed);
}
std::string TimedDomain::format_value(const hydra::geo::Vec& v) const {
  return euclid().format_value(v);
}

}  // namespace agreebench
