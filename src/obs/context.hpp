// Per-run observability context.
//
// All run state — the metrics registry, the trace sink, the monitors, the
// profiler, the enabled flag and the safe-area fallback counter — lives in a
// Context installed *per thread* with ScopedContext. Instrumentation sites
// read through the accessors below (obs::enabled(), obs::registry(),
// obs::trace()); with no context installed observability is off. The
// parallel sweep engine (harness/sweep.hpp) therefore executes many runs
// concurrently, each with fully isolated state.
//
// Threading contract: a Context is installed on one thread at a time via
// ScopedContext; code that fans work out to helper threads (e.g.
// transport::ThreadNetwork) re-installs the creating thread's context on
// each helper. Context fields other than the atomic counters are written
// only before installation.
//
// HYDRA_OBS_COMPILED_OUT turns obs::enabled() and obs::prof_enabled() into
// constexpr false and HYDRA_PROF_SCOPE into nothing, so every hook folds
// away at compile time. Only bench_obs_overhead's baseline executable
// defines it, as the uninstrumented build the disabled path is measured
// against. Every object of a binary must agree on it: two definitions of
// one inline function in one binary are an ODR violation.
#pragma once

#include <atomic>
#include <cstdint>

namespace hydra::obs {

class Registry;
class TraceSink;
class MonitorHost;
class Profiler;
class StatsPublisher;

struct Context {
  Registry* registry = nullptr;     ///< per-run registry; required if enabled
  TraceSink* trace_sink = nullptr;  ///< per-run trace sink; may be null
  MonitorHost* monitors = nullptr;  ///< per-run invariant monitors; may be null
  Profiler* profiler = nullptr;     ///< per-run phase profiler; may be null
  /// Live telemetry heartbeat publisher (obs/stats.hpp); may be null. Not on
  /// any hot path: backends look it up once at run start to register their
  /// snapshot provider, so the disabled cost is zero.
  StatsPublisher* stats = nullptr;
  bool enabled = false;             ///< per-run master switch
  /// Safe-area numerical fallbacks during this run. Counted even when
  /// `enabled` is false (it is a correctness diagnostic, not a metric).
  std::atomic<std::uint64_t> safe_area_fallbacks{0};
};

namespace detail {
inline thread_local Context* t_context = nullptr;

/// A cache of `t_context != nullptr && t_context->enabled`, maintained by
/// ScopedContext, so obs::enabled() is a single load; the disabled hot path
/// is guarded by bench_obs_overhead (< 2% over uninstrumented).
inline thread_local bool t_enabled = false;

/// A cache of `t_context ? t_context->profiler : nullptr`, maintained like
/// t_enabled, so obs::prof_enabled() is one thread-local load (obs/prof.hpp).
inline thread_local Profiler* t_profiler = nullptr;
}  // namespace detail

/// The context installed on the current thread, or nullptr.
[[nodiscard]] inline Context* current_context() noexcept {
  return detail::t_context;
}

/// Master switch. All instrumentation sites branch on this flag; when false
/// they execute nothing else. It is the installed context's enabled bool,
/// false when no context is installed.
#ifdef HYDRA_OBS_COMPILED_OUT
[[nodiscard]] constexpr bool enabled() noexcept { return false; }
#else
[[nodiscard]] inline bool enabled() noexcept { return detail::t_enabled; }
#endif

/// The invariant-monitor host for the current run, or nullptr.
[[nodiscard]] inline MonitorHost* monitors() noexcept {
  const Context* ctx = detail::t_context;
  return ctx != nullptr ? ctx->monitors : nullptr;
}

/// The live-telemetry publisher for the current run, or nullptr. Consulted
/// once per run, never per event.
[[nodiscard]] inline StatsPublisher* stats() noexcept {
  const Context* ctx = detail::t_context;
  return ctx != nullptr ? ctx->stats : nullptr;
}

/// True when a phase profiler is installed on this thread — a single
/// thread-local load, same cost class as obs::enabled(). Instrumented
/// scopes (HYDRA_PROF_SCOPE, obs/prof.hpp) check this themselves.
#ifdef HYDRA_OBS_COMPILED_OUT
[[nodiscard]] constexpr bool prof_enabled() noexcept { return false; }
#else
[[nodiscard]] inline bool prof_enabled() noexcept {
  return detail::t_profiler != nullptr;
}
#endif

/// The profiler active on this thread, or nullptr.
[[nodiscard]] inline Profiler* profiler() noexcept { return detail::t_profiler; }

/// Installs `ctx` on this thread for the enclosing scope (nullptr = no
/// context, observability off). Restores the previously installed context on
/// destruction.
class ScopedContext {
 public:
  explicit ScopedContext(Context* ctx) noexcept
      : prev_(detail::t_context),
        prev_enabled_(detail::t_enabled),
        prev_profiler_(detail::t_profiler) {
    detail::t_context = ctx;
    detail::t_enabled = ctx != nullptr && ctx->enabled;
    detail::t_profiler = ctx != nullptr ? ctx->profiler : nullptr;
  }
  ~ScopedContext() {
    detail::t_context = prev_;
    detail::t_enabled = prev_enabled_;
    detail::t_profiler = prev_profiler_;
  }

  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  Context* prev_;
  bool prev_enabled_;
  Profiler* prev_profiler_;
};

}  // namespace hydra::obs
