// Metrics registry: named counters, gauges, and fixed-bucket histograms.
//
// Design goals, in order:
//   1. Near-zero cost when observability is disabled. Every instrumentation
//      site is guarded by `if (obs::enabled())` — a single thread-local
//      load and a predictable branch; nothing else executes
//      (bench/bench_obs_overhead.cpp keeps this honest, < 2%).
//   2. Thread safety when enabled. The thread transport runs one OS thread
//      per party; counters and gauges are lock-free atomics, histograms and
//      the name -> instrument map take a mutex (enabled-path only).
//   3. Snapshot-ability. Registry::to_json() serializes every registered
//      instrument; the harness embeds it in the per-run metrics file.
//
// Instruments are registered by name on first use (find-or-create) and live
// for the registry's lifetime; references returned by counter()/gauge()/
// histogram() remain valid until reset().
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/assert.hpp"
#include "obs/context.hpp"  // enabled() and per-run contexts

namespace hydra::obs {

/// Monotonically increasing count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins signed value.
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram. `bounds` are ascending upper edges: a sample x
/// lands in the first bucket with x <= bounds[i]; samples above the last
/// bound land in the overflow bucket (index bounds.size()).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double x);

  struct Snapshot {
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 entries
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< meaningful only when count > 0
    double max = 0.0;
  };
  [[nodiscard]] Snapshot snapshot() const;

 private:
  std::vector<double> bounds_;
  mutable std::mutex mutex_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Name -> instrument map. Instrumentation sites reach their registry via
/// obs::registry(), which resolves to the current run's Context; tests may
/// construct private registries.
class Registry {
 public:
  /// Find-or-create. The reference is stable until reset().
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` are used only on first registration of `name`.
  Histogram& histogram(std::string_view name, std::span<const double> bounds);

  /// Drops every instrument. References handed out earlier are invalidated;
  /// call only between runs, never concurrently with instrumentation.
  void reset();

  /// {"counters":{...},"gauges":{...},"histograms":{name:{"bounds":[...],
  /// "counts":[...],"count":N,"sum":S,"min":m,"max":M}}}
  [[nodiscard]] std::string to_json() const;

 private:
  mutable std::mutex mutex_;
  // std::map: deterministic iteration order makes to_json() stable, and node
  // stability keeps instrument references valid across later insertions.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The registry instrumentation should write to: the current context's.
/// Callers sit behind obs::enabled(), so a context is installed, and an
/// enabled context must carry a registry.
[[nodiscard]] inline Registry& registry() {
  Context* ctx = current_context();
  HYDRA_ASSERT_MSG(ctx != nullptr && ctx->registry != nullptr,
                   "obs::registry() needs an installed context with a registry");
  return *ctx->registry;
}

}  // namespace hydra::obs
