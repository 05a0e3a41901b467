// Hierarchical scoped-phase profiler.
//
// A Profiler rides in the run's obs::Context exactly like the metrics
// registry: installed thread-locally (ScopedContext propagates it to
// transport::ThreadNetwork workers along with the rest of the context).
// Instrumentation sites drop an RAII scope:
//
//   void ConvexPolygon2D::intersect(...) {
//     HYDRA_PROF_SCOPE("geo.clip");
//     ...
//   }
//
// and the profiler aggregates, per phase NAME (nesting affects only the
// self/total split, never the key):
//   - count        how many times the scope ran,
//   - total_ns     wall time inside the scope, children included,
//   - self_ns      total minus time spent in nested scopes (child-exclusive),
//   - min/max and a compact log2-bucket latency histogram, from which the
//     reporting layer (harness/perf.hpp, harness::Stats::summary())
//     derives approximate percentiles.
//
// Cost model, in line with the rest of the observability layer
// (bench_obs_overhead holds the combined disabled path under 2%):
//   - disabled (no profiler installed): the scope constructor is one
//     thread-local load and a branch — obs::prof_enabled() is that same
//     single load — and the destructor one member load and a branch.
//     Nothing else executes; no name lookup, no clock read. Hot paths that
//     are gated by the overhead bench additionally keep their scopes inside
//     existing obs::enabled() branches so the lean path is UNCHANGED.
//   - enabled: two steady_clock reads, one mutex-guarded name lookup, then
//     relaxed-atomic accumulation. Safe under the threads backend: phases
//     are keyed in a mutex-protected map (node-stable, like the registry)
//     and all counters are relaxed atomics — aggregation needs no ordering,
//     only eventual consistency at the post-join snapshot.
//
// Determinism contract: phase COUNTS are a pure function of the event
// schedule (byte-deterministic per (spec, seed) on the simulator); the
// nanosecond fields are wall clock and vary run to run. Profiler output
// therefore lives ONLY in the perf JSON side-channel (RunSpec::perf_out) —
// never in traces or the metrics registry — so golden traces and metrics
// files stay byte-identical per seed.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/context.hpp"

namespace hydra::obs {

/// Nearest-rank percentile p (0..100) of a log2 histogram whose bucket i
/// holds the values of bit width i + shift (std::bit_width; the layouts in
/// use name their shift as kBucketShift). The rank is ceil(p/100 * N), as
/// harness::Stats ranks raw samples; the result is the geometric midpoint
/// 2^(i + shift - 1/2) of the bucket holding that rank, or 0 for an empty
/// histogram.
[[nodiscard]] double log2_bucket_percentile(std::span<const std::uint64_t> buckets,
                                            double p, int shift);

class Profiler {
 public:
  /// Log2 latency buckets: bucket i counts samples of bit width i, i.e.
  /// 2^(i-1) <= ns < 2^i (bucket 0 is [0,1) ns); the last bucket absorbs
  /// everything >= 2^(kBuckets-2) ns (~9 minutes).
  static constexpr std::size_t kBuckets = 40;
  static constexpr int kBucketShift = 0;

  /// Per-phase accumulator. Relaxed atomics throughout: concurrent worker
  /// threads (threads backend) aggregate without ordering; readers snapshot
  /// after the workers join.
  struct PhaseStats {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> total_ns{0};
    std::atomic<std::uint64_t> self_ns{0};
    std::atomic<std::uint64_t> min_ns{UINT64_MAX};
    std::atomic<std::uint64_t> max_ns{0};
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};

    void record(std::uint64_t ns, std::uint64_t self) noexcept {
      count.fetch_add(1, std::memory_order_relaxed);
      total_ns.fetch_add(ns, std::memory_order_relaxed);
      self_ns.fetch_add(self, std::memory_order_relaxed);
      // CAS loops for the extrema; contention is rare (same phase, same
      // instant, new extreme) and bounded.
      std::uint64_t seen = min_ns.load(std::memory_order_relaxed);
      while (ns < seen &&
             !min_ns.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
      }
      seen = max_ns.load(std::memory_order_relaxed);
      while (ns > seen &&
             !max_ns.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
      }
      buckets[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
    }

    [[nodiscard]] static std::size_t bucket_of(std::uint64_t ns) noexcept {
      const auto b = static_cast<std::size_t>(std::bit_width(ns));
      return b < kBuckets ? b : kBuckets - 1;
    }
  };

  /// Plain-value copy of one phase, for reporting.
  struct Snapshot {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    std::uint64_t min_ns = 0;  ///< meaningful only when count > 0
    std::uint64_t max_ns = 0;
    std::array<std::uint64_t, kBuckets> buckets{};
  };

  /// Find-or-create; the reference is stable until reset() (node-stable map,
  /// same contract as Registry). Inline — together with ProfScope below this
  /// keeps the whole recording path header-only, so layers BELOW hydra_obs
  /// (the geometry kernels) can instrument themselves by include alone,
  /// without a link dependency back up to hydra_obs.
  PhaseStats& phase(std::string_view name) {
    const std::lock_guard lock(mutex_);
    auto it = phases_.find(name);
    if (it == phases_.end()) {
      it = phases_.emplace(std::string(name), std::make_unique<PhaseStats>()).first;
    }
    return *it->second;
  }

  /// All phases, sorted by name (deterministic order).
  [[nodiscard]] std::vector<Snapshot> snapshot() const;

  /// Drops every phase. Never call concurrently with instrumentation.
  void reset();

  /// {"phases":{name:{"count":...,"total_ns":...,"self_ns":...,
  /// "min_ns":...,"max_ns":...,"buckets":[...]}}} — buckets are
  /// trailing-zero-trimmed log2 counts.
  [[nodiscard]] std::string to_json() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<PhaseStats>, std::less<>> phases_;
};

namespace detail {
/// Innermost live scope on this thread; scopes form an intrusive stack so a
/// closing scope can charge its elapsed time to its parent's child total.
class ProfScope;
inline thread_local ProfScope* t_prof_top = nullptr;

class ProfScope {
 public:
  // The enabled paths live in noinline+cold helpers: what a site inlines is
  // one TLS load + branch (ctor) and one member load + branch (dtor),
  // nothing more, and the out-of-line bodies land in .text.unlikely, away
  // from the hot code. Inlining the full record path (clock reads, the
  // mutex-guarded phase lookup) at all ~27 instrumentation sites pushes hot
  // functions — the per-event simulator dispatch above all — past the
  // inliner threshold, and even out-of-line enabled-path code placed next
  // to a hot loop costs i-cache; bench_obs_overhead gates both effects.
  explicit ProfScope(const char* name) noexcept : prof_(t_profiler) {
    if (prof_ == nullptr) return;  // disabled path: one TLS load + branch
    enter(name);
  }

  ~ProfScope() {
    if (prof_ == nullptr) return;  // disabled path: one member load + branch
    leave();
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline, cold))
#endif
  void enter(const char* name) noexcept {
    name_ = name;
    parent_ = t_prof_top;
    t_prof_top = this;
    start_ = std::chrono::steady_clock::now();
  }

#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline, cold))
#endif
  void leave() noexcept {
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    t_prof_top = parent_;
    if (parent_ != nullptr) parent_->child_ns_ += ns;
    // Self time never goes negative even if a child's clock pair straddled
    // a bigger interval than ours (non-monotone TSC migration paranoia).
    prof_->phase(name_).record(ns, ns >= child_ns_ ? ns - child_ns_ : 0);
  }

  Profiler* prof_;
  const char* name_ = nullptr;
  ProfScope* parent_ = nullptr;
  std::uint64_t child_ns_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace detail

}  // namespace hydra::obs

// Token pasting through two levels so __LINE__ expands first.
#define HYDRA_PROF_CONCAT_IMPL(a, b) a##b
#define HYDRA_PROF_CONCAT(a, b) HYDRA_PROF_CONCAT_IMPL(a, b)

/// Profiles the enclosing scope under `name` (a string literal; phases
/// aggregate by name). Near-free when no profiler is installed, and nothing
/// at all under HYDRA_OBS_COMPILED_OUT (obs/context.hpp).
#ifdef HYDRA_OBS_COMPILED_OUT
#define HYDRA_PROF_SCOPE(name)
#else
#define HYDRA_PROF_SCOPE(name)                                      \
  const ::hydra::obs::detail::ProfScope HYDRA_PROF_CONCAT(          \
      hydra_prof_scope_, __LINE__)(name)
#endif
