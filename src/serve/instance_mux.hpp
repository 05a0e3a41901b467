// Multi-instance multiplexer: one sim::IParty hosting many concurrent
// protocol instances behind a single party slot of a shared backend — the
// paper's identification numbers (Section 2) extended to whole instances.
// It hosts every multi-instance party in the repository: the serving
// engine's fleets (serve/engine.hpp), the coordinate-wise baseline's
// per-coordinate agreements and examples/parallel_shards. Per-instance state
// is slab-allocated and retired by epoch-based GC:
//
//   egress   the per-instance Env stamps the serving-instance id into the
//            high bits of InstanceKey::tag (common/types.hpp layout; inner
//            protocol tags stay below 1 << kInstanceTagShift), so instance 0
//            traffic is byte-identical to a single-instance run;
//   ingress  on_message reads the instance id back out of the tag, strips it,
//            and dispatches to the owning slab slot. Messages for a retired
//            instance are counted and dropped (late_dropped) — stragglers'
//            echo tails must never crash the process; messages for an id that
//            was never admitted are counted as unknown_dropped.
//   timers   inner timer ids are rewritten to (instance << 32) | inner_id;
//            admission and GC use reserved high bits, so a late timer for a
//            retired instance is dropped exactly like a late message.
//   GC       an instance's slot is released once EVERY party decided it
//            (InstanceDirectory) and `linger` ticks elapsed; released slots
//            go to a free list and are reused by later admissions, bounding
//            resident state by the number of CONCURRENT instances, not the
//            total served.
//
// Observability: an optional per-instance obs::Context is installed (nested
// ScopedContext) around every dispatch into that instance, so per-instance
// MonitorHosts see exactly their own instance's sends/values/deliveries via
// the shared net::EgressPipeline hooks. Cause attribution inside these
// contexts is 0 (the outer delivery loop owns the DeliveryGate bracket);
// docs/ARCHITECTURE.md documents the seam.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "geometry/vec.hpp"
#include "obs/context.hpp"
#include "sim/env.hpp"
#include "sim/message.hpp"

namespace hydra::serve {

/// Deterministic per-instance seed derivation (splitmix64-style finalizer).
/// A solo harness::RunSpec with seed = instance_seed(base, k) reproduces
/// instance k's inputs exactly — the isolation tests rely on it.
[[nodiscard]] constexpr std::uint64_t instance_seed(std::uint64_t base,
                                                    std::uint32_t instance) noexcept {
  std::uint64_t h = base ^ (0x9e3779b97f4a7c15ULL * (std::uint64_t{instance} + 1));
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// What one party remembers about one instance — survives slot retirement,
/// so verdicts and per-instance accounting are available after GC.
struct InstanceRecord {
  bool admitted = false;
  bool decided = false;
  bool corrupt_slot = false;  ///< this PARTY runs adversary code here
  Time admitted_at = 0;
  Time decided_at = 0;
  std::uint32_t output_iteration = 0;
  bool has_output = false;
  geo::Vec output;
  /// Wire traffic this party emitted for this instance (self exempt, same
  /// convention as net::EgressPipeline).
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  /// Messages/timers that arrived after this party retired the instance.
  std::uint64_t late_dropped = 0;
};

/// Cross-party decision board: an instance's slot may only be retired once
/// every participating party decided it (otherwise a slow sibling would see
/// its peers go dark mid-protocol). Relaxed atomics — the thread and socket
/// backends mark from concurrent worker threads.
class InstanceDirectory {
 public:
  InstanceDirectory(std::uint32_t instances, std::uint32_t deciders)
      : decided_(instances), deciders_(deciders) {
    for (auto& d : decided_) d.store(0, std::memory_order_relaxed);
  }

  void mark_decided(std::uint32_t instance) noexcept {
    decided_[instance].fetch_add(1, std::memory_order_release);
  }

  [[nodiscard]] bool all_decided(std::uint32_t instance) const noexcept {
    return decided_[instance].load(std::memory_order_acquire) >= deciders_;
  }

 private:
  std::vector<std::atomic<std::uint32_t>> decided_;
  std::uint32_t deciders_;
};

class InstanceMux final : public sim::IParty {
 public:
  struct Config {
    std::uint32_t instances = 1;
    /// Open-loop admission: instance k starts at local time k * interarrival.
    Time interarrival = 0;
    /// Ticks between the LAST party's decision and slot retirement. Small
    /// values reclaim slots aggressively at the cost of dropping (and
    /// counting) protocol echo tails as late messages.
    Duration linger = 0;
    /// Re-check period while siblings are still deciding (typically Delta).
    Duration gc_retry = 1000;
    InstanceDirectory* directory = nullptr;  ///< required, borrowed
    /// Builds the inner party for one instance (protocol or adversary code).
    std::function<std::unique_ptr<sim::IParty>(std::uint32_t)> make_party;
    /// Local finishing predicate for one instance's inner party.
    std::function<bool(const sim::IParty&, std::uint32_t)> decided;
    /// Snapshot hook, called once when an instance decides locally — copy
    /// outputs out of the inner party BEFORE GC can destroy it. May be null.
    std::function<void(std::uint32_t, const sim::IParty&, InstanceRecord&)> snapshot;
    /// Per-instance observability context to install around dispatches into
    /// that instance (nullptr entries and a null function both mean "none").
    std::function<obs::Context*(std::uint32_t)> instance_context;
  };

  explicit InstanceMux(Config config);
  ~InstanceMux() override;

  void start(sim::Env& env) override;
  void on_message(sim::Env& env, PartyId from, const sim::Message& msg) override;
  void on_timer(sim::Env& env, std::uint64_t timer_id) override;

  /// True once every instance was admitted and decided locally. Drives the
  /// wall-clock backends' shutdown via the engine's FinishedFn.
  [[nodiscard]] bool all_done() const noexcept {
    return decided_count_ == config_.instances;
  }

  [[nodiscard]] std::uint32_t decided_count() const noexcept { return decided_count_; }
  [[nodiscard]] const InstanceRecord& record(std::uint32_t instance) const {
    return records_[instance];
  }

  /// Slab telemetry: slots ever allocated (< instances proves reuse) and the
  /// concurrent-liveness high-water mark.
  [[nodiscard]] std::size_t slots_allocated() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t live_peak() const noexcept { return live_peak_; }
  [[nodiscard]] std::uint64_t late_dropped() const noexcept { return late_dropped_; }
  [[nodiscard]] std::uint64_t unknown_dropped() const noexcept {
    return unknown_dropped_;
  }

 private:
  class InstanceEnv;

  enum class Status : std::uint8_t { kPending, kLive, kRetired };

  struct Slot {
    std::unique_ptr<sim::IParty> party;
    std::unique_ptr<InstanceEnv> env;
    std::uint32_t instance = 0;
    bool in_use = false;
  };

  // Timer-id layout (outer ids): bit 63 = admission, bit 62 = GC (low bits
  // carry the instance); otherwise (instance << 32) | inner_id. Instance ids
  // stay below kMaxInstances (2^24), so the reserved bits never collide.
  static constexpr std::uint64_t kAdmitBit = 1ull << 63;
  static constexpr std::uint64_t kGcBit = 1ull << 62;

  void admit(sim::Env& env, std::uint32_t instance);
  void gc(sim::Env& env, std::uint32_t instance);
  void retire(std::uint32_t instance);
  template <typename Fn>
  void dispatch(sim::Env& env, std::uint32_t slot_index, Fn&& fn);
  void after_dispatch(sim::Env& env, std::uint32_t slot_index);

  Config config_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::int32_t> slot_of_;  ///< instance -> slot index (-1 = none)
  std::vector<Status> status_;
  std::vector<InstanceRecord> records_;
  std::uint32_t decided_count_ = 0;
  std::size_t live_count_ = 0;
  std::size_t live_peak_ = 0;
  std::uint64_t late_dropped_ = 0;
  std::uint64_t unknown_dropped_ = 0;
};

}  // namespace hydra::serve
