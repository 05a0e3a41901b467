#include "obs/monitor.hpp"

#include <cstdarg>
#include <cstdio>

#include "domain/domain.hpp"
#include "geometry/convex.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hydra::obs {
namespace {

/// Stored-violation cap: totals keep counting past it, so a pathological run
/// cannot grow memory without bound while still reporting how bad it was.
constexpr std::size_t kMaxStoredViolations = 256;

std::uint64_t fnv1a(const Bytes& data) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto byte : data) {
    h ^= byte;
    h *= 1099511628211ull;
  }
  return h;
}

std::string format(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

}  // namespace

std::string to_string(MonitorMode mode) {
  switch (mode) {
    case MonitorMode::kOff: return "off";
    case MonitorMode::kRecord: return "record";
    case MonitorMode::kStrict: return "strict";
  }
  return "?";
}

std::optional<MonitorMode> parse_monitor_mode(std::string_view name) {
  for (const auto mode :
       {MonitorMode::kOff, MonitorMode::kRecord, MonitorMode::kStrict}) {
    if (to_string(mode) == name) return mode;
  }
  return std::nullopt;
}

// Derivation of the hybrid per-party bound, counting broadcasts. Both
// transports exclude self-delivery from message accounting (it is local
// computation, not wire traffic), so one broadcast costs n - 1 counted
// messages. A party participating in Bracha ΠrBC sends at most one echo and
// one ready broadcast per instance, plus one send broadcast per instance it
// initiates:
//   Πinit values:   own send + echo/ready over <= n instances      2n + 1
//   Πinit reports:  same shape                                     2n + 1
//   witness set:    one direct broadcast                           1
//   per iteration:  ΠoBC value RBC (2n + 1) + own report (1)       2n + 2
//   halt:           one RBC instance                               2n + 1
// A party can be at most one iteration ahead of the highest *adopted*
// iteration K, so with the (K + 2) slack from ComplexityBudget the total is
//   (n - 1) * [(6n + 4) + (2n + 2)(K + 2)]  messages on the wire.
// Payloads are at most a report: n pairs of (id, D doubles) plus small
// headers; 49 + n (16 + 8 D) per message over-approximates the wire size.
//
// The lock-step baseline broadcasts one value per round: n - 1 wire messages
// per round (self-delivery excluded), each carrying one D-dimensional value.
ComplexityBudget complexity_budget(std::string_view protocol, std::size_t n,
                                   std::size_t dim) {
  const auto nn = static_cast<std::uint64_t>(n);
  const auto dd = static_cast<std::uint64_t>(dim);
  const std::uint64_t fanout = nn > 0 ? nn - 1 : 0;
  ComplexityBudget b;
  std::uint64_t max_wire = 0;
  if (protocol == "sync-lockstep") {
    b.msgs_fixed = 2 * fanout;
    b.msgs_per_iteration = fanout;
    max_wire = 49 + 8 * dd;
  } else {
    b.msgs_fixed = fanout * (6 * nn + 4);
    b.msgs_per_iteration = fanout * (2 * nn + 2);
    max_wire = 49 + nn * (16 + 8 * dd);
  }
  b.bytes_fixed = b.msgs_fixed * max_wire;
  b.bytes_per_iteration = b.msgs_per_iteration * max_wire;
  return b;
}

MonitorHost::MonitorHost(Config config) : config_(std::move(config)) {
  for (const bool h : config_.honest) honest_count_ += h ? 1 : 0;
  sent_msgs_.assign(config_.n, 0);
  sent_bytes_.assign(config_.n, 0);
  msgs_flagged_.assign(config_.n, false);
  bytes_flagged_.assign(config_.n, false);
}

void MonitorHost::report(Violation v) {
  total_ += 1;
  by_monitor_[v.monitor] += 1;
  if (obs::enabled()) {
    auto& registry = obs::registry();
    registry.counter("monitor.violations").inc();
    registry.counter("monitor." + v.monitor).inc();
  }
  if (auto* tr = obs::trace()) {
    tr->violation(v.at, v.party, v.monitor, v.iteration, v.cause, v.detail);
  }
  if (config_.mode == MonitorMode::kStrict) {
    abort_.store(true, std::memory_order_relaxed);
  }
  if (violations_.size() < kMaxStoredViolations) violations_.push_back(std::move(v));
}

void MonitorHost::on_send(Time t, PartyId from, std::size_t bytes) {
  if (!is_honest(from)) return;
  if (config_.budget.msgs_per_iteration == 0 && config_.budget.msgs_fixed == 0) {
    return;
  }
  const std::lock_guard lock(mutex_);
  sent_msgs_[from] += 1;
  sent_bytes_[from] += bytes;
  const std::uint64_t k = max_iteration_;
  const auto [msg_bound, byte_bound] = config_.budget.bound(k);
  if (!msgs_flagged_[from] && sent_msgs_[from] > msg_bound) {
    msgs_flagged_[from] = true;
    report(Violation{"complexity", from, static_cast<std::uint32_t>(k), t,
                     current_cause_,
                     format("party %u sent %llu messages, bound %llu at K=%llu",
                            from, static_cast<unsigned long long>(sent_msgs_[from]),
                            static_cast<unsigned long long>(msg_bound),
                            static_cast<unsigned long long>(k))});
  }
  if (!bytes_flagged_[from] && sent_bytes_[from] > byte_bound) {
    bytes_flagged_[from] = true;
    report(Violation{"complexity", from, static_cast<std::uint32_t>(k), t,
                     current_cause_,
                     format("party %u sent %llu bytes, bound %llu at K=%llu", from,
                            static_cast<unsigned long long>(sent_bytes_[from]),
                            static_cast<unsigned long long>(byte_bound),
                            static_cast<unsigned long long>(k))});
  }
}

void MonitorHost::on_value(Time t, PartyId party, std::uint32_t iteration,
                           const geo::Vec& value) {
  if (!is_honest(party)) return;
  const std::lock_guard lock(mutex_);

  std::uint64_t cause = current_cause_;
  if (cause == 0) {
    // Adoption at a timer: fall back to the message that completed the
    // iteration's ΠoBC output, recorded by on_obc_output.
    const auto it = obc_cause_.find({party, iteration});
    if (it != obc_cause_.end()) cause = it->second;
  }

  // Trace the adopted value with exact coordinates: the merged-trace
  // re-evaluation (obs/merge.hpp) replays these through this same hook to
  // re-check validity/contraction over ALL processes' honest values.
  if (auto* tr = obs::trace()) {
    tr->value(t, party, iteration, value.coords(), cause);
  }

  // Validity: v_k must lie in the hull of the honest iteration-(k-1) values
  // seen so far (see the header for why "seen so far" is sound); v_0 against
  // the honest inputs.
  const std::vector<geo::Vec>* hull = nullptr;
  if (iteration == 0) {
    hull = &config_.honest_inputs;
  } else if (const auto prev = layers_.find(iteration - 1); prev != layers_.end()) {
    hull = &prev->second;
  }
  // A value within hull_tol of a hull vertex is inside by definition of the
  // tolerant test; short-circuiting it keeps the LP away from near-degenerate
  // layers (post-convergence diameters ~1e-16 make the normalized tolerance
  // blow up) and skips the solve entirely in the common converged case.
  // (Sound for every domain: in_validity_set accepts members of the basis,
  // and hull_tol is far below any discrete domain's vertex spacing.)
  const auto& dom = hydra::domain::resolve(config_.domain);
  const auto near_vertex = [&](const std::vector<geo::Vec>& pts) {
    for (const auto& p : pts) {
      if (dom.distance(p, value) <= config_.hull_tol) return true;
    }
    return false;
  };
  if (hull != nullptr && !hull->empty() && !near_vertex(*hull) &&
      !dom.in_validity_set(*hull, value, config_.hull_tol)) {
    report(Violation{
        "validity", party, iteration, t, cause,
        format("party %u iteration-%u value escapes the hull of %zu honest "
               "iteration-%u values",
               party, iteration, hull->size(),
               iteration == 0 ? 0u : iteration - 1)});
  }

  auto& layer = layers_[iteration];
  layer.push_back(value);
  if (iteration > max_iteration_) max_iteration_ = iteration;

  // Contraction: once every honest party adopted iteration k, compare the
  // honest diameter against factor * diameter(k - 1) (Lemma 5.10's sqrt(7/8)
  // for the midpoint rule).
  if (layer.size() == honest_count_ && honest_count_ > 0) {
    const double diam = dom.diameter(layer);
    layer_diameters_[iteration] = diam;
    if (config_.contraction_factor > 0.0 && iteration > 0) {
      const auto prev = layer_diameters_.find(iteration - 1);
      if (prev != layer_diameters_.end()) {
        const double bound =
            dom.contraction_bound(config_.contraction_factor, prev->second);
        if (diam > bound) {
          report(Violation{
              "contraction", party, iteration, t, cause,
              format("honest diameter %.6g after iteration %u exceeds %.6g "
                     "(factor %.6g of %.6g)",
                     diam, iteration, bound, config_.contraction_factor,
                     prev->second)});
        }
      }
    }
  }
}

void MonitorHost::on_rbc_deliver(Time t, PartyId party, std::uint32_t tag,
                                 std::uint32_t a, std::uint32_t b,
                                 const Bytes& payload) {
  on_rbc_digest(t, party, tag, a, b, fnv1a(payload));
}

void MonitorHost::on_rbc_digest(Time t, PartyId party, std::uint32_t tag,
                                std::uint32_t a, std::uint32_t b,
                                std::uint64_t payload_hash) {
  if (!is_honest(party)) return;
  const std::lock_guard lock(mutex_);
  if (auto* tr = obs::trace()) {
    tr->rbc(t, party, tag, a, b, payload_hash, current_cause_);
  }
  auto& rec = rbc_[{tag, a, b}];
  if (rec.delivered.empty()) {
    rec.payload_hash = payload_hash;
  } else if (rec.payload_hash != payload_hash) {
    report(Violation{"rbc-consistency", party, b, t, current_cause_,
                     format("party %u delivered a different payload for rbc "
                            "instance (tag=%u, a=%u, b=%u)",
                            party, tag, a, b)});
  }
  rec.delivered.insert(party);
}

void MonitorHost::on_obc_output(
    Time t, PartyId party, std::uint32_t iteration,
    const std::vector<std::pair<PartyId, geo::Vec>>& pairs) {
  if (!is_honest(party)) return;
  const std::lock_guard lock(mutex_);
  obc_cause_[{party, iteration}] = current_cause_;

  if (auto* tr = obs::trace()) {
    std::vector<std::pair<std::uint64_t, std::vector<double>>> flat;
    flat.reserve(pairs.size());
    for (const auto& [q, v] : pairs) {
      flat.emplace_back(q, std::vector<double>(v.coords().begin(),
                                               v.coords().end()));
    }
    tr->obc(t, party, iteration, flat, current_cause_);
  }

  auto& iter = obc_[iteration];
  // Consistency: values in honest outputs agree per attributed party (they
  // travel through ΠrBC, so they must be bitwise identical).
  for (const auto& [q, v] : pairs) {
    const auto [slot, inserted] = iter.agreed.emplace(q, v);
    if (!inserted && !(slot->second == v)) {
      report(Violation{"obc-consistency", party, iteration, t, current_cause_,
                       format("party %u obc output attributes a conflicting "
                              "value to party %u in iteration %u",
                              party, q, iteration)});
    }
  }
  // Overlap: |M_P intersect M_P'| >= n - ts for honest P, P' (Theorem 4.4).
  std::set<PartyId> ids;
  for (const auto& [q, v] : pairs) ids.insert(q);
  for (const auto& [other, other_ids] : iter.outputs) {
    std::size_t common = 0;
    for (const auto id : ids) common += other_ids.contains(id) ? 1 : 0;
    if (common + config_.ts < config_.n) {
      report(Violation{"obc-overlap", party, iteration, t, current_cause_,
                       format("obc outputs of parties %u and %u share only %zu "
                              "pairs in iteration %u (need %zu)",
                              party, other, common, iteration,
                              config_.n - config_.ts)});
    }
  }
  iter.outputs.emplace_back(party, std::move(ids));
}

void MonitorHost::finalize(Time t, bool complete) {
  if (!complete) return;  // a truncated run legitimately leaves stragglers
  const std::lock_guard lock(mutex_);
  for (const auto& [key, rec] : rbc_) {
    if (!rec.delivered.empty() && rec.delivered.size() < honest_count_) {
      report(Violation{"rbc-totality", *rec.delivered.begin(),
                       std::get<2>(key), t, 0,
                       format("rbc instance (tag=%u, a=%u, b=%u) delivered by "
                              "%zu of %zu honest parties",
                              std::get<0>(key), std::get<1>(key),
                              std::get<2>(key), rec.delivered.size(),
                              honest_count_)});
    }
  }
}

std::uint64_t MonitorHost::total_violations() const {
  const std::lock_guard lock(mutex_);
  return total_;
}

std::vector<Violation> MonitorHost::violations() const {
  const std::lock_guard lock(mutex_);
  return violations_;
}

std::uint64_t MonitorHost::count(std::string_view monitor) const {
  const std::lock_guard lock(mutex_);
  const auto it = by_monitor_.find(monitor);
  return it == by_monitor_.end() ? 0 : it->second;
}

std::vector<std::uint64_t> MonitorHost::sent_msgs_per_party() const {
  const std::lock_guard lock(mutex_);
  return sent_msgs_;
}

std::vector<std::uint64_t> MonitorHost::sent_bytes_per_party() const {
  const std::lock_guard lock(mutex_);
  return sent_bytes_;
}

}  // namespace hydra::obs
