#include "protocols/init.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/assert.hpp"
#include "domain/domain.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"
#include "protocols/aa_iteration.hpp"
#include "protocols/keys.hpp"

namespace hydra::protocols {
namespace {

void note_transition(const Env& env, const char* what) {
  if (!obs::enabled()) return;
  obs::registry().counter(std::string("init.") + what).inc();
  if (auto* tr = obs::trace()) {
    tr->state(env.now(), env.self(), "init", what, 0, 0);
  }
}

}  // namespace

std::uint64_t sufficient_iterations(double eps, double diam) {
  // The Euclidean closed form (kept as the free function for existing call
  // sites); domain-aware callers go through ValueDomain::sufficient_iterations.
  return domain::euclid().sufficient_iterations(eps, diam);
}

void InitInstance::start(Env& env, const geo::Vec& input) {
  HYDRA_ASSERT_MSG(!started_, "InitInstance started twice");
  HYDRA_ASSERT(input.dim() == params_.dim);
  started_ = true;
  tau_start_ = env.now();
  note_transition(env, "start");

  mux_->broadcast(env, InstanceKey{kRbcInitValue, env.self(), 0}, encode_value(input));

  env.set_timer(tau_start_ + Params::kCRbc * params_.delta, 0);
  env.set_timer(tau_start_ + 2 * Params::kCRbc * params_.delta, 0);
  env.set_timer(tau_start_ + Params::kCInit * params_.delta, 0);
  step(env);
}

void InitInstance::on_rbc_value(Env& env, PartyId sender, const Bytes& payload) {
  const auto value = decode_value(payload, params_.dim, params_.domain);
  if (!value) return;
  m_.emplace(sender, std::move(*value));
  step(env);
}

void InitInstance::on_rbc_report(Env& env, PartyId sender, const Bytes& payload) {
  if (w_.contains(sender) || pending_reports_.contains(sender)) return;
  auto report = decode_pairs(payload, params_.dim, params_.n, params_.domain);
  if (!report || report->size() < params_.quorum()) return;
  pending_reports_.emplace(sender, std::move(*report));
  step(env);
}

void InitInstance::on_witness_set(Env& env, PartyId from, const Bytes& payload) {
  HYDRA_PROF_SCOPE("init.witness_set");
  if (w2_.contains(from) || pending_witness_sets_.contains(from)) return;
  auto set = decode_party_set(payload, params_.n);
  if (!set || set->size() < params_.quorum()) return;
  pending_witness_sets_.emplace(from, std::move(*set));
  step(env);
}

void InitInstance::step(Env& env, bool at_timer) {
  // Witness rule (lines 6-11): a reliably-delivered report contained in our
  // M turns its sender into a witness and yields its estimation, computed
  // with the ΠAA-it rule on the report — deterministic, so every honest
  // party that marks P' derives the identical v_P' (the consistency Πinit
  // needs).
  for (auto it = pending_reports_.begin(); it != pending_reports_.end();) {
    const auto& [reporter, report] = *it;
    bool subset = true;
    for (const auto& [party, value] : report) {
      const auto found = m_.find(party);
      if (found == m_.end() || !(found->second == value)) {
        subset = false;
        break;
      }
    }
    if (subset) {
      geo::Vec estimate = compute_new_value(params_, report);
      ie_.emplace_back(reporter, std::move(estimate));
      w_.insert(reporter);
      it = pending_reports_.erase(it);
    } else {
      ++it;
    }
  }

  // Double-witness rule (lines 14-15): re-checked as W grows.
  for (auto it = pending_witness_sets_.begin(); it != pending_witness_sets_.end();) {
    const auto& [sender, set] = *it;
    const bool subset =
        std::includes(w_.begin(), w_.end(), set.begin(), set.end());
    if (subset) {
      w2_.insert(sender);
      it = pending_witness_sets_.erase(it);
    } else {
      ++it;
    }
  }

  if (!started_ || output_) return;
  const Time now = env.now();
  const auto reached = [&](Time threshold) {
    return at_timer ? now >= threshold : now > threshold;
  };

  // Lines 4-5: reliably broadcast the report.
  if (!sent_report_ && reached(tau_start_ + Params::kCRbc * params_.delta) &&
      m_.size() >= params_.quorum()) {
    sent_report_ = true;
    note_transition(env, "report");
    PairList snapshot;
    snapshot.reserve(m_.size());
    for (const auto& [party, value] : m_) snapshot.emplace_back(party, value);
    mux_->broadcast(env, InstanceKey{kRbcInitReport, env.self(), 0},
                    encode_pairs(snapshot));
  }

  // Lines 12-13: send the witness set.
  if (!sent_witness_set_ && reached(tau_start_ + 2 * Params::kCRbc * params_.delta) &&
      w_.size() >= params_.quorum()) {
    sent_witness_set_ = true;
    note_transition(env, "witness_set");
    env.broadcast(sim::Message{InstanceKey{kInitWitnessSet, 0, 0}, kDirect,
                               encode_party_set(w_)});
  }

  // Lines 16-22: output (T, v0).
  if (reached(tau_start_ + Params::kCInit * params_.delta) &&
      w2_.size() >= params_.quorum()) {
    PairList ie_sorted = ie_;
    std::sort(ie_sorted.begin(), ie_sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    Output out;
    out.v0 = compute_new_value(params_, ie_sorted);
    const auto& dom = domain::resolve(params_.domain);
    const auto estimates = values_of(ie_sorted);
    out.iterations =
        dom.sufficient_iterations(params_.eps, dom.diameter(estimates));
    output_ = std::move(out);
    note_transition(env, "output");
    if (obs::enabled()) {
      if (auto* tr = obs::trace()) {
        tr->scalar(env.now(), env.self(), "init.T",
                   static_cast<double>(output_->iterations));
      }
    }
    if (on_output) on_output(env, *output_);
  }
}

}  // namespace hydra::protocols
