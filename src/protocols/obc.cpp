#include "protocols/obc.hpp"

#include <utility>

#include "common/assert.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"
#include "protocols/keys.hpp"

namespace hydra::protocols {
namespace {

void note_transition(const Env& env, std::uint32_t iteration, const char* what) {
  if (!obs::enabled()) return;
  obs::registry().counter(std::string("obc.") + what).inc();
  if (auto* tr = obs::trace()) {
    tr->state(env.now(), env.self(), "obc", what, 0, iteration);
  }
}

}  // namespace

void ObcInstance::start(Env& env, const geo::Vec& input) {
  HYDRA_ASSERT_MSG(!started_, "ObcInstance started twice");
  HYDRA_ASSERT(input.dim() == params_.dim);
  started_ = true;
  tau_start_ = env.now();
  note_transition(env, iteration_, "start");

  mux_->broadcast(env, InstanceKey{kRbcObcValue, env.self(), iteration_},
                  encode_value(input));

  // Wake-ups at the two "When tau_now >= ..." thresholds; guards are
  // re-evaluated then (and on every message event).
  env.set_timer(tau_start_ + Params::kCRbc * params_.delta, 0);
  env.set_timer(tau_start_ + Params::kCObc * params_.delta, 0);
  step(env);
}

void ObcInstance::on_rbc_value(Env& env, PartyId sender, const Bytes& payload) {
  const auto value = decode_value(payload, params_.dim, params_.domain);
  if (!value) return;  // malformed Byzantine value == never sent
  m_.emplace(sender, std::move(*value));
  step(env);
}

void ObcInstance::on_report(Env& env, PartyId from, const Bytes& payload) {
  HYDRA_PROF_SCOPE("obc.report");
  if (witnesses_.contains(from) || pending_reports_.contains(from)) return;
  auto report = decode_pairs(payload, params_.dim, params_.n, params_.domain);
  if (!report) return;
  // "such that |M_P'| >= n - ts": undersized reports never qualify.
  if (report->size() < params_.quorum()) return;
  pending_reports_.emplace(from, std::move(*report));
  step(env);
}

PairList ObcInstance::snapshot() const {
  PairList list;
  list.reserve(m_.size());
  for (const auto& [party, value] : m_) list.emplace_back(party, value);
  return list;
}

void ObcInstance::step(Env& env, bool at_timer) {
  // Witness rule: P' becomes a witness once every pair it reported has also
  // been delivered to us (M_P' subset of M). M only grows, so pending
  // reports are re-checked on every step.
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
      witnesses_.insert(reporter);
      it = pending_reports_.erase(it);
    } else {
      ++it;
    }
  }

  if (!started_) return;
  const Time now = env.now();
  const auto reached = [&](Time threshold) {
    return at_timer ? now >= threshold : now > threshold;
  };

  // Line 5-6: report own collected set.
  if (!sent_report_ && reached(tau_start_ + Params::kCRbc * params_.delta) &&
      m_.size() >= params_.quorum()) {
    sent_report_ = true;
    note_transition(env, iteration_, "report");
    env.broadcast(sim::Message{InstanceKey{kObcReport, 0, iteration_}, kDirect,
                               encode_pairs(snapshot())});
  }

  // Line 9-10: output once enough witnesses accumulated.
  if (!output_ && reached(tau_start_ + Params::kCObc * params_.delta) &&
      witnesses_.size() >= params_.quorum()) {
    output_ = snapshot();
    note_transition(env, iteration_, "output");
    if (obs::enabled()) {
      if (auto* mon = obs::monitors()) {
        mon->on_obc_output(env.now(), env.self(), iteration_, *output_);
      }
    }
    if (on_output) on_output(env, *output_);
  }
}

}  // namespace hydra::protocols
