#include "protocols/aa.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"
#include "protocols/aa_iteration.hpp"
#include "protocols/keys.hpp"

namespace hydra::protocols {

AaParty::AaParty(Params params, geo::Vec input)
    : params_(params),
      input_(std::move(input)),
      mux_(params_,
           [this](Env& env, const InstanceKey& key, const Bytes& payload) {
             on_rbc_deliver(env, key, payload);
           }),
      init_(params_, &mux_) {
  HYDRA_ASSERT_MSG(params_.feasible(),
                   "Params violate (D+1) ts + ta < n (or n <= 3 ts)");
  HYDRA_ASSERT(input_.dim() == params_.dim);
  init_.on_output = [this](Env& env, const InitInstance::Output& out) {
    on_init_output(env, out);
  };
}

void AaParty::start(Env& env) {
  if (params_.fixed_iterations > 0) {
    // Known-bounds mode: the caller supplied a sufficient iteration count,
    // so Πinit is skipped and v0 is the raw input.
    on_init_output(env, InitInstance::Output{params_.fixed_iterations, input_});
    return;
  }
  init_.start(env, input_);
}

ObcInstance& AaParty::obc(std::uint32_t iteration) {
  auto it = obcs_.find(iteration);
  if (it == obcs_.end()) {
    it = obcs_.emplace(iteration, ObcInstance(params_, iteration, &mux_)).first;
    it->second.on_output = [this, iteration](Env& env, const PairList& m) {
      on_obc_output(env, iteration, m);
    };
  }
  return it->second;
}

void AaParty::on_message(Env& env, PartyId from, const Message& msg) {
  // Validate key coordinates before any instance is created: a Byzantine
  // flood of exotic keys must not allocate unbounded state.
  const auto& key = msg.key;
  switch (key.tag) {
    case kRbcInitValue:
    case kRbcInitReport:
      if (key.a >= params_.n || key.b != 0) return;
      break;
    case kRbcObcValue:
    case kRbcHalt:
      if (key.a >= params_.n || key.b == 0 || key.b > kMaxIteration) return;
      break;
    case kObcReport:
      if (key.b == 0 || key.b > kMaxIteration) return;
      break;
    case kInitWitnessSet:
      if (key.a != 0 || key.b != 0) return;
      break;
    default:
      return;
  }

  if (msg.kind <= kRbcReady) {
    mux_.handle(env, from, msg);
    return;
  }
  if (msg.kind != kDirect) return;

  switch (key.tag) {
    case kObcReport:
      obc(key.b).on_report(env, from, msg.payload);
      break;
    case kInitWitnessSet:
      init_.on_witness_set(env, from, msg.payload);
      break;
    default:
      break;
  }
  advance(env);
}

void AaParty::on_rbc_deliver(Env& env, const InstanceKey& key, const Bytes& payload) {
  HYDRA_PROF_SCOPE("aa.rbc");
  switch (key.tag) {
    case kRbcInitValue:
      init_.on_rbc_value(env, key.a, payload);
      break;
    case kRbcInitReport:
      init_.on_rbc_report(env, key.a, payload);
      break;
    case kRbcObcValue:
      obc(key.b).on_rbc_value(env, key.a, payload);
      break;
    case kRbcHalt: {
      // Smallest halt iteration per sender is binding; a Byzantine party
      // reliably broadcasting several halts only makes its single vote more
      // conservative.
      auto [it, inserted] = halts_.emplace(key.a, key.b);
      if (!inserted) it->second = std::min(it->second, key.b);
      break;
    }
    default:
      break;
  }
  advance(env);
}

void AaParty::on_timer(Env& env, std::uint64_t /*timer_id*/) {
  HYDRA_PROF_SCOPE("aa.timer");
  // Timers exist only to re-evaluate time guards at their thresholds; the
  // timer phase makes boundary guards inclusive (see ObcInstance::step).
  init_.step(env, /*at_timer=*/true);
  // Only the live iteration's ΠoBC has a pending time guard: earlier
  // instances already output (advancing past an iteration needs its
  // output), later ones have not started, and the message handlers keep
  // every instance's witness set current.
  if (it_ >= 1) obc(it_).step(env, /*at_timer=*/true);
  advance(env);
}

void AaParty::on_init_output(Env& env, const InitInstance::Output& out) {
  HYDRA_PROF_SCOPE("aa.init");
  HYDRA_ASSERT(it_ == 0);
  big_t_ = out.iterations;
  values_.push_back(out.v0);
  value_times_.push_back(env.now());
  it_ = 1;
  iter_start_ = env.now();
  if (obs::enabled()) {
    obs::registry().counter("aa.round_start").inc();
    if (auto* tr = obs::trace()) tr->round_start(env.now(), env.self(), 1);
    if (auto* mon = obs::monitors()) {
      mon->on_value(env.now(), env.self(), 0, out.v0);
    }
  }
  obc(1).start(env, out.v0);
  env.set_timer(iter_start_ + Params::kCAaIt * params_.delta, 0);
}

void AaParty::on_obc_output(Env& env, std::uint32_t iteration, const PairList& m) {
  HYDRA_PROF_SCOPE("aa.obc");
  geo::Vec v = compute_new_value(params_, m);
  if (params_.test_faulty_escape != 0.0) {
    // Party-dependent shift so the faulty values both escape the honest hull
    // (validity) and spread apart (contraction) — see Params.
    v[0] += params_.test_faulty_escape * (1.0 + static_cast<double>(env.self()));
  }
  iter_results_.emplace(iteration, std::move(v));
  advance(env);
}

void AaParty::advance(Env& env) {
  HYDRA_PROF_SCOPE("aa.aggregate");
  // ΠAA lines 5-11. Loop because completing iteration `it` can immediately
  // enable iteration it+1 whose OBC result is already buffered (asynchrony).
  //
  // The halt check (lines 8-10) is evaluated continuously rather than only
  // upon obtaining the current iteration's ΠAA-it output: Lemma 5.21 states
  // that a party must be able to output in iteration it+1 even when that
  // iteration's ΠAA-it never completes (parties that already output stop
  // joining, which can push ΠoBC below its quorum). Gating the check on the
  // iteration output would deadlock exactly that scenario. The output value
  // v_{it_h} always comes from an iteration this party completed (it_h < it),
  // so the produced values are identical to the paper's.
  while (!output_ && it_ >= 1) {
    // Lines 8-10: output the (ts+1)-th smallest halt iteration's value.
    // Only halts for strictly earlier iterations count; the (ts+1)-th
    // smallest of those equals the (ts+1)-th smallest received overall.
    std::vector<std::uint32_t> halt_iters;
    halt_iters.reserve(halts_.size());
    for (const auto& [sender, halt_it] : halts_) {
      if (halt_it < it_) halt_iters.push_back(halt_it);
    }
    if (halt_iters.size() >= params_.ts + 1) {
      std::sort(halt_iters.begin(), halt_iters.end());
      const std::uint32_t it_h = halt_iters[params_.ts];
      HYDRA_ASSERT(it_h < it_);
      output_ = values_[it_h];  // values_[i] == v_i; v_0 .. v_{it-1} are known
      output_iter_ = it_h;
      output_time_ = env.now();
      if (obs::enabled()) {
        obs::registry().counter("aa.output").inc();
        if (auto* tr = obs::trace()) {
          tr->state(env.now(), env.self(), "aa", "output", 0, it_h);
        }
      }
      return;
    }

    // Line 5: at least c_AA-it * Delta within the iteration.
    if (env.now() < iter_start_ + Params::kCAaIt * params_.delta) return;
    // Line 6: the iteration's ΠAA-it output.
    const auto result = iter_results_.find(it_);
    if (result == iter_results_.end()) return;

    const geo::Vec v_it = result->second;
    values_.push_back(v_it);
    value_times_.push_back(env.now());
    if (obs::enabled()) {
      obs::registry().counter("aa.round_end").inc();
      if (auto* tr = obs::trace()) tr->round_end(env.now(), env.self(), it_);
      if (auto* mon = obs::monitors()) {
        mon->on_value(env.now(), env.self(), it_, v_it);
      }
    }

    // Line 7: announce our own halt point.
    if (!sent_halt_ && it_ == big_t_) {
      sent_halt_ = true;
      if (obs::enabled()) {
        obs::registry().counter("aa.halt_sent").inc();
        if (auto* tr = obs::trace()) {
          tr->state(env.now(), env.self(), "aa", "halt", 0, it_);
        }
      }
      mux_.broadcast(env, InstanceKey{kRbcHalt, env.self(), it_}, Bytes{});
    }

    // Line 11: next iteration.
    it_ += 1;
    iter_start_ = env.now();
    if (obs::enabled()) {
      obs::registry().counter("aa.round_start").inc();
      if (auto* tr = obs::trace()) tr->round_start(env.now(), env.self(), it_);
    }
    obc(it_).start(env, v_it);
    env.set_timer(iter_start_ + Params::kCAaIt * params_.delta, 0);
  }
}

}  // namespace hydra::protocols
