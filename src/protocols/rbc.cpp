#include "protocols/rbc.hpp"

#include <utility>

#include "common/assert.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"

namespace hydra::protocols {
namespace {

/// Trace/metrics hook for RBC state transitions (send/echo/ready/deliver).
void note_transition(const Env& env, const InstanceKey& key, const char* what) {
  if (!obs::enabled()) return;
  obs::registry().counter(std::string("rbc.") + what).inc();
  if (auto* tr = obs::trace()) {
    tr->state(env.now(), env.self(), "rbc", what, key.a, key.b);
  }
}

}  // namespace

RbcInstance::RbcInstance(const Params& params, InstanceKey key)
    : key_(key),
      n_(static_cast<std::uint32_t>(params.n)),
      t_(static_cast<std::uint32_t>(params.ts)),
      voted_(params.n, 0) {}

void RbcInstance::broadcast(Env& env, Bytes payload) {
  HYDRA_ASSERT_MSG(key_.a == env.self(), "only the designated sender may broadcast");
  note_transition(env, key_, "send");
  env.broadcast(Message{key_, kRbcSend, std::move(payload)});
}

void RbcInstance::send_echo(Env& env, const sim::Payload& payload) {
  sent_echo_ = true;
  note_transition(env, key_, "echo");
  env.broadcast(Message{key_, kRbcEcho, payload});
}

void RbcInstance::send_ready(Env& env, const sim::Payload& payload) {
  sent_ready_ = true;
  note_transition(env, key_, "ready");
  env.broadcast(Message{key_, kRbcReady, payload});
}

RbcInstance::Tally& RbcInstance::tally_of(const sim::Payload& payload) {
  for (Tally& tally : tallies_) {
    if (tally.payload == payload) return tally;
  }
  return tallies_.emplace_back(Tally{payload});
}

bool RbcInstance::on_message(Env& env, PartyId from, const Message& msg) {
  if (from >= n_) return false;
  switch (msg.kind) {
    case kRbcSend: {
      // Only the designated sender's initial send counts; an authenticated
      // channel means `from` cannot be forged.
      if (from != key_.a) return false;
      if (!sent_echo_) send_echo(env, msg.payload);
      return false;
    }
    case kRbcEcho: {
      // First echo per voter is binding; equivocating echoes are dropped.
      if ((voted_[from] & kEchoed) != 0) return false;
      voted_[from] |= kEchoed;
      Tally& tally = tally_of(msg.payload);
      tally.echoes += 1;
      if (tally.echoes >= n_ - t_ && !sent_ready_) send_ready(env, tally.payload);
      return false;
    }
    case kRbcReady: {
      if ((voted_[from] & kReadied) != 0) return false;
      voted_[from] |= kReadied;
      Tally& tally = tally_of(msg.payload);
      tally.readies += 1;
      if (tally.readies >= t_ + 1 && !sent_ready_) send_ready(env, tally.payload);
      if (tally.readies >= n_ - t_ && !delivered_) {
        delivered_ = true;
        output_ = tally.payload;
        note_transition(env, key_, "deliver");
        if (obs::enabled()) {
          if (auto* mon = obs::monitors()) {
            mon->on_rbc_deliver(env.now(), env.self(), key_.tag, key_.a, key_.b,
                                output_);
          }
        }
        return true;
      }
      return false;
    }
    default:
      return false;
  }
}

void RbcMux::broadcast(Env& env, InstanceKey key, Bytes payload) {
  instance(key).broadcast(env, std::move(payload));
}

bool RbcMux::handle(Env& env, PartyId from, const Message& msg) {
  if (msg.kind > kRbcReady) return false;
  HYDRA_PROF_SCOPE("rbc.handle");
  auto& inst = instance(msg.key);
  if (inst.on_message(env, from, msg)) {
    on_deliver_(env, inst.key(), inst.output());
  }
  return true;
}

const RbcInstance* RbcMux::find(const InstanceKey& key) const {
  const auto it = instances_.find(key);
  return it == instances_.end() ? nullptr : &it->second;
}

RbcInstance& RbcMux::instance(const InstanceKey& key) {
  auto it = instances_.find(key);
  if (it == instances_.end()) {
    it = instances_.emplace(key, RbcInstance(params_, key)).first;
  }
  return it->second;
}

}  // namespace hydra::protocols
