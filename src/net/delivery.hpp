// Receive-side counterpart of net::EgressPipeline.
//
// DeliveryGate owns what happens when a queued message reaches its party:
// the `deliver` trace event (carrying the originating send id as its causal
// `cause`) and the monitor dispatch bracket, so invariant violations raised
// inside the handler are attributed to the message that triggered them.
// Both backends dispatch through here — the simulator from its traced
// delivery events, the thread transport from each party's worker loop
// (MonitorHost keeps the in-dispatch cause per-thread, so concurrent workers
// attribute independently).
#pragma once

#include <cstdint>
#include <utility>

#include "common/types.hpp"
#include "obs/monitor.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"
#include "sim/message.hpp"

namespace hydra::net {

struct DeliveryGate {
  /// Emits the deliver trace event, then runs `handler` inside a
  /// begin_dispatch/end_dispatch bracket when monitors are active. Callers
  /// on the hot path should guard the call with obs::enabled() themselves
  /// when they have cheaper disabled-path dispatch available.
  template <typename Handler>
  static void dispatch(Time now, PartyId from, PartyId to,
                       const sim::Message& msg, std::uint64_t cause,
                       Handler&& handler) {
    // Callers reach dispatch only on enabled paths, so the scope never
    // burdens the lean branches the overhead bench gates. Handler phases
    // (aa.*) nest under it.
    HYDRA_PROF_SCOPE("net.deliver");
    if (auto* tr = obs::trace()) {
      tr->message_deliver(now, from, to, msg.key.tag, msg.key.a, msg.key.b,
                          msg.kind, msg.wire_size(), cause);
    }
    if (auto* mon = obs::monitors()) {
      // Bracket the handler so monitor checks fired inside it can name this
      // message as their cause.
      mon->begin_dispatch(cause);
      std::forward<Handler>(handler)();
      mon->end_dispatch();
      return;
    }
    std::forward<Handler>(handler)();
  }
};

}  // namespace hydra::net
