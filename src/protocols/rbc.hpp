// Bracha's Reliable Broadcast (ΠrBC, Theorem 4.2 / Appendix 6.1).
//
// Guarantees with n > 3t:
//   t-Validity      honest output equals an honest sender's input;
//   t-Consistency   no two honest parties output different values;
//   Honest Liveness sender honest => everyone outputs within c_rBC = 3 rounds
//                   under synchrony;
//   Conditional Liveness  one honest output => all honest outputs within
//                   c'_rBC = 2 further rounds under synchrony.
//
// The payload is an opaque byte vector; upper layers serialize their own
// content. One RbcInstance is the per-party state machine of a single
// broadcast (identified by an InstanceKey whose `a` coordinate names the
// designated sender); RbcMux owns all instances of a party and routes wire
// messages to them, creating instances on demand so parties implicitly join
// broadcasts they first hear about from others.
//
// Vote state is flat and bounded by n: one flag byte per party and one
// tally per distinct payload voted for. Echoes and readies forward the
// payload buffer they received (sim::Payload), so an honest broadcast's
// bytes exist once however many parties relay them.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "common/serialize.hpp"
#include "common/types.hpp"
#include "protocols/keys.hpp"
#include "protocols/params.hpp"
#include "sim/env.hpp"

namespace hydra::protocols {

// Protocol code uses the sim abstractions directly; these aliases keep
// signatures short and make the dependency explicit.
using sim::Env;
using sim::Message;

class RbcInstance {
 public:
  RbcInstance(const Params& params, InstanceKey key);

  /// Sender-side entry point: disseminates `payload` (Bracha's initial send).
  void broadcast(Env& env, Bytes payload);

  /// Feeds a wire message (kinds kRbcSend/kRbcEcho/kRbcReady) belonging to
  /// this instance. Returns true if this event made the instance deliver.
  /// A `from` outside [0, n) is ignored.
  bool on_message(Env& env, PartyId from, const Message& msg);

  [[nodiscard]] bool delivered() const noexcept { return delivered_; }
  [[nodiscard]] const Bytes& output() const noexcept { return output_.bytes(); }
  [[nodiscard]] const InstanceKey& key() const noexcept { return key_; }

 private:
  /// Votes counted for one distinct payload.
  struct Tally {
    sim::Payload payload;
    std::uint32_t echoes = 0;
    std::uint32_t readies = 0;
  };

  /// Flag bits of voted_.
  static constexpr std::uint8_t kEchoed = 1;
  static constexpr std::uint8_t kReadied = 2;

  /// The tally of `payload`, added on its first vote.
  Tally& tally_of(const sim::Payload& payload);
  void send_echo(Env& env, const sim::Payload& payload);
  void send_ready(Env& env, const sim::Payload& payload);

  InstanceKey key_;
  std::uint32_t n_;
  std::uint32_t t_;

  bool sent_echo_ = false;
  bool sent_ready_ = false;
  bool delivered_ = false;
  sim::Payload output_;

  // One vote per sender: the first echo/ready a party sends is the one that
  // counts; later equivocations are ignored. So counts suffice, and the
  // tallies hold at most 2n entries (each voter adds at most one payload per
  // kind).
  std::vector<std::uint8_t> voted_;  ///< per party: kEchoed | kReadied
  std::vector<Tally> tallies_;
};

/// Routes every RBC wire message of one party to the right instance.
class RbcMux {
 public:
  using DeliverFn = std::function<void(sim::Env&, const InstanceKey&, const Bytes&)>;

  RbcMux(const Params& params, DeliverFn on_deliver)
      : params_(params), on_deliver_(std::move(on_deliver)) {}

  /// Starts a broadcast with this party as designated sender; asserts that
  /// key.a names this party.
  void broadcast(sim::Env& env, InstanceKey key, Bytes payload);

  /// Consumes a message if it belongs to the RBC layer (kind <= kRbcReady).
  /// Returns true when consumed.
  bool handle(sim::Env& env, PartyId from, const sim::Message& msg);

  /// Instance lookup for tests; nullptr when the instance does not exist.
  [[nodiscard]] const RbcInstance* find(const InstanceKey& key) const;

 private:
  RbcInstance& instance(const InstanceKey& key);

  Params params_;
  DeliverFn on_deliver_;
  std::unordered_map<InstanceKey, RbcInstance, InstanceKeyHash> instances_;
};

}  // namespace hydra::protocols
