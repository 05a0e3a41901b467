// Socket transport: wire-codec hardening (malformed and adversarial-length
// frames must fail cleanly, never crash — run under ASan in CI), the
// per-connection authenticated-sender contract end-to-end against a live
// SocketNetwork, and tcp/uds backend parity with sim/threads — the same
// verdicts, identical deterministic wire totals, and the same
// timeout/crash-excusal reporting.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "harness/runner.hpp"
#include "sim/delay.hpp"
#include "sim/env.hpp"
#include "transport/socket_net.hpp"
#include "transport/socket_wire.hpp"

namespace hydra {
namespace {

using transport::SocketNetwork;
namespace wire = transport::wire;

// ------------------------------------------------------------- wire codec

TEST(SocketWire, HelloRoundTrip) {
  const wire::Hello h{.run_id = 0xDEADBEEFCAFEull, .from = 3, .n = 7};
  const auto frame = wire::decode_frame(wire::encode_hello(h));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, wire::FrameType::kHello);
  EXPECT_EQ(frame->hello.run_id, h.run_id);
  EXPECT_EQ(frame->hello.from, h.from);
  EXPECT_EQ(frame->hello.n, h.n);
}

TEST(SocketWire, MsgRoundTrip) {
  sim::Message m;
  m.key = InstanceKey{.tag = 5, .a = 2, .b = 9};
  m.kind = 42;
  m.payload = Bytes{1, 2, 3, 250, 251};
  const auto frame = wire::decode_frame(wire::encode_msg(1, 4, 77, m));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, wire::FrameType::kMsg);
  EXPECT_EQ(frame->msg.key, m.key);
  EXPECT_EQ(frame->msg.from, 1u);
  EXPECT_EQ(frame->msg.to, 4u);
  EXPECT_EQ(frame->msg.seq, 77u);
  EXPECT_EQ(frame->msg.kind, 42u);
  EXPECT_EQ(frame->msg.payload, m.payload);
}

TEST(SocketWire, FinRoundTrip) {
  const auto frame = wire::decode_frame(wire::encode_fin(6));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, wire::FrameType::kFin);
  EXPECT_EQ(frame->fin.from, 6u);
}

TEST(SocketWire, RejectsMalformedFrames) {
  // Empty body.
  EXPECT_FALSE(wire::decode_frame({}).has_value());
  // Unknown frame type.
  const Bytes unknown{0x7F, 0, 0, 0};
  EXPECT_FALSE(wire::decode_frame(unknown).has_value());
  // Wrong magic on HELLO.
  Bytes bad_magic = wire::encode_hello({.run_id = 1, .from = 0, .n = 4});
  bad_magic[1] ^= 0xFF;
  EXPECT_FALSE(wire::decode_frame(bad_magic).has_value());
  // A mismatched version still DECODES — the handshake layer compares it to
  // kVersion and rejects with an actionable message naming both versions
  // (silently dropping the frame here would leave the peer with nothing to
  // report). The captured value must be the peer's, not ours.
  Bytes bad_version = wire::encode_hello({.run_id = 1, .from = 0, .n = 4});
  bad_version[5] ^= 0x01;
  const auto other = wire::decode_frame(bad_version);
  ASSERT_TRUE(other.has_value());
  EXPECT_NE(other->hello.version, wire::kVersion);
  // Trailing garbage after a valid frame.
  Bytes trailing = wire::encode_fin(2);
  trailing.push_back(0);
  EXPECT_FALSE(wire::decode_frame(trailing).has_value());
}

TEST(SocketWire, RejectsAdversarialPayloadLength) {
  // A MSG whose payload length prefix claims ~4 GiB with a tiny body: the
  // hardened Reader must report failure, never over-read.
  sim::Message m;
  m.kind = 1;
  m.payload = Bytes{9, 9, 9};
  Bytes body = wire::encode_msg(0, 1, 1, m);
  // The payload length prefix is the 4 bytes before the last 3 payload bytes.
  const std::size_t len_at = body.size() - m.payload.size() - 4;
  for (const std::uint32_t lie : {0xFFFFFFFFu, 0xFFFFFFF0u, 0x80000000u, 4u}) {
    Bytes lying = body;
    for (int i = 0; i < 4; ++i) {
      lying[len_at + i] = static_cast<std::uint8_t>(lie >> (8 * i));
    }
    EXPECT_FALSE(wire::decode_frame(lying).has_value()) << "lie=" << lie;
  }
}

TEST(SocketWire, TruncationsNeverDecodeAsValid) {
  sim::Message m;
  m.key = InstanceKey{.tag = 1, .a = 2, .b = 3};
  m.kind = 7;
  m.payload = Bytes(16, 0xAA);
  const Bytes body = wire::encode_msg(2, 3, 99, m);
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    const auto frame =
        wire::decode_frame(std::span<const std::uint8_t>(body.data(), cut));
    EXPECT_FALSE(frame.has_value()) << "cut=" << cut;
  }
}

TEST(SocketWire, MutationFuzzNeverCrashes) {
  // Random byte-flips over valid frames plus pure-noise bodies. The only
  // contract: decode_frame returns (engaged or not) — no crash, no UB. Run
  // under ASan by the socket CI job.
  Rng rng(2024);
  sim::Message m;
  m.key = InstanceKey{.tag = 3, .a = 1, .b = 4};
  m.kind = 5;
  m.payload = Bytes(32, 0x5C);
  const Bytes valid = wire::encode_msg(0, 1, 12, m);
  for (int i = 0; i < 2000; ++i) {
    Bytes mutated = valid;
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.next_below(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    (void)wire::decode_frame(mutated);
  }
  for (int i = 0; i < 2000; ++i) {
    Bytes noise(rng.next_below(64), 0);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next_below(256));
    (void)wire::decode_frame(noise);
  }
}

TEST(SocketWire, ValidateMsgEnforcesAuthThenDest) {
  wire::Msg m;
  m.from = 2;
  m.to = 0;
  EXPECT_EQ(wire::validate_msg(m, /*bound_from=*/2, /*local_to=*/0, 4), nullptr);
  // Claimed sender != the id bound at handshake: "auth", regardless of dest.
  EXPECT_STREQ(wire::validate_msg(m, /*bound_from=*/1, /*local_to=*/0, 4), "auth");
  // Right sender, wrong destination coordinates: "dest".
  m.to = 3;
  EXPECT_STREQ(wire::validate_msg(m, 2, 0, 4), "dest");
  m.to = 0;
  m.from = 9;  // out of range — but bound_from mismatch wins first
  EXPECT_STREQ(wire::validate_msg(m, 2, 0, 4), "auth");
  EXPECT_STREQ(wire::validate_msg(m, 9, 0, 4), "dest");
}

TEST(SocketWire, InstanceTagRoundTrips) {
  // The instance id rides the high bits of InstanceKey::tag (common/types.hpp)
  // and must survive the codec untouched — the mux demultiplexes on it.
  sim::Message m;
  const std::uint32_t instance = 0x00ABCDEFu;  // near kMaxInstances
  m.key = InstanceKey{.tag = (instance << kInstanceTagShift) | 7u, .a = 3, .b = 1};
  m.kind = 9;
  m.payload = Bytes{42};
  const auto frame = wire::decode_frame(wire::encode_msg(0, 1, 5, m));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->msg.key.tag, m.key.tag);
  EXPECT_EQ(frame->msg.key.tag >> kInstanceTagShift, instance);
  EXPECT_EQ(frame->msg.key.tag & kInstanceTagMask, 7u);
}

TEST(SocketWire, ValidateMsgBoundsInstanceTag) {
  wire::Msg m;
  m.from = 2;
  m.to = 0;
  m.key.tag = (31u << kInstanceTagShift) | 3u;  // instance 31
  // Limit 0 = single-instance deployments: the field is not policed.
  EXPECT_EQ(wire::validate_msg(m, 2, 0, 4, /*instance_tag_limit=*/0), nullptr);
  // In range: instance 31 < 32.
  EXPECT_EQ(wire::validate_msg(m, 2, 0, 4, 32), nullptr);
  // At and past the bound: dropped as "instance".
  EXPECT_STREQ(wire::validate_msg(m, 2, 0, 4, 31), "instance");
  EXPECT_STREQ(wire::validate_msg(m, 2, 0, 4, 1), "instance");
  // Auth still wins first — a forged sender is the stronger signal.
  EXPECT_STREQ(wire::validate_msg(m, 1, 0, 4, 1), "auth");
}

TEST(SocketEndpoints, UdsPathLengthValidated) {
  EXPECT_EQ(transport::validate_uds_endpoint("/tmp/ok.sock"), "");
  EXPECT_NE(transport::validate_uds_endpoint(""), "");
  const std::size_t limit = sizeof(sockaddr_un{}.sun_path);
  const std::string longest_ok(limit - 1, 'a');
  EXPECT_EQ(transport::validate_uds_endpoint(longest_ok), "");
  const std::string too_long(limit, 'a');
  const std::string error = transport::validate_uds_endpoint(too_long);
  ASSERT_FALSE(error.empty());
  // Actionable: names the offending path, its size, and the OS limit.
  EXPECT_NE(error.find(too_long), std::string::npos);
  EXPECT_NE(error.find(std::to_string(limit - 1)), std::string::npos);
  EXPECT_NE(error.find("sun_path"), std::string::npos);
}

// ------------------------------------- authenticated sender, end to end

/// Minimal party: quiescent until a kind-42 message arrives.
class WaitParty final : public sim::IParty {
 public:
  void start(sim::Env&) override {}
  void on_message(sim::Env&, PartyId, const sim::Message& m) override {
    if (m.kind == 42) got_.store(true, std::memory_order_release);
  }
  void on_timer(sim::Env&, std::uint64_t) override {}
  [[nodiscard]] bool got() const { return got_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> got_{false};
};

bool send_all(int fd, const Bytes& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

Bytes with_length_prefix(const Bytes& body) {
  Bytes out;
  const auto len = static_cast<std::uint32_t>(body.size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

int connect_uds_path(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int attempt = 0; attempt < 200; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0 &&
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      return fd;
    }
    if (fd >= 0) ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

// Drives a live SocketNetwork from a raw socket: a forged-sender frame must
// be dropped and counted WITHOUT closing the connection (one forged frame
// must not censor honest traffic behind it), a garbage frame must poison its
// own connection, and correctly authenticated frames must deliver.
TEST(SocketAuth, ForgedSenderDroppedCountedAndDeliveryContinues) {
  char dir[] = "/tmp/hydra-sockauth-XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  const std::string p0 = std::string(dir) + "/p0.sock";
  const std::string p1 = std::string(dir) + "/p1.sock";

  net::BackendConfig config;
  config.n = 2;
  config.delta = 100;
  config.us_per_tick = 1.0;
  config.seed = 7;
  config.timeout_ms = 20'000;
  config.endpoints = {p0, p1};
  SocketNetwork net(config, /*uds=*/true, std::make_unique<sim::FixedDelay>(100));

  std::vector<std::unique_ptr<sim::IParty>> parties;
  auto* w0 = new WaitParty();
  auto* w1 = new WaitParty();
  parties.emplace_back(w0);
  parties.emplace_back(w1);

  std::thread attacker([&] {
    sim::Message msg;
    msg.kind = 42;
    msg.payload = Bytes{1};

    // Connection A -> party 0, handshake claiming party 1.
    const int a = connect_uds_path(p0);
    ASSERT_GE(a, 0);
    ASSERT_TRUE(send_all(a, with_length_prefix(wire::encode_hello(
                                {.run_id = config.seed, .from = 1, .n = 2}))));
    // Forged frame: header says from=0 on a connection bound to 1 -> auth
    // drop, connection stays up.
    ASSERT_TRUE(send_all(a, with_length_prefix(wire::encode_msg(0, 0, 1, msg))));
    // Honest frame behind the forgery still delivers.
    ASSERT_TRUE(send_all(a, with_length_prefix(wire::encode_msg(1, 0, 2, msg))));

    // Connection B -> party 1: garbage body poisons the connection. The
    // server shuts a poisoned connection down as soon as it counted the
    // drop, so EOF on B orders the count before C's finisher can end the run.
    const int b = connect_uds_path(p1);
    ASSERT_GE(b, 0);
    ASSERT_TRUE(send_all(b, with_length_prefix(wire::encode_hello(
                                {.run_id = config.seed, .from = 0, .n = 2}))));
    ASSERT_TRUE(send_all(b, with_length_prefix(Bytes{0x7F, 1, 2, 3})));
    timeval tv{};
    tv.tv_sec = 10;  // fail instead of hanging if the server never shuts B down
    ::setsockopt(b, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    std::uint8_t byte = 0;
    EXPECT_EQ(::recv(b, &byte, 1, 0), 0) << "poisoned connection not shut down";
    ::close(b);

    // Connection C -> party 1: clean, delivers the finisher.
    const int c = connect_uds_path(p1);
    ASSERT_GE(c, 0);
    ASSERT_TRUE(send_all(c, with_length_prefix(wire::encode_hello(
                                {.run_id = config.seed, .from = 0, .n = 2}))));
    ASSERT_TRUE(send_all(c, with_length_prefix(wire::encode_msg(0, 1, 3, msg))));
    ::close(a);
    ::close(c);
  });

  const auto stats = net.run(parties, [](const sim::IParty& party, PartyId) {
    return static_cast<const WaitParty&>(party).got();
  });
  attacker.join();

  EXPECT_FALSE(stats.timed_out) << stats.timeout_detail;
  EXPECT_TRUE(w0->got());
  EXPECT_TRUE(w1->got());
  EXPECT_GE(stats.frames_auth_dropped, 1u);
  EXPECT_GE(stats.frames_decode_dropped, 1u);

  ::unlink(p0.c_str());
  ::unlink(p1.c_str());
  ::rmdir(dir);
}

// ------------------------------------------------------------------ parity

harness::RunSpec parity_spec(std::uint64_t seed) {
  harness::RunSpec spec;
  spec.params.n = 5;
  spec.params.ts = 1;
  spec.params.ta = 1;
  spec.params.dim = 2;
  spec.params.eps = 1e-2;
  spec.params.delta = 1000;
  spec.protocol = harness::Protocol::kHybrid;
  spec.network = harness::Network::kSyncJitter;
  spec.adversary = harness::Adversary::kSilent;
  spec.corruptions = 1;
  spec.seed = seed;
  return spec;
}

TEST(SocketBackendRegistry, TcpAndUdsRegistered) {
  const auto names = harness::backend_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "tcp"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "uds"), names.end());
}

// Acceptance criterion: the same spec reaches the same verdict over real
// sockets as in-process — D-AA holds under ANY admissible schedule, so the
// oracle verdict is schedule-independent. Clean runs must also report zero
// hardened-ingress drops: every frame honest parties exchange decodes and
// authenticates.
TEST(SocketBackendParity, VerdictsMatchAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    for (const std::string& backend : {std::string{"tcp"}, std::string{"uds"}}) {
      auto spec = parity_spec(seed);
      spec.backend = backend;
      const auto result = harness::execute(spec);
      EXPECT_TRUE(result.verdict.d_aa()) << backend << " seed " << seed;
      EXPECT_FALSE(result.timed_out) << backend << " seed " << seed;
      EXPECT_EQ(result.frames_auth_dropped, 0u) << backend << " seed " << seed;
      EXPECT_EQ(result.frames_decode_dropped, 0u) << backend << " seed " << seed;
      ASSERT_EQ(result.progress.size(), spec.params.n) << backend;
      for (const auto& p : result.progress) {
        EXPECT_TRUE(p.finished) << backend << " seed " << seed;
        EXPECT_GT(p.events, 0u) << backend << " seed " << seed;
      }
    }
  }
}

// With no Byzantine parties and a fixed-round baseline under the lockstep
// delay model, the message count is a pure function of the protocol, so the
// wire totals must agree exactly across all four backends. Fault-plan
// accounting is pre-injector by contract, so a dup plan must not change
// them either.
TEST(SocketBackendParity, DeterministicWireTotalsMatchSimAndThreads) {
  for (const std::string& faults : {std::string{}, std::string{"dup(p=0.4)"}}) {
    auto spec = parity_spec(2);
    spec.protocol = harness::Protocol::kSyncLockstep;
    spec.network = harness::Network::kSyncWorstCase;
    spec.adversary = harness::Adversary::kNone;
    spec.corruptions = 0;
    spec.faults = faults;
    const auto baseline = harness::execute(spec);  // backend "sim"
    spec.backend = "threads";
    const auto threads = harness::execute(spec);
    spec.backend = "tcp";
    const auto tcp = harness::execute(spec);
    spec.backend = "uds";
    const auto uds = harness::execute(spec);
    for (const auto* result : {&threads, &tcp, &uds}) {
      EXPECT_EQ(baseline.messages, result->messages) << "faults='" << faults << "'";
      EXPECT_EQ(baseline.bytes, result->bytes) << "faults='" << faults << "'";
      EXPECT_EQ(baseline.sent_per_party, result->sent_per_party)
          << "faults='" << faults << "'";
    }
    EXPECT_EQ(tcp.frames_auth_dropped, 0u);
    EXPECT_EQ(tcp.frames_decode_dropped, 0u);
  }
}

// --------------------------------------------- timeout & crash excusal

/// Party ids named "party N:" in a timeout_detail string.
std::set<PartyId> parties_named(const std::string& detail) {
  std::set<PartyId> out;
  std::size_t at = 0;
  while ((at = detail.find("party ", at)) != std::string::npos) {
    at += 6;
    out.insert(static_cast<PartyId>(std::strtoul(detail.c_str() + at, nullptr, 10)));
  }
  return out;
}

// The watchdog-parity satellite: a fault plan that crash-stops two parties
// at t=0 starves the rest (2 crashed > ts = 1), so the run times out — and
// BackendStats::timeout_detail must name exactly the stalled parties, with
// the crash-windowed ones excused, identically on threads and tcp.
TEST(SocketBackendParity, TimeoutDetailNamesStalledPartiesLikeThreads) {
  const auto run = [](const std::string& backend) {
    auto spec = parity_spec(3);
    spec.adversary = harness::Adversary::kNone;
    spec.corruptions = 0;
    spec.faults = "crash(party=0,at=0);crash(party=1,at=0)";
    spec.timeout_ms = 1200;  // the run cannot finish; keep the test fast
    spec.backend = backend;
    return harness::execute(spec);
  };
  const auto threads = run("threads");
  const auto tcp = run("tcp");
  for (const auto* result : {&threads, &tcp}) {
    EXPECT_TRUE(result->timed_out);
    const auto named = parties_named(result->timeout_detail);
    // Crash-windowed parties are excused, every other (stalled) party named.
    EXPECT_EQ(named, (std::set<PartyId>{2, 3, 4})) << result->timeout_detail;
    ASSERT_EQ(result->progress.size(), 5u);
    EXPECT_TRUE(result->progress[0].crash_stopped);
    EXPECT_TRUE(result->progress[1].crash_stopped);
  }
  // The reporting format is part of the backend-parity contract.
  EXPECT_NE(tcp.timeout_detail.find("unfinished after"), std::string::npos);
  EXPECT_NE(tcp.timeout_detail.find("last progress at tick"), std::string::npos);
}

}  // namespace
}  // namespace hydra
