// Wire format of the socket transport (backends "tcp"/"uds").
//
// Every frame on a connection is a u32 little-endian length prefix followed
// by a body encoded with common/serialize.hpp — the same binary format the
// protocol layers already use for payloads, so a socket run's byte
// accounting matches the in-process transports'. Three frame types:
//
//   HELLO  first frame on every connection: magic, version, run id, n, and
//          the sender's claimed PartyId. The receiver binds the connection
//          to that id — the authenticated-sender property is enforced
//          per-connection from here on.
//   MSG    one protocol message: {instance (tag,a,b), from, to, seq, kind,
//          payload}. `seq` is the sender-assigned send id, used as the
//          causal trace id at delivery (duplicate copies share it: one send
//          event, two delivers). Frames whose `from` disagrees with the
//          connection's bound id are dropped and counted.
//   FIN    the sending party reached its finishing condition; used by the
//          distributed shutdown handshake (multi-process serve/join mode).
//
// Decode paths are hardened: the length prefix is capped (kMaxFrameBytes),
// the body is parsed with the overflow-safe Reader, trailing bytes are
// rejected, and every failure is reported — never UB — because these bytes
// arrive from the OS, not a trusted in-process queue (docs/DEPLOYMENT.md).
#pragma once

#include <cstdint>
#include <optional>

#include "common/serialize.hpp"
#include "common/types.hpp"
#include "sim/message.hpp"

namespace hydra::transport::wire {

inline constexpr std::uint32_t kMagic = 0x41415948;  // "HYAA" little-endian
/// Wire version 2: MSG `seq` is specified as the origin's trace send id (the
/// cross-process causal id consumed by trace stitching), and HELLO version
/// mismatches are rejected with an actionable log instead of silently.
inline constexpr std::uint32_t kVersion = 2;
/// Hard cap on a frame body. Anything larger is a framing attack (or a
/// corrupted stream): the connection is closed, never allocated for.
inline constexpr std::uint32_t kMaxFrameBytes = 16u * 1024u * 1024u;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kMsg = 2,
  kFin = 3,
};

struct Hello {
  std::uint64_t run_id = 0;  ///< seed-derived; both ends must agree
  PartyId from = 0;          ///< claimed sender identity, bound at handshake
  std::uint32_t n = 0;       ///< party count; must match the receiver's
  /// Version as decoded off the wire. decode_frame() keeps a well-formed
  /// HELLO of any version so the handshake can reject a mismatch with an
  /// actionable message (peer's version vs ours) instead of a silent drop.
  std::uint32_t version = kVersion;
};

struct Msg {
  InstanceKey key;
  PartyId from = 0;
  PartyId to = 0;
  std::uint64_t seq = 0;  ///< sender-assigned send id (trace cause)
  std::uint8_t kind = 0;
  Bytes payload;
};

struct Fin {
  PartyId from = 0;
};

/// Decoded frame; `type` selects which member is meaningful.
struct Frame {
  FrameType type = FrameType::kHello;
  Hello hello;
  Msg msg;
  Fin fin;
};

[[nodiscard]] inline Bytes encode_hello(const Hello& h) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kHello));
  w.u32(kMagic);
  w.u32(kVersion);
  w.u64(h.run_id);
  w.u32(h.from);
  w.u32(h.n);
  return w.take();
}

inline void write_msg(Writer& w, PartyId from, PartyId to, std::uint64_t seq,
                      const sim::Message& m) {
  w.u8(static_cast<std::uint8_t>(FrameType::kMsg));
  w.u32(m.key.tag);
  w.u32(m.key.a);
  w.u32(m.key.b);
  w.u32(from);
  w.u32(to);
  w.u64(seq);
  w.u8(m.kind);
  w.bytes(m.payload.bytes());
}

[[nodiscard]] inline Bytes encode_msg(PartyId from, PartyId to, std::uint64_t seq,
                                      const sim::Message& m) {
  Writer w;
  write_msg(w, from, to, seq, m);
  return w.take();
}

/// Appends one length-prefixed MSG frame to `buffer` (a link's coalescing
/// buffer), encoding in place. Returns the body size.
inline std::size_t append_msg_frame(Bytes& buffer, PartyId from, PartyId to,
                                    std::uint64_t seq, const sim::Message& m) {
  const std::size_t prefix_at = buffer.size();
  Writer w(std::move(buffer));
  w.u32(0);  // the length prefix, filled in once the body is written
  write_msg(w, from, to, seq, m);
  buffer = w.take();
  const std::size_t body = buffer.size() - prefix_at - 4;
  for (int i = 0; i < 4; ++i) {
    buffer[prefix_at + i] = static_cast<std::uint8_t>(body >> (8 * i));
  }
  return body;
}

[[nodiscard]] inline Bytes encode_fin(PartyId from) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kFin));
  w.u32(from);
  return w.take();
}

/// Parses one frame body (the bytes after the length prefix). nullopt means
/// the body is malformed — unknown type, truncated, or trailing garbage —
/// and the connection should be treated as desynchronized.
[[nodiscard]] inline std::optional<Frame> decode_frame(
    std::span<const std::uint8_t> body) {
  Reader r(body);
  Frame f;
  switch (r.u8()) {
    case static_cast<std::uint8_t>(FrameType::kHello): {
      f.type = FrameType::kHello;
      if (r.u32() != kMagic) return std::nullopt;
      f.hello.version = r.u32();
      f.hello.run_id = r.u64();
      f.hello.from = r.u32();
      f.hello.n = r.u32();
      break;
    }
    case static_cast<std::uint8_t>(FrameType::kMsg): {
      f.type = FrameType::kMsg;
      f.msg.key.tag = r.u32();
      f.msg.key.a = r.u32();
      f.msg.key.b = r.u32();
      f.msg.from = r.u32();
      f.msg.to = r.u32();
      f.msg.seq = r.u64();
      f.msg.kind = r.u8();
      f.msg.payload = r.bytes();
      break;
    }
    case static_cast<std::uint8_t>(FrameType::kFin): {
      f.type = FrameType::kFin;
      f.fin.from = r.u32();
      break;
    }
    default:
      return std::nullopt;
  }
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return f;
}

/// Validates a decoded MSG frame against the connection's bound identity.
/// Returns nullptr when acceptable, else the reject reason. The
/// authenticated-sender contract: `from` must equal the id the connection
/// was bound to at handshake ("auth"), the coordinates must address a real
/// local destination ("dest"), and — when the process serves multiple
/// instances (instance_tag_limit > 0) — the tag's instance id
/// (common/types.hpp layout) must stay below the served bound ("instance"),
/// so a peer cannot address slab state that was never provisioned.
[[nodiscard]] inline const char* validate_msg(const Msg& m, PartyId bound_from,
                                              PartyId local_to, std::size_t n,
                                              std::uint32_t instance_tag_limit = 0) {
  if (m.from != bound_from) return "auth";
  if (m.to != local_to || m.to >= n || m.from >= n) return "dest";
  if (instance_tag_limit != 0 &&
      (m.key.tag >> kInstanceTagShift) >= instance_tag_limit) {
    return "instance";
  }
  return nullptr;
}

}  // namespace hydra::transport::wire
