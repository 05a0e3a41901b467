// The wire unit exchanged between parties.
//
// `key` carries the sub-protocol instance identification (Section 2 of the
// paper: "messages are provided with identification numbers"); `kind` is a
// layer-defined discriminator (e.g. Bracha's send/echo/ready); `payload` is
// the opaque bytes serialized by the emitting layer.
//
// The payload is immutable and shared: copying a Message copies a reference
// to one byte buffer, never the bytes. A broadcast therefore allocates its
// payload once, and every recipient's copy, the serving layer's routing hop
// and a ΠrBC echo or ready that forwards a received payload all point at
// that buffer. The reference count is atomic, so the wall-clock backends may
// hand copies to other threads; nobody writes the bytes after construction.
//
// The sender identity is NOT part of the message: the network attaches it at
// delivery, which is what an authenticated channel provides — a Byzantine
// party can put arbitrary bytes in `payload` but cannot forge `from`.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "common/serialize.hpp"
#include "common/types.hpp"

namespace hydra::sim {

/// Immutable, reference-counted payload bytes. Empty payloads allocate
/// nothing.
class Payload {
 public:
  Payload() noexcept = default;

  /// Takes ownership of encoded bytes. Implicit, like the conversion back
  /// to `const Bytes&`: a Message is built straight from an encoder's output
  /// and decoders read the payload where they read bytes before.
  Payload(Bytes bytes)
      : buf_(bytes.empty() ? nullptr
                           : std::make_shared<const Bytes>(std::move(bytes))) {}

  [[nodiscard]] const Bytes& bytes() const noexcept { return buf_ ? *buf_ : kNone; }
  operator const Bytes&() const noexcept { return bytes(); }

  [[nodiscard]] std::size_t size() const noexcept { return bytes().size(); }

  /// Equal bytes; two references to one buffer compare equal without a scan.
  friend bool operator==(const Payload& a, const Payload& b) noexcept {
    return a.buf_ == b.buf_ || a.bytes() == b.bytes();
  }

 private:
  static inline const Bytes kNone{};

  std::shared_ptr<const Bytes> buf_;
};

struct Message {
  InstanceKey key;
  std::uint8_t kind = 0;
  Payload payload;

  [[nodiscard]] std::size_t wire_size() const noexcept {
    // 12 bytes of key + 1 byte kind + 4-byte length prefix + payload.
    return 12 + 1 + 4 + payload.size();
  }
};

}  // namespace hydra::sim
