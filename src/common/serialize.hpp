// Minimal binary serialization for protocol payloads.
//
// Reliable broadcast (protocols/rbc.hpp) transports opaque byte vectors;
// every layer above it encodes its own messages with Writer/Reader. The
// format is little-endian, length-prefixed, with no alignment padding —
// enough to make message sizes realistic and byte accounting meaningful.
//
// Readers are written defensively: a Byzantine party controls payload bytes
// — and on the socket backends (transport/socket_net.hpp) the bytes arrive
// straight from the OS — so every decode reports failure via ok() instead of
// invoking UB, and all length-prefix arithmetic is overflow-safe.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace hydra {

using Bytes = std::vector<std::uint8_t>;

class Writer {
 public:
  Writer() = default;
  /// Appends to `out` instead of starting empty; take() hands it back.
  explicit Writer(Bytes out) noexcept : out_(std::move(out)) {}

  void u8(std::uint8_t v) { out_.push_back(v); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

  void bytes(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    out_.insert(out_.end(), b.begin(), b.end());
  }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }

  /// Vector of doubles (e.g. a point in R^D).
  void f64_vec(std::span<const double> v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (double x : v) f64(x);
  }

  [[nodiscard]] const Bytes& data() const noexcept { return out_; }
  [[nodiscard]] Bytes take() noexcept { return std::move(out_); }

 private:
  Bytes out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == data_.size(); }

  std::uint8_t u8() {
    if (!ensure(1)) return 0;
    return data_[pos_++];
  }

  std::uint32_t u32() {
    if (!ensure(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_++]} << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    if (!ensure(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_++]} << (8 * i);
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  Bytes bytes() {
    const auto span = take_prefixed();
    return Bytes(span.begin(), span.end());
  }

  std::string str() {
    const auto span = take_prefixed();
    return std::string(reinterpret_cast<const char*>(span.data()), span.size());
  }

  std::vector<double> f64_vec(std::uint32_t max_len = 1u << 20) {
    const std::uint32_t len = u32();
    // Element-count cap first: a 32-bit length can demand up to 32 GiB of
    // doubles, and `len * 8` must never be formed before the cap check on
    // platforms where size_t is 32 bits wide.
    if (len > max_len || !ensure(std::size_t{len} * 8)) {
      ok_ = false;
      return {};
    }
    std::vector<double> out;
    out.reserve(len);
    for (std::uint32_t i = 0; i < len; ++i) out.push_back(f64());
    return out;
  }

 private:
  /// Reads a u32 length prefix and consumes that many bytes, returning them
  /// as a span ({} with ok_=false on truncated input). All length-prefix
  /// arithmetic is centralized here and phrased as `remaining < len` so no
  /// `pos_ + len` sum — which wraps for len near UINT32_MAX on 32-bit
  /// size_t — is ever formed against attacker-controlled lengths.
  [[nodiscard]] std::span<const std::uint8_t> take_prefixed() {
    const std::uint32_t len = u32();
    if (!ensure(len)) return {};
    const auto out = data_.subspan(pos_, len);
    pos_ += len;
    return out;
  }

  /// Overflow-safe bounds check: pos_ <= data_.size() is a class invariant
  /// (positions only advance after a successful ensure), so the subtraction
  /// cannot underflow, and `need` is never added to pos_ before the check.
  [[nodiscard]] bool ensure(std::size_t need) noexcept {
    if (!ok_ || data_.size() - pos_ < need) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace hydra
