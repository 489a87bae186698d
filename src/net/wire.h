// Wire encoding for net::Packet: the byte layout a real transport would carry.
//
// The simulated channels pass Packet structs by value, so nothing in-tree
// needs serialization for correctness — this header exists so the decode path
// can be hardened and fuzzed like a real server's would be. The layout is
// fixed-width little-endian, 29 bytes:
//
//   offset 0  : connection_id  (4 bytes)
//   offset 4  : seq            (8 bytes)
//   offset 12 : type           (1 byte; must be < kPacketTypeCount)
//   offset 13 : arg0           (8 bytes)
//   offset 21 : arg1           (8 bytes)
//
// Each multi-byte field is copied to or from its host integer with one
// std::memcpy, so the header compiles only for a little-endian host (checked
// below). Byte loops compile to about 90 instructions per decode, and on
// TimerServer's request path they measured 15% slower end to end
// (EXPERIMENTS.md "server-front"). DecodePacket rejects anything that is not
// exactly one well-formed packet: short buffers, trailing garbage, and
// out-of-range type bytes all return nullopt without reading past `size`,
// before any field is read. tests/net/wire_test.cc pins the byte layout
// against a hand-written buffer and feeds the decoder truncations and random
// garbage under ASan/UBSan.

#ifndef TWHEEL_SRC_NET_WIRE_H_
#define TWHEEL_SRC_NET_WIRE_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>

#include "src/net/types.h"

namespace twheel::net {

inline constexpr std::size_t kWirePacketSize = 29;

namespace wire_internal {

static_assert(std::endian::native == std::endian::little,
              "wire fields are copied as host integers, which matches the "
              "little-endian layout only on a little-endian host");

// One little-endian field of sizeof(T) bytes.
template <typename T>
inline void Put(std::uint8_t* out, T v) {
  std::memcpy(out, &v, sizeof v);
}

template <typename T>
inline T Get(const std::uint8_t* in) {
  T v = 0;
  std::memcpy(&v, in, sizeof v);
  return v;
}

}  // namespace wire_internal

inline std::array<std::uint8_t, kWirePacketSize> EncodePacket(
    const Packet& packet) {
  std::array<std::uint8_t, kWirePacketSize> out{};
  wire_internal::Put(out.data(), packet.connection_id);
  wire_internal::Put(out.data() + 4, packet.seq);
  out[12] = static_cast<std::uint8_t>(packet.type);
  wire_internal::Put(out.data() + 13, packet.arg0);
  wire_internal::Put(out.data() + 21, packet.arg1);
  return out;
}

// Strict decode: exactly kWirePacketSize bytes with an in-range type byte, or
// nullopt. Never reads beyond `size`; a null `data` is rejected (size must be
// wrong too, but don't rely on it).
inline std::optional<Packet> DecodePacket(const std::uint8_t* data,
                                          std::size_t size) {
  if (data == nullptr || size != kWirePacketSize) {
    return std::nullopt;
  }
  if (data[12] >= kPacketTypeCount) {
    return std::nullopt;
  }
  Packet packet;
  packet.connection_id = wire_internal::Get<std::uint32_t>(data);
  packet.seq = wire_internal::Get<std::uint64_t>(data + 4);
  packet.type = static_cast<PacketType>(data[12]);
  packet.arg0 = wire_internal::Get<std::uint64_t>(data + 13);
  packet.arg1 = wire_internal::Get<std::uint64_t>(data + 21);
  return packet;
}

}  // namespace twheel::net

#endif  // TWHEEL_SRC_NET_WIRE_H_
