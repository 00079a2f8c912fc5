// RFC 1071 Internet checksum, plus the TCP/UDP pseudo-header variants.
#pragma once

#include <cstdint>
#include <span>

#include "net/addr.h"

namespace zen::net {

// One's-complement sum over `data`, folded to 16 bits and inverted.
std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

// Checksum of an L4 segment including the IPv4 pseudo-header
// (src, dst, proto, length). `segment` must contain the L4 header with its
// checksum field zeroed, followed by the payload.
std::uint16_t l4_checksum_ipv4(Ipv4Address src, Ipv4Address dst,
                               std::uint8_t protocol,
                               std::span<const std::uint8_t> segment);

// The same over the IPv6 pseudo-header (src, dst, upper-layer length,
// next header; RFC 8200 §8.1).
std::uint16_t l4_checksum_ipv6(const Ipv6Address& src, const Ipv6Address& dst,
                               std::uint8_t next_header,
                               std::span<const std::uint8_t> segment);

}  // namespace zen::net
