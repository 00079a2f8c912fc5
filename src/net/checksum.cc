#include "net/checksum.h"

namespace zen::net {

namespace {

std::uint32_t sum_words(std::span<const std::uint8_t> data,
                        std::uint32_t acc) noexcept {
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    acc += (static_cast<std::uint32_t>(data[i]) << 8) | data[i + 1];
  }
  if (i < data.size()) acc += static_cast<std::uint32_t>(data[i]) << 8;
  return acc;
}

std::uint16_t fold(std::uint32_t acc) noexcept {
  while (acc >> 16) acc = (acc & 0xffff) + (acc >> 16);
  return static_cast<std::uint16_t>(~acc & 0xffff);
}

}  // namespace

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  return fold(sum_words(data, 0));
}

std::uint16_t l4_checksum_ipv4(Ipv4Address src, Ipv4Address dst,
                               std::uint8_t protocol,
                               std::span<const std::uint8_t> segment) {
  std::uint32_t acc = 0;
  acc += src.value() >> 16;
  acc += src.value() & 0xffff;
  acc += dst.value() >> 16;
  acc += dst.value() & 0xffff;
  acc += protocol;
  acc += static_cast<std::uint32_t>(segment.size());
  return fold(sum_words(segment, acc));
}

std::uint16_t l4_checksum_ipv6(const Ipv6Address& src, const Ipv6Address& dst,
                               std::uint8_t next_header,
                               std::span<const std::uint8_t> segment) {
  std::uint32_t acc = sum_words(src.octets(), 0);
  acc = sum_words(dst.octets(), acc);
  acc += static_cast<std::uint32_t>(segment.size());
  acc += next_header;
  return fold(sum_words(segment, acc));
}

}  // namespace zen::net
