// Packet: owned wire bytes plus a decoded header stack.
//
// A Packet owns its bytes (std::vector). ParsedPacket is the decoded view:
// which headers are present, their values, and the payload offset.
// serialize_packet() is the inverse and the one frame writer: the builders
// (ARP, IPv4 TCP/UDP/ICMP, IPv6 TCP/UDP) fill a ParsedPacket and call it,
// and so does the dataplane's set-field rewriter. LLDP-style discovery
// frames carry no L3/L4 stack and are written by their own builder.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/addr.h"
#include "net/flow_key.h"
#include "net/headers.h"
#include "util/result.h"

namespace zen::net {

using Bytes = std::vector<std::uint8_t>;

struct ParsedPacket {
  EthernetHeader eth;
  std::optional<VlanTag> vlan;
  std::optional<ArpMessage> arp;
  std::optional<Ipv4Header> ipv4;
  std::optional<Ipv6Header> ipv6;
  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;
  std::optional<IcmpHeader> icmp;
  std::size_t payload_offset = 0;  // offset of L4 payload (or L3 for non-IP)

  // The effective (innermost) ethertype after any VLAN tag.
  std::uint16_t inner_ether_type() const noexcept {
    return vlan ? vlan->ether_type : eth.ether_type;
  }

  // Builds the dataplane flow key; `in_port` comes from packet metadata.
  FlowKey flow_key(std::uint32_t in_port) const noexcept;
};

// Parses an Ethernet frame. Unknown L3/L4 protocols parse successfully with
// the corresponding optionals empty; truncated headers produce an error.
util::Result<ParsedPacket> parse_packet(std::span<const std::uint8_t> frame);

// ---- Frame writer ---------------------------------------------------------

// Writes `p`'s headers in stack order, then `payload`. Every field is
// written as given except these, which are derived from the stack:
//   IPv4 total length and header checksum; IPv6 payload length;
//   UDP length; the TCP/UDP checksum over the IPv4 or IPv6 pseudo-header;
//   the ICMPv4 checksum over the ICMP message alone (RFC 792).
// `payload_offset` is ignored, and IPv4/TCP options are never emitted.
Bytes serialize_packet(const ParsedPacket& p,
                       std::span<const std::uint8_t> payload);

// Size of serialize_packet(p, payload) for a payload of `payload_size`.
std::size_t serialized_size(const ParsedPacket& p,
                            std::size_t payload_size) noexcept;

// ---- Builders -------------------------------------------------------------

struct TcpSpec {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = TcpHeader::kAck;
};

Bytes build_arp_request(MacAddress sender_mac, Ipv4Address sender_ip,
                        Ipv4Address target_ip);
Bytes build_arp_reply(MacAddress sender_mac, Ipv4Address sender_ip,
                      MacAddress target_mac, Ipv4Address target_ip);

Bytes build_ipv4_tcp(MacAddress eth_src, MacAddress eth_dst, Ipv4Address src,
                     Ipv4Address dst, const TcpSpec& tcp,
                     std::span<const std::uint8_t> payload, std::uint8_t dscp = 0);

Bytes build_ipv4_udp(MacAddress eth_src, MacAddress eth_dst, Ipv4Address src,
                     Ipv4Address dst, std::uint16_t src_port,
                     std::uint16_t dst_port,
                     std::span<const std::uint8_t> payload, std::uint8_t dscp = 0);

Bytes build_ipv4_icmp_echo(MacAddress eth_src, MacAddress eth_dst,
                           Ipv4Address src, Ipv4Address dst, bool request,
                           std::uint16_t identifier, std::uint16_t sequence);

Bytes build_ipv6_udp(MacAddress eth_src, MacAddress eth_dst,
                     const Ipv6Address& src, const Ipv6Address& dst,
                     std::uint16_t src_port, std::uint16_t dst_port,
                     std::span<const std::uint8_t> payload);

Bytes build_ipv6_tcp(MacAddress eth_src, MacAddress eth_dst,
                     const Ipv6Address& src, const Ipv6Address& dst,
                     const TcpSpec& tcp, std::span<const std::uint8_t> payload);

// Discovery frame (LLDP-style, ethertype 0x88cc): carries the sending
// switch's datapath id and port number as TLVs. Used by the controller's
// topology discovery app.
Bytes build_discovery_frame(MacAddress src, std::uint64_t datapath_id,
                            std::uint32_t port_no);

struct DiscoveryInfo {
  std::uint64_t datapath_id = 0;
  std::uint32_t port_no = 0;
};

// Returns nullopt if the frame is not a discovery frame.
std::optional<DiscoveryInfo> parse_discovery_frame(
    std::span<const std::uint8_t> frame);

}  // namespace zen::net
