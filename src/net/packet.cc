#include "net/packet.h"

#include <tuple>

#include "net/checksum.h"
#include "util/buffer.h"

namespace zen::net {

FlowKey ParsedPacket::flow_key(std::uint32_t in_port) const noexcept {
  FlowKey k;
  k.in_port = in_port;
  k.eth_src = eth.src.to_u64();
  k.eth_dst = eth.dst.to_u64();
  k.eth_type = inner_ether_type();
  if (vlan) {
    k.vlan_vid = vlan->vid;
    k.vlan_pcp = vlan->pcp;
  }
  if (arp) {
    k.arp_op = arp->opcode;
    k.ipv4_src = arp->sender_ip.value();
    k.ipv4_dst = arp->target_ip.value();
  }
  if (ipv4) {
    k.ipv4_src = ipv4->src.value();
    k.ipv4_dst = ipv4->dst.value();
    k.ip_proto = ipv4->protocol;
    k.ip_dscp = ipv4->dscp;
  }
  if (ipv6) {
    std::tie(k.ipv6_src_hi, k.ipv6_src_lo) = FlowKey::split_ipv6(ipv6->src);
    std::tie(k.ipv6_dst_hi, k.ipv6_dst_lo) = FlowKey::split_ipv6(ipv6->dst);
    k.ip_proto = ipv6->next_header;
    k.ip_dscp = ipv6->traffic_class >> 2;
  }
  if (tcp) {
    k.l4_src = tcp->src_port;
    k.l4_dst = tcp->dst_port;
  } else if (udp) {
    k.l4_src = udp->src_port;
    k.l4_dst = udp->dst_port;
  } else if (icmp) {
    k.l4_src = icmp->type;
    k.l4_dst = icmp->code;
  }
  return k;
}

util::Result<ParsedPacket> parse_packet(std::span<const std::uint8_t> frame) {
  util::ByteReader r(frame);
  ParsedPacket p;
  p.eth = EthernetHeader::parse(r);
  if (!r.ok()) return util::make_error<ParsedPacket>("truncated ethernet header");

  std::uint16_t ether_type = p.eth.ether_type;
  if (ether_type == EtherType::kVlan) {
    p.vlan = VlanTag::parse(r);
    if (!r.ok()) return util::make_error<ParsedPacket>("truncated vlan tag");
    ether_type = p.vlan->ether_type;
  }

  switch (ether_type) {
    case EtherType::kArp: {
      p.arp = ArpMessage::parse(r);
      if (!r.ok()) return util::make_error<ParsedPacket>("truncated arp");
      break;
    }
    case EtherType::kIpv4: {
      p.ipv4 = Ipv4Header::parse(r);
      if (!r.ok()) return util::make_error<ParsedPacket>("bad ipv4 header");
      switch (p.ipv4->protocol) {
        case IpProto::kTcp:
          p.tcp = TcpHeader::parse(r);
          if (!r.ok()) return util::make_error<ParsedPacket>("bad tcp header");
          break;
        case IpProto::kUdp:
          p.udp = UdpHeader::parse(r);
          if (!r.ok()) return util::make_error<ParsedPacket>("bad udp header");
          break;
        case IpProto::kIcmp:
          p.icmp = IcmpHeader::parse(r);
          if (!r.ok()) return util::make_error<ParsedPacket>("bad icmp header");
          break;
        default:
          break;  // unknown L4: leave optionals empty
      }
      break;
    }
    case EtherType::kIpv6: {
      p.ipv6 = Ipv6Header::parse(r);
      if (!r.ok()) return util::make_error<ParsedPacket>("bad ipv6 header");
      switch (p.ipv6->next_header) {
        case IpProto::kTcp:
          p.tcp = TcpHeader::parse(r);
          if (!r.ok()) return util::make_error<ParsedPacket>("bad tcp header");
          break;
        case IpProto::kUdp:
          p.udp = UdpHeader::parse(r);
          if (!r.ok()) return util::make_error<ParsedPacket>("bad udp header");
          break;
        default:
          break;
      }
      break;
    }
    default:
      break;  // unknown L3
  }
  p.payload_offset = r.position();
  return p;
}

namespace {

std::size_t l4_header_size(const ParsedPacket& p) noexcept {
  if (p.tcp) return TcpHeader::kMinSize;
  if (p.udp) return UdpHeader::kSize;
  if (p.icmp) return IcmpHeader::kSize;
  return 0;
}

}  // namespace

std::size_t serialized_size(const ParsedPacket& p,
                            std::size_t payload_size) noexcept {
  std::size_t n = EthernetHeader::kSize + l4_header_size(p) + payload_size;
  if (p.vlan) n += VlanTag::kSize;
  if (p.arp) n += ArpMessage::kSize;
  if (p.ipv4) n += Ipv4Header::kMinSize;
  if (p.ipv6) n += Ipv6Header::kSize;
  return n;
}

Bytes serialize_packet(const ParsedPacket& p,
                       std::span<const std::uint8_t> payload) {
  Bytes out;
  out.reserve(serialized_size(p, payload.size()));
  util::ByteWriter w(out);
  p.eth.serialize(w);
  if (p.vlan) p.vlan->serialize(w);
  if (p.arp) p.arp->serialize(w);

  const auto l4_length =
      static_cast<std::uint16_t>(l4_header_size(p) + payload.size());
  if (p.ipv4) {
    Ipv4Header ip = *p.ipv4;
    ip.total_length =
        static_cast<std::uint16_t>(Ipv4Header::kMinSize + l4_length);
    ip.serialize(w);  // with a fresh header checksum
  } else if (p.ipv6) {
    Ipv6Header ip6 = *p.ipv6;
    ip6.payload_length = l4_length;
    ip6.serialize(w);
  }

  // L4 header with a zero checksum, then the payload; the checksum is
  // computed over the written segment and patched in.
  const std::size_t l4_start = out.size();
  std::size_t checksum_offset = 0;
  if (p.tcp) {
    TcpHeader h = *p.tcp;
    h.checksum = 0;
    h.serialize(w);
    checksum_offset = 16;
  } else if (p.udp) {
    UdpHeader h = *p.udp;
    h.length = l4_length;
    h.checksum = 0;
    h.serialize(w);
    checksum_offset = 6;
  } else if (p.icmp) {
    IcmpHeader h = *p.icmp;
    h.checksum = 0;
    h.serialize(w);
    checksum_offset = 2;
  }
  w.bytes(payload);
  if (checksum_offset == 0) return out;  // no L4 header to checksum

  const auto segment = std::span<const std::uint8_t>(out).subspan(l4_start);
  std::uint16_t sum = 0;
  if (p.icmp)
    sum = internet_checksum(segment);
  else if (p.ipv4)
    sum = l4_checksum_ipv4(p.ipv4->src, p.ipv4->dst, p.ipv4->protocol, segment);
  else if (p.ipv6)
    sum = l4_checksum_ipv6(p.ipv6->src, p.ipv6->dst, p.ipv6->next_header,
                           segment);
  w.patch_u16(l4_start + checksum_offset, sum);
  return out;
}

namespace {

Bytes build_arp(std::uint16_t opcode, MacAddress eth_dst, MacAddress sender_mac,
                Ipv4Address sender_ip, MacAddress target_mac,
                Ipv4Address target_ip) {
  ParsedPacket p;
  p.eth = {eth_dst, sender_mac, EtherType::kArp};
  p.arp = ArpMessage{opcode, sender_mac, sender_ip, target_mac, target_ip};
  return serialize_packet(p, {});
}

// Ethernet + IP scaffolds for the builders; the caller adds the L4 header
// and serialize_packet derives every length and checksum.
ParsedPacket ipv4_stack(MacAddress eth_src, MacAddress eth_dst,
                        Ipv4Address src, Ipv4Address dst,
                        std::uint8_t protocol, std::uint8_t dscp) {
  ParsedPacket p;
  p.eth = {eth_dst, eth_src, EtherType::kIpv4};
  Ipv4Header& ip = p.ipv4.emplace();
  ip.dscp = dscp;
  ip.protocol = protocol;
  ip.src = src;
  ip.dst = dst;
  return p;
}

ParsedPacket ipv6_stack(MacAddress eth_src, MacAddress eth_dst,
                        const Ipv6Address& src, const Ipv6Address& dst,
                        std::uint8_t next_header) {
  ParsedPacket p;
  p.eth = {eth_dst, eth_src, EtherType::kIpv6};
  p.ipv6 = Ipv6Header{.next_header = next_header, .src = src, .dst = dst};
  return p;
}

TcpHeader tcp_header(const TcpSpec& tcp) {
  return TcpHeader{.src_port = tcp.src_port,
                   .dst_port = tcp.dst_port,
                   .seq = tcp.seq,
                   .ack = tcp.ack,
                   .flags = tcp.flags};
}

}  // namespace

Bytes build_arp_request(MacAddress sender_mac, Ipv4Address sender_ip,
                        Ipv4Address target_ip) {
  return build_arp(ArpMessage::kRequest, MacAddress::broadcast(), sender_mac,
                   sender_ip, MacAddress{}, target_ip);
}

Bytes build_arp_reply(MacAddress sender_mac, Ipv4Address sender_ip,
                      MacAddress target_mac, Ipv4Address target_ip) {
  return build_arp(ArpMessage::kReply, target_mac, sender_mac, sender_ip,
                   target_mac, target_ip);
}

Bytes build_ipv4_tcp(MacAddress eth_src, MacAddress eth_dst, Ipv4Address src,
                     Ipv4Address dst, const TcpSpec& tcp,
                     std::span<const std::uint8_t> payload, std::uint8_t dscp) {
  ParsedPacket p = ipv4_stack(eth_src, eth_dst, src, dst, IpProto::kTcp, dscp);
  p.tcp = tcp_header(tcp);
  return serialize_packet(p, payload);
}

Bytes build_ipv4_udp(MacAddress eth_src, MacAddress eth_dst, Ipv4Address src,
                     Ipv4Address dst, std::uint16_t src_port,
                     std::uint16_t dst_port,
                     std::span<const std::uint8_t> payload, std::uint8_t dscp) {
  ParsedPacket p = ipv4_stack(eth_src, eth_dst, src, dst, IpProto::kUdp, dscp);
  p.udp = UdpHeader{.src_port = src_port, .dst_port = dst_port};
  return serialize_packet(p, payload);
}

Bytes build_ipv4_icmp_echo(MacAddress eth_src, MacAddress eth_dst,
                           Ipv4Address src, Ipv4Address dst, bool request,
                           std::uint16_t identifier, std::uint16_t sequence) {
  ParsedPacket p = ipv4_stack(eth_src, eth_dst, src, dst, IpProto::kIcmp, 0);
  p.icmp = IcmpHeader{
      .type = request ? IcmpHeader::kEchoRequest : IcmpHeader::kEchoReply,
      .identifier = identifier,
      .sequence = sequence};
  return serialize_packet(p, {});
}

Bytes build_ipv6_udp(MacAddress eth_src, MacAddress eth_dst,
                     const Ipv6Address& src, const Ipv6Address& dst,
                     std::uint16_t src_port, std::uint16_t dst_port,
                     std::span<const std::uint8_t> payload) {
  ParsedPacket p = ipv6_stack(eth_src, eth_dst, src, dst, IpProto::kUdp);
  p.udp = UdpHeader{.src_port = src_port, .dst_port = dst_port};
  return serialize_packet(p, payload);
}

Bytes build_ipv6_tcp(MacAddress eth_src, MacAddress eth_dst,
                     const Ipv6Address& src, const Ipv6Address& dst,
                     const TcpSpec& tcp, std::span<const std::uint8_t> payload) {
  ParsedPacket p = ipv6_stack(eth_src, eth_dst, src, dst, IpProto::kTcp);
  p.tcp = tcp_header(tcp);
  return serialize_packet(p, payload);
}

Bytes build_discovery_frame(MacAddress src, std::uint64_t datapath_id,
                            std::uint32_t port_no) {
  // LLDP-style TLVs: type (7 bits) | length (9 bits), then value.
  Bytes out;
  util::ByteWriter w(out);
  // 01:80:c2:00:00:0e is the LLDP nearest-bridge multicast address.
  EthernetHeader eth{MacAddress({0x01, 0x80, 0xc2, 0x00, 0x00, 0x0e}), src,
                     EtherType::kLldp};
  eth.serialize(w);
  auto tlv_header = [&](std::uint8_t type, std::uint16_t len) {
    w.u16(static_cast<std::uint16_t>((std::uint16_t{type} << 9) | (len & 0x1ff)));
  };
  // Chassis ID TLV (type 1), subtype 7 (locally assigned): 8-byte dpid.
  tlv_header(1, 9);
  w.u8(7);
  w.u64(datapath_id);
  // Port ID TLV (type 2), subtype 7: 4-byte port number.
  tlv_header(2, 5);
  w.u8(7);
  w.u32(port_no);
  // TTL TLV (type 3).
  tlv_header(3, 2);
  w.u16(120);
  // End of LLDPDU.
  tlv_header(0, 0);
  return out;
}

std::optional<DiscoveryInfo> parse_discovery_frame(
    std::span<const std::uint8_t> frame) {
  util::ByteReader r(frame);
  const EthernetHeader eth = EthernetHeader::parse(r);
  if (!r.ok() || eth.ether_type != EtherType::kLldp) return std::nullopt;

  DiscoveryInfo info;
  bool have_chassis = false;
  bool have_port = false;
  while (r.ok() && r.remaining() >= 2) {
    const std::uint16_t header = r.u16();
    const std::uint8_t type = static_cast<std::uint8_t>(header >> 9);
    const std::uint16_t len = header & 0x1ff;
    if (type == 0) break;
    if (type == 1 && len == 9) {
      if (r.u8() != 7) return std::nullopt;
      info.datapath_id = r.u64();
      have_chassis = true;
    } else if (type == 2 && len == 5) {
      if (r.u8() != 7) return std::nullopt;
      info.port_no = r.u32();
      have_port = true;
    } else {
      r.skip(len);
    }
  }
  if (!r.ok() || !have_chassis || !have_port) return std::nullopt;
  return info;
}

}  // namespace zen::net
