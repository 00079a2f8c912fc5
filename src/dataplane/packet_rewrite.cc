#include "dataplane/packet_rewrite.h"

#include "net/checksum.h"
#include "util/buffer.h"

namespace zen::dataplane {

MutablePacket::MutablePacket(std::span<const std::uint8_t> frame)
    : frame_(frame) {
  auto parsed = net::parse_packet(frame);
  if (!parsed.ok()) return;
  parsed_ = std::move(parsed).value();
  payload_ = frame.subspan(parsed_.payload_offset);
  ok_ = true;
}

bool MutablePacket::apply(const openflow::Action& action) {
  using namespace openflow;
  return std::visit(
      [&](const auto& a) -> bool {
        using T = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<T, SetEthSrcAction>) {
          parsed_.eth.src = a.mac;
          modified_ = true;
          return true;
        } else if constexpr (std::is_same_v<T, SetEthDstAction>) {
          parsed_.eth.dst = a.mac;
          modified_ = true;
          return true;
        } else if constexpr (std::is_same_v<T, SetIpv4SrcAction>) {
          if (!parsed_.ipv4) return false;
          parsed_.ipv4->src = a.addr;
          modified_ = true;
          return true;
        } else if constexpr (std::is_same_v<T, SetIpv4DstAction>) {
          if (!parsed_.ipv4) return false;
          parsed_.ipv4->dst = a.addr;
          modified_ = true;
          return true;
        } else if constexpr (std::is_same_v<T, SetL4SrcAction>) {
          if (parsed_.tcp) parsed_.tcp->src_port = a.port;
          else if (parsed_.udp) parsed_.udp->src_port = a.port;
          else return false;
          modified_ = true;
          return true;
        } else if constexpr (std::is_same_v<T, SetL4DstAction>) {
          if (parsed_.tcp) parsed_.tcp->dst_port = a.port;
          else if (parsed_.udp) parsed_.udp->dst_port = a.port;
          else return false;
          modified_ = true;
          return true;
        } else if constexpr (std::is_same_v<T, SetIpDscpAction>) {
          if (parsed_.ipv4) parsed_.ipv4->dscp = a.dscp;
          else if (parsed_.ipv6)
            parsed_.ipv6->traffic_class =
                static_cast<std::uint8_t>((a.dscp << 2) |
                                          (parsed_.ipv6->traffic_class & 0x3));
          else return false;
          modified_ = true;
          return true;
        } else if constexpr (std::is_same_v<T, PushVlanAction>) {
          if (parsed_.vlan) return false;  // single tag only
          net::VlanTag tag;
          tag.vid = a.vid;
          tag.pcp = a.pcp;
          tag.ether_type = parsed_.eth.ether_type;
          parsed_.vlan = tag;
          parsed_.eth.ether_type = net::EtherType::kVlan;
          modified_ = true;
          return true;
        } else if constexpr (std::is_same_v<T, PopVlanAction>) {
          if (!parsed_.vlan) return false;
          parsed_.eth.ether_type = parsed_.vlan->ether_type;
          parsed_.vlan.reset();
          modified_ = true;
          return true;
        } else if constexpr (std::is_same_v<T, DecTtlAction>) {
          if (parsed_.ipv4) {
            if (parsed_.ipv4->ttl <= 1) return false;
            --parsed_.ipv4->ttl;
          } else if (parsed_.ipv6) {
            if (parsed_.ipv6->hop_limit <= 1) return false;
            --parsed_.ipv6->hop_limit;
          } else {
            return false;
          }
          modified_ = true;
          return true;
        } else {
          // Output / Group / SetQueue: handled by the pipeline, not here.
          return true;
        }
      },
      action);
}

std::size_t MutablePacket::wire_size() const noexcept {
  if (!modified_) return frame_.size();
  std::size_t n = net::EthernetHeader::kSize;
  if (parsed_.vlan) n += net::VlanTag::kSize;
  if (parsed_.arp) n += net::ArpMessage::kSize;
  if (parsed_.ipv4) n += net::Ipv4Header::kMinSize;
  if (parsed_.ipv6) n += net::Ipv6Header::kSize;
  if (parsed_.tcp) n += net::TcpHeader::kMinSize;
  if (parsed_.udp) n += net::UdpHeader::kSize;
  if (parsed_.icmp) n += net::IcmpHeader::kSize;
  return n + payload_.size();
}

net::Bytes MutablePacket::serialize() const {
  if (!modified_) return net::Bytes(frame_.begin(), frame_.end());

  net::Bytes out;
  out.reserve(wire_size());
  util::ByteWriter w(out);
  parsed_.eth.serialize(w);
  if (parsed_.vlan) parsed_.vlan->serialize(w);
  if (parsed_.arp) {
    parsed_.arp->serialize(w);
    w.bytes(payload_);
    return out;
  }
  if (parsed_.ipv4) {
    // Recompute total_length from current L4 + payload.
    net::Ipv4Header ip = *parsed_.ipv4;
    std::size_t l4 = 0;
    if (parsed_.tcp) l4 = net::TcpHeader::kMinSize;
    else if (parsed_.udp) l4 = net::UdpHeader::kSize;
    else if (parsed_.icmp) l4 = net::IcmpHeader::kSize;
    ip.total_length = static_cast<std::uint16_t>(net::Ipv4Header::kMinSize + l4 +
                                                 payload_.size());
    ip.serialize(w);  // serializes with fresh header checksum

    // L4 segment with pseudo-header checksum.
    net::Bytes segment;
    util::ByteWriter sw(segment);
    std::size_t checksum_offset = SIZE_MAX;
    if (parsed_.tcp) {
      net::TcpHeader t = *parsed_.tcp;
      t.checksum = 0;
      t.serialize(sw);
      checksum_offset = 16;
    } else if (parsed_.udp) {
      net::UdpHeader u = *parsed_.udp;
      u.checksum = 0;
      u.length = static_cast<std::uint16_t>(net::UdpHeader::kSize + payload_.size());
      u.serialize(sw);
      checksum_offset = 6;
    } else if (parsed_.icmp) {
      net::IcmpHeader ic = *parsed_.icmp;
      ic.checksum = 0;
      ic.serialize(sw);
      checksum_offset = 2;
    }
    sw.bytes(payload_);
    if (checksum_offset != SIZE_MAX) {
      const std::uint16_t sum =
          parsed_.icmp
              ? net::internet_checksum(segment)
              : net::l4_checksum_ipv4(ip.src, ip.dst, ip.protocol, segment);
      sw.patch_u16(checksum_offset, sum);
    }
    w.bytes(segment);
    return out;
  }
  if (parsed_.ipv6) {
    net::Ipv6Header ip6 = *parsed_.ipv6;
    std::size_t l4 = 0;
    if (parsed_.tcp) l4 = net::TcpHeader::kMinSize;
    else if (parsed_.udp) l4 = net::UdpHeader::kSize;
    ip6.payload_length = static_cast<std::uint16_t>(l4 + payload_.size());
    ip6.serialize(w);
    if (parsed_.tcp) parsed_.tcp->serialize(w);
    else if (parsed_.udp) parsed_.udp->serialize(w);
    w.bytes(payload_);
    return out;
  }
  w.bytes(payload_);
  return out;
}

}  // namespace zen::dataplane
