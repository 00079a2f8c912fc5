#include "dataplane/packet_rewrite.h"

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
  return modified_ ? net::serialized_size(parsed_, payload_.size())
                   : frame_.size();
}

net::Bytes MutablePacket::serialize() const {
  if (!modified_) return net::Bytes(frame_.begin(), frame_.end());
  return net::serialize_packet(parsed_, payload_);
}

}  // namespace zen::dataplane
