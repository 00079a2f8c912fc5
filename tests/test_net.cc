#include <gtest/gtest.h>

#include "net/addr.h"
#include "net/checksum.h"
#include "net/flow_key.h"
#include "net/headers.h"
#include "net/packet.h"
#include "util/rng.h"

namespace zen::net {
namespace {

// ---- addresses ----

TEST(MacAddress, ParseFormatRoundtrip) {
  const auto mac = MacAddress::parse("aa:bb:cc:00:11:ff");
  ASSERT_TRUE(mac);
  EXPECT_EQ(mac->to_string(), "aa:bb:cc:00:11:ff");
  EXPECT_EQ(mac->to_u64(), 0xaabbcc0011ffULL);
}

TEST(MacAddress, ParseRejectsGarbage) {
  EXPECT_FALSE(MacAddress::parse(""));
  EXPECT_FALSE(MacAddress::parse("aa:bb:cc:00:11"));
  EXPECT_FALSE(MacAddress::parse("aa:bb:cc:00:11:ff:22"));
  EXPECT_FALSE(MacAddress::parse("zz:bb:cc:00:11:ff"));
  EXPECT_FALSE(MacAddress::parse("aaa:bb:cc:00:11:ff"));
}

TEST(MacAddress, BroadcastAndMulticast) {
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
  EXPECT_TRUE(MacAddress::broadcast().is_multicast());
  EXPECT_TRUE(MacAddress({0x01, 0, 0, 0, 0, 1}).is_multicast());
  EXPECT_FALSE(MacAddress({0x02, 0, 0, 0, 0, 1}).is_multicast());
}

TEST(MacAddress, FromU64Roundtrip) {
  const auto mac = MacAddress::from_u64(0x0123456789abULL);
  EXPECT_EQ(mac.to_u64(), 0x0123456789abULL);
}

TEST(Ipv4Address, ParseFormatRoundtrip) {
  const auto addr = Ipv4Address::parse("10.1.2.254");
  ASSERT_TRUE(addr);
  EXPECT_EQ(addr->to_string(), "10.1.2.254");
  EXPECT_EQ(addr->value(), 0x0a0102feu);
}

TEST(Ipv4Address, ParseRejectsGarbage) {
  EXPECT_FALSE(Ipv4Address::parse("10.1.2"));
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.256"));
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.3.4"));
  EXPECT_FALSE(Ipv4Address::parse("a.b.c.d"));
}

TEST(Ipv4Address, Subnet) {
  const Ipv4Address net(10, 1, 0, 0);
  EXPECT_TRUE(Ipv4Address(10, 1, 200, 3).in_subnet(net, 16));
  EXPECT_FALSE(Ipv4Address(10, 2, 0, 3).in_subnet(net, 16));
  EXPECT_TRUE(Ipv4Address(192, 168, 1, 1).in_subnet(net, 0));
}

TEST(Ipv6Address, ParseCanonicalForms) {
  const auto a = Ipv6Address::parse("2001:db8::1");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->to_string(), "2001:db8::1");

  const auto b = Ipv6Address::parse("::");
  ASSERT_TRUE(b);
  EXPECT_EQ(b->to_string(), "::");

  const auto c = Ipv6Address::parse("::1");
  ASSERT_TRUE(c);
  EXPECT_EQ(c->to_string(), "::1");

  const auto d = Ipv6Address::parse("fe80::1:2:3:4");
  ASSERT_TRUE(d);
  EXPECT_EQ(d->to_string(), "fe80::1:2:3:4");

  const auto e = Ipv6Address::parse("1:2:3:4:5:6:7:8");
  ASSERT_TRUE(e);
  EXPECT_EQ(e->to_string(), "1:2:3:4:5:6:7:8");
}

TEST(Ipv6Address, ParseRejectsGarbage) {
  EXPECT_FALSE(Ipv6Address::parse("1:2:3"));
  EXPECT_FALSE(Ipv6Address::parse("1:2:3:4:5:6:7:8:9"));
  EXPECT_FALSE(Ipv6Address::parse("::1::2"));
  EXPECT_FALSE(Ipv6Address::parse("xyz::1"));
}

TEST(Ipv6Address, CompressesLongestZeroRun) {
  const auto a = Ipv6Address::parse("1:0:0:2:0:0:0:3");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->to_string(), "1:0:0:2::3");
}

// ---- checksum ----

TEST(Checksum, Rfc1071Example) {
  // Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
  const std::vector<std::uint8_t> data = {0x00, 0x01, 0xf2, 0x03,
                                          0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, OddLength) {
  const std::vector<std::uint8_t> data = {0x01, 0x02, 0x03};
  // 0x0102 + 0x0300 = 0x0402 -> ~ = 0xfbfd.
  EXPECT_EQ(internet_checksum(data), 0xfbfd);
}

TEST(Checksum, VerifiesToZero) {
  // Sum over data including its correct checksum folds to 0xffff -> ~0 == 0.
  std::vector<std::uint8_t> data = {0x45, 0x00, 0x00, 0x1c, 0x12, 0x34,
                                    0x00, 0x00, 0x40, 0x11, 0x00, 0x00,
                                    0x0a, 0x00, 0x00, 0x01, 0x0a, 0x00,
                                    0x00, 0x02};
  const std::uint16_t sum = internet_checksum(data);
  data[10] = static_cast<std::uint8_t>(sum >> 8);
  data[11] = static_cast<std::uint8_t>(sum);
  EXPECT_EQ(internet_checksum(data), 0);
}

// ---- header roundtrips ----

template <typename H>
H roundtrip(const H& header) {
  std::vector<std::uint8_t> buf;
  util::ByteWriter w(buf);
  header.serialize(w);
  util::ByteReader r(buf);
  H parsed = H::parse(r);
  EXPECT_TRUE(r.ok());
  return parsed;
}

TEST(Headers, EthernetRoundtrip) {
  EthernetHeader h{MacAddress::from_u64(0x112233445566),
                   MacAddress::from_u64(0xaabbccddeeff), EtherType::kIpv4};
  EXPECT_EQ(roundtrip(h), h);
}

TEST(Headers, VlanRoundtrip) {
  VlanTag t;
  t.pcp = 5;
  t.vid = 3001;
  t.ether_type = EtherType::kIpv4;
  EXPECT_EQ(roundtrip(t), t);
}

TEST(Headers, ArpRoundtrip) {
  ArpMessage m;
  m.opcode = ArpMessage::kReply;
  m.sender_mac = MacAddress::from_u64(0x020000000001);
  m.sender_ip = Ipv4Address(10, 0, 0, 1);
  m.target_mac = MacAddress::from_u64(0x020000000002);
  m.target_ip = Ipv4Address(10, 0, 0, 2);
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Headers, Ipv4Roundtrip) {
  Ipv4Header h;
  h.dscp = 46;
  h.ecn = 1;
  h.total_length = 1400;
  h.identification = 0x4242;
  h.dont_fragment = true;
  h.ttl = 17;
  h.protocol = IpProto::kUdp;
  h.src = Ipv4Address(192, 168, 1, 1);
  h.dst = Ipv4Address(10, 9, 8, 7);
  EXPECT_EQ(roundtrip(h), h);
}

TEST(Headers, Ipv4SerializedChecksumVerifies) {
  Ipv4Header h;
  h.total_length = 20;
  h.protocol = IpProto::kTcp;
  h.src = Ipv4Address(1, 2, 3, 4);
  h.dst = Ipv4Address(5, 6, 7, 8);
  std::vector<std::uint8_t> buf;
  util::ByteWriter w(buf);
  h.serialize(w);
  EXPECT_EQ(internet_checksum(buf), 0);  // valid checksum folds to zero
}

TEST(Headers, Ipv4RejectsBadVersion) {
  std::vector<std::uint8_t> buf(20, 0);
  buf[0] = 0x65;  // version 6, IHL 5
  util::ByteReader r(buf);
  Ipv4Header::parse(r);
  EXPECT_FALSE(r.ok());
}

TEST(Headers, Ipv6Roundtrip) {
  Ipv6Header h;
  h.traffic_class = 0xb8;
  h.flow_label = 0xabcde;
  h.payload_length = 512;
  h.next_header = IpProto::kTcp;
  h.hop_limit = 3;
  h.src = *Ipv6Address::parse("2001:db8::1");
  h.dst = *Ipv6Address::parse("2001:db8::2");
  EXPECT_EQ(roundtrip(h), h);
}

TEST(Headers, TcpRoundtrip) {
  TcpHeader h;
  h.src_port = 443;
  h.dst_port = 51000;
  h.seq = 0x12345678;
  h.ack = 0x9abcdef0;
  h.flags = TcpHeader::kSyn | TcpHeader::kAck;
  h.window = 8192;
  h.checksum = 0xbeef;
  EXPECT_EQ(roundtrip(h), h);
}

TEST(Headers, UdpRoundtrip) {
  UdpHeader h;
  h.src_port = 53;
  h.dst_port = 5353;
  h.length = 100;
  h.checksum = 0x1234;
  EXPECT_EQ(roundtrip(h), h);
}

TEST(Headers, IcmpRoundtrip) {
  IcmpHeader h;
  h.type = IcmpHeader::kEchoReply;
  h.identifier = 7;
  h.sequence = 9;
  EXPECT_EQ(roundtrip(h), h);
}

// ---- packet parse / build ----

TEST(Packet, BuildAndParseUdp) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4};
  const Bytes frame = build_ipv4_udp(
      MacAddress::from_u64(1), MacAddress::from_u64(2), Ipv4Address(10, 0, 0, 1),
      Ipv4Address(10, 0, 0, 2), 1111, 2222, payload);
  auto parsed = parse_packet(frame);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const auto& p = parsed.value();
  ASSERT_TRUE(p.ipv4);
  ASSERT_TRUE(p.udp);
  EXPECT_EQ(p.udp->src_port, 1111);
  EXPECT_EQ(p.udp->dst_port, 2222);
  EXPECT_EQ(p.ipv4->protocol, IpProto::kUdp);
  EXPECT_EQ(frame.size() - p.payload_offset, payload.size());
  EXPECT_EQ(frame[p.payload_offset], 1);
}

TEST(Packet, BuildAndParseTcpWithChecksum) {
  TcpSpec spec;
  spec.src_port = 80;
  spec.dst_port = 12345;
  spec.flags = TcpHeader::kSyn;
  const std::vector<std::uint8_t> payload = {42};
  const Bytes frame = build_ipv4_tcp(
      MacAddress::from_u64(1), MacAddress::from_u64(2), Ipv4Address(10, 0, 0, 1),
      Ipv4Address(10, 0, 0, 2), spec, payload);
  auto parsed = parse_packet(frame);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.value().tcp);

  // Verify the TCP checksum over the pseudo-header.
  const auto& p = parsed.value();
  const std::size_t tcp_offset = EthernetHeader::kSize + Ipv4Header::kMinSize;
  std::span<const std::uint8_t> segment{frame.data() + tcp_offset,
                                        frame.size() - tcp_offset};
  EXPECT_EQ(l4_checksum_ipv4(p.ipv4->src, p.ipv4->dst, IpProto::kTcp, segment), 0);
}

TEST(Packet, ArpRequestReply) {
  const Bytes req = build_arp_request(MacAddress::from_u64(0xa),
                                      Ipv4Address(10, 0, 0, 1),
                                      Ipv4Address(10, 0, 0, 2));
  auto parsed = parse_packet(req);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.value().arp);
  EXPECT_EQ(parsed.value().arp->opcode, ArpMessage::kRequest);
  EXPECT_TRUE(parsed.value().eth.dst.is_broadcast());

  const Bytes reply =
      build_arp_reply(MacAddress::from_u64(0xb), Ipv4Address(10, 0, 0, 2),
                      MacAddress::from_u64(0xa), Ipv4Address(10, 0, 0, 1));
  auto parsed_reply = parse_packet(reply);
  ASSERT_TRUE(parsed_reply.ok());
  EXPECT_EQ(parsed_reply.value().arp->opcode, ArpMessage::kReply);
  EXPECT_EQ(parsed_reply.value().eth.dst, MacAddress::from_u64(0xa));
}

TEST(Packet, IcmpEcho) {
  const Bytes frame = build_ipv4_icmp_echo(
      MacAddress::from_u64(1), MacAddress::from_u64(2), Ipv4Address(10, 0, 0, 1),
      Ipv4Address(10, 0, 0, 2), true, 77, 3);
  auto parsed = parse_packet(frame);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.value().icmp);
  EXPECT_EQ(parsed.value().icmp->type, IcmpHeader::kEchoRequest);
  EXPECT_EQ(parsed.value().icmp->identifier, 77);

  // ICMPv4 checksums the message alone, with no pseudo-header (RFC 792).
  const std::size_t icmp_offset = EthernetHeader::kSize + Ipv4Header::kMinSize;
  EXPECT_EQ(internet_checksum(std::span(frame).subspan(icmp_offset)), 0);
}

TEST(Packet, TruncatedFramesRejected) {
  const Bytes frame = build_ipv4_udp(
      MacAddress::from_u64(1), MacAddress::from_u64(2), Ipv4Address(10, 0, 0, 1),
      Ipv4Address(10, 0, 0, 2), 1, 2, std::vector<std::uint8_t>{});
  // Any truncation inside a declared header must fail.
  for (const std::size_t len : std::vector<std::size_t>{0, 5, 13, 20, 30, 40}) {
    if (len >= frame.size()) continue;
    auto parsed = parse_packet(std::span(frame.data(), len));
    EXPECT_FALSE(parsed.ok()) << "accepted truncated frame of " << len;
  }
}

TEST(Packet, UnknownEtherTypePassesWithEmptyLayers) {
  Bytes frame;
  util::ByteWriter w(frame);
  EthernetHeader eth{MacAddress::from_u64(1), MacAddress::from_u64(2), 0x9999};
  eth.serialize(w);
  w.u32(0xdeadbeef);
  auto parsed = parse_packet(frame);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().ipv4);
  EXPECT_FALSE(parsed.value().arp);
  EXPECT_EQ(parsed.value().payload_offset, EthernetHeader::kSize);
}

TEST(Packet, DiscoveryFrameRoundtrip) {
  const Bytes frame =
      build_discovery_frame(MacAddress::from_u64(5), 0xdeadbeefcafe, 42);
  const auto info = parse_discovery_frame(frame);
  ASSERT_TRUE(info);
  EXPECT_EQ(info->datapath_id, 0xdeadbeefcafeULL);
  EXPECT_EQ(info->port_no, 42u);
}

TEST(Packet, DiscoveryParserIgnoresOtherFrames) {
  const Bytes frame = build_arp_request(MacAddress::from_u64(1),
                                        Ipv4Address(1, 1, 1, 1),
                                        Ipv4Address(2, 2, 2, 2));
  EXPECT_FALSE(parse_discovery_frame(frame));
}

// ---- flow keys ----

TEST(FlowKey, ExtractedFromUdpPacket) {
  const Bytes frame = build_ipv4_udp(
      MacAddress::from_u64(0xa), MacAddress::from_u64(0xb),
      Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), 100, 200,
      std::vector<std::uint8_t>{}, /*dscp=*/10);
  auto parsed = parse_packet(frame);
  ASSERT_TRUE(parsed.ok());
  const FlowKey key = parsed.value().flow_key(7);
  EXPECT_EQ(key.in_port, 7u);
  EXPECT_EQ(key.eth_src, 0xaULL);
  EXPECT_EQ(key.eth_dst, 0xbULL);
  EXPECT_EQ(key.eth_type, EtherType::kIpv4);
  EXPECT_EQ(key.ipv4_src, Ipv4Address(10, 0, 0, 1).value());
  EXPECT_EQ(key.ip_proto, IpProto::kUdp);
  EXPECT_EQ(key.ip_dscp, 10);
  EXPECT_EQ(key.l4_src, 100);
  EXPECT_EQ(key.l4_dst, 200);
}

TEST(FlowKey, MaskApplyProjects) {
  FlowKey key;
  key.in_port = 3;
  key.ipv4_dst = 0x0a000002;
  key.l4_dst = 80;

  FlowMask mask;
  mask.ipv4_dst = 0xffffff00;
  const FlowKey projected = mask.apply(key);
  EXPECT_EQ(projected.in_port, 0u);
  EXPECT_EQ(projected.ipv4_dst, 0x0a000000u);
  EXPECT_EQ(projected.l4_dst, 0u);
}

TEST(FlowKey, HashDiffersAcrossFields) {
  FlowKey a, b;
  a.l4_dst = 80;
  b.l4_dst = 81;
  EXPECT_NE(a.hash(), b.hash());
  FlowKey c = a;
  EXPECT_EQ(a.hash(), c.hash());
}

TEST(FlowKey, ExactMaskIsIdentity) {
  util::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    FlowKey key;
    key.in_port = static_cast<std::uint32_t>(rng.next_u64());
    key.eth_src = rng.next_u64() & 0xffffffffffffULL;
    key.eth_dst = rng.next_u64() & 0xffffffffffffULL;
    key.eth_type = static_cast<std::uint16_t>(rng.next_u64());
    key.ipv4_src = static_cast<std::uint32_t>(rng.next_u64());
    key.ipv4_dst = static_cast<std::uint32_t>(rng.next_u64());
    key.ip_proto = static_cast<std::uint8_t>(rng.next_u64());
    key.l4_src = static_cast<std::uint16_t>(rng.next_u64());
    key.l4_dst = static_cast<std::uint16_t>(rng.next_u64());
    EXPECT_EQ(FlowMask::exact().apply(key), key);
  }
}

}  // namespace
}  // namespace zen::net

namespace zen::net {
namespace {

TEST(PacketV6, BuildAndParseIpv6Udp) {
  const auto src = *Ipv6Address::parse("2001:db8::1");
  const auto dst = *Ipv6Address::parse("2001:db8::2");
  const std::vector<std::uint8_t> payload = {5, 6, 7};
  const Bytes frame = build_ipv6_udp(MacAddress::from_u64(1),
                                     MacAddress::from_u64(2), src, dst, 4000,
                                     5000, payload);
  auto parsed = parse_packet(frame);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const auto& p = parsed.value();
  ASSERT_TRUE(p.ipv6);
  ASSERT_TRUE(p.udp);
  EXPECT_EQ(p.ipv6->src, src);
  EXPECT_EQ(p.ipv6->dst, dst);
  EXPECT_EQ(p.udp->dst_port, 5000);
  EXPECT_EQ(frame.size() - p.payload_offset, payload.size());

  // The UDP checksum verifies over the IPv6 pseudo-header (RFC 8200 §8.1),
  // and matches an independently computed value.
  const std::size_t udp_offset = EthernetHeader::kSize + Ipv6Header::kSize;
  EXPECT_EQ(l4_checksum_ipv6(src, dst, IpProto::kUdp,
                             std::span(frame).subspan(udp_offset)),
            0);
  EXPECT_EQ(p.udp->checksum, 0x7535);
}

TEST(PacketV6, BuildAndParseIpv6Tcp) {
  const auto src = *Ipv6Address::parse("fe80::a");
  const auto dst = *Ipv6Address::parse("fe80::b");
  TcpSpec spec;
  spec.src_port = 443;
  spec.dst_port = 55555;
  spec.flags = TcpHeader::kSyn;
  const Bytes frame = build_ipv6_tcp(MacAddress::from_u64(1),
                                     MacAddress::from_u64(2), src, dst, spec,
                                     std::vector<std::uint8_t>(10, 0));
  auto parsed = parse_packet(frame);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.value().ipv6);
  ASSERT_TRUE(parsed.value().tcp);
  EXPECT_EQ(parsed.value().tcp->flags, TcpHeader::kSyn);

  // The TCP checksum verifies over the IPv6 pseudo-header, and matches an
  // independently computed value.
  const std::size_t tcp_offset = EthernetHeader::kSize + Ipv6Header::kSize;
  EXPECT_EQ(l4_checksum_ipv6(src, dst, IpProto::kTcp,
                             std::span(frame).subspan(tcp_offset)),
            0);
  EXPECT_EQ(parsed.value().tcp->checksum, 0xd803);
}

TEST(FlowKeyV6, ExtractsIpv6Addresses) {
  const auto src = *Ipv6Address::parse("2001:db8::1");
  const auto dst = *Ipv6Address::parse("2001:db8:ffff::2");
  const Bytes frame = build_ipv6_udp(MacAddress::from_u64(1),
                                     MacAddress::from_u64(2), src, dst, 1, 2,
                                     std::vector<std::uint8_t>{});
  auto parsed = parse_packet(frame);
  ASSERT_TRUE(parsed.ok());
  const FlowKey key = parsed.value().flow_key(1);
  const auto [src_hi, src_lo] = FlowKey::split_ipv6(src);
  const auto [dst_hi, dst_lo] = FlowKey::split_ipv6(dst);
  EXPECT_EQ(key.ipv6_src_hi, src_hi);
  EXPECT_EQ(key.ipv6_src_lo, src_lo);
  EXPECT_EQ(key.ipv6_dst_hi, dst_hi);
  EXPECT_EQ(key.ipv6_dst_lo, dst_lo);
  EXPECT_EQ(key.eth_type, EtherType::kIpv6);
  EXPECT_EQ(key.ip_proto, IpProto::kUdp);
}

}  // namespace
}  // namespace zen::net
