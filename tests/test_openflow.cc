#include <gtest/gtest.h>

#include "net/headers.h"
#include "net/packet.h"
#include "openflow/wire.h"

namespace zen::openflow {
namespace {

using net::Ipv4Address;
using net::MacAddress;

// ---- Match ----

TEST(Match, FluentSettersAndMatches) {
  const Match m = Match()
                      .in_port(3)
                      .eth_type(net::EtherType::kIpv4)
                      .ipv4_dst(Ipv4Address(10, 0, 0, 0), 24)
                      .ip_proto(net::IpProto::kTcp)
                      .l4_dst(80);

  net::FlowKey key;
  key.in_port = 3;
  key.eth_type = net::EtherType::kIpv4;
  key.ipv4_dst = Ipv4Address(10, 0, 0, 77).value();
  key.ip_proto = net::IpProto::kTcp;
  key.l4_dst = 80;
  EXPECT_TRUE(m.matches(key));

  key.ipv4_dst = Ipv4Address(10, 0, 1, 77).value();  // outside /24
  EXPECT_FALSE(m.matches(key));
}

TEST(Match, EmptyMatchesEverything) {
  const Match wildcard;
  net::FlowKey key;
  key.in_port = 99;
  key.l4_dst = 443;
  EXPECT_TRUE(wildcard.matches(key));
  EXPECT_EQ(wildcard.field_count(), 0);
}

TEST(Match, PrefixMaskApplication) {
  const Match m = Match().ipv4_dst(Ipv4Address(10, 0, 0, 77), 24);
  // Value must be stored pre-masked.
  EXPECT_EQ(m.value().ipv4_dst, Ipv4Address(10, 0, 0, 0).value());
}

TEST(Match, SubsumedBy) {
  const Match broad = Match().eth_type(net::EtherType::kIpv4);
  const Match narrow = Match()
                           .eth_type(net::EtherType::kIpv4)
                           .ipv4_dst(Ipv4Address(10, 0, 0, 1), 32);
  EXPECT_TRUE(narrow.subsumed_by(broad));
  EXPECT_FALSE(broad.subsumed_by(narrow));
  EXPECT_TRUE(narrow.subsumed_by(narrow));
  EXPECT_TRUE(broad.subsumed_by(Match()));  // everything under wildcard
}

TEST(Match, SubsumedByPrefixHierarchy) {
  const Match slash16 = Match().ipv4_dst(Ipv4Address(10, 1, 0, 0), 16);
  const Match slash24 = Match().ipv4_dst(Ipv4Address(10, 1, 2, 0), 24);
  const Match other24 = Match().ipv4_dst(Ipv4Address(10, 2, 2, 0), 24);
  EXPECT_TRUE(slash24.subsumed_by(slash16));
  EXPECT_FALSE(slash16.subsumed_by(slash24));
  EXPECT_FALSE(other24.subsumed_by(slash16));
}

TEST(Match, Merge) {
  Match base = Match().eth_type(net::EtherType::kIpv4).ipv4_dst(
      Ipv4Address(10, 0, 0, 1), 32);
  const Match extra = Match().l4_dst(80).ip_proto(net::IpProto::kTcp);
  base.merge(extra);
  EXPECT_EQ(base.field_count(), 4);
  EXPECT_EQ(base.value().l4_dst, 80);
  EXPECT_EQ(base.value().ip_proto, net::IpProto::kTcp);
}

TEST(Match, EncodeDecodeRoundtrip) {
  const Match m = Match()
                      .in_port(7)
                      .eth_src(MacAddress::from_u64(0xa1b2c3d4e5f6))
                      .eth_type(net::EtherType::kIpv4)
                      .vlan_vid(100)
                      .ipv4_src(Ipv4Address(172, 16, 0, 0), 12)
                      .ipv4_dst(Ipv4Address(10, 0, 0, 5), 32)
                      .ip_proto(net::IpProto::kUdp)
                      .l4_src(53)
                      .l4_dst(5353);
  std::vector<std::uint8_t> buf;
  util::ByteWriter w(buf);
  m.encode(w);
  util::ByteReader r(buf);
  auto decoded = Match::decode(r);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value(), m);
}

TEST(Match, DecodeRejectsTruncation) {
  const Match m = Match().ipv4_dst(Ipv4Address(10, 0, 0, 5), 24);
  std::vector<std::uint8_t> buf;
  util::ByteWriter w(buf);
  m.encode(w);
  for (std::size_t len = 0; len + 1 < buf.size(); ++len) {
    util::ByteReader r(std::span(buf.data(), len));
    auto decoded = Match::decode(r);
    EXPECT_TRUE(!decoded.ok() || !r.ok());
  }
}

TEST(Match, ToStringMentionsFields) {
  const Match m = Match().ipv4_dst(Ipv4Address(10, 0, 0, 5), 32).l4_dst(80);
  const std::string s = m.to_string();
  EXPECT_NE(s.find("ipv4_dst=10.0.0.5/32"), std::string::npos);
  EXPECT_NE(s.find("l4_dst=80"), std::string::npos);
}

// ---- Actions & instructions ----

TEST(Actions, RoundtripEveryKind) {
  const ActionList actions = {
      OutputAction{42, 128},
      GroupAction{7},
      SetQueueAction{3},
      PushVlanAction{100, 5},
      PopVlanAction{},
      SetEthSrcAction{MacAddress::from_u64(0x111111111111)},
      SetEthDstAction{MacAddress::from_u64(0x222222222222)},
      SetIpv4SrcAction{Ipv4Address(1, 2, 3, 4)},
      SetIpv4DstAction{Ipv4Address(5, 6, 7, 8)},
      SetL4SrcAction{1024},
      SetL4DstAction{2048},
      SetIpDscpAction{46},
      DecTtlAction{},
  };
  std::vector<std::uint8_t> buf;
  util::ByteWriter w(buf);
  encode_actions(actions, w);
  util::ByteReader r(buf);
  auto decoded = decode_actions(r);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value(), actions);
}

TEST(Instructions, RoundtripEveryKind) {
  const InstructionList instructions = {
      ApplyActions{{OutputAction{1, 0xffff}}},
      WriteActions{{SetIpDscpAction{10}, OutputAction{2, 0xffff}}},
      ClearActions{},
      GotoTable{3},
      MeterInstruction{77},
  };
  std::vector<std::uint8_t> buf;
  util::ByteWriter w(buf);
  encode_instructions(instructions, w);
  util::ByteReader r(buf);
  auto decoded = decode_instructions(r);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value(), instructions);
}

TEST(Instructions, OutputToHelper) {
  const InstructionList ins = output_to(9);
  ASSERT_EQ(ins.size(), 1u);
  const auto* apply = std::get_if<ApplyActions>(&ins[0]);
  ASSERT_NE(apply, nullptr);
  ASSERT_EQ(apply->actions.size(), 1u);
  EXPECT_EQ(std::get<OutputAction>(apply->actions[0]).port, 9u);
}

// ---- message codec ----

template <typename T>
void expect_roundtrip(const T& msg, Xid xid = 0x12345678) {
  const Bytes wire = encode_frame(Message{msg}, xid);
  auto decoded = decode(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value().xid, xid);
  const T* out = std::get_if<T>(&decoded.value().msg);
  ASSERT_NE(out, nullptr) << "wrong alternative decoded";
  EXPECT_EQ(*out, msg);
}

TEST(Codec, HelloRoundtrip) { expect_roundtrip(Hello{}); }

TEST(Codec, ErrorRoundtrip) {
  ErrorMsg m;
  m.type = ErrorType::FlowModFailed;
  m.code = 3;
  m.data = {1, 2, 3};
  expect_roundtrip(m);
}

TEST(Codec, EchoRoundtrip) {
  expect_roundtrip(EchoRequest{{9, 9, 9}});
  expect_roundtrip(EchoReply{{}});
  expect_roundtrip(EchoReply{{1, 2}, /*boot_id=*/7});
}

TEST(Codec, FeaturesRoundtrip) {
  expect_roundtrip(FeaturesRequest{});
  FeaturesReply m;
  m.datapath_id = 0x1122334455667788ULL;
  m.n_buffers = 512;
  m.n_tables = 8;
  m.boot_id = 3;
  PortDesc port;
  port.port_no = 4;
  port.hw_addr = MacAddress::from_u64(0xdead);
  port.name = "s1-p4";
  port.link_up = false;
  port.curr_speed_mbps = 40000;
  m.ports = {port};
  expect_roundtrip(m);
}

TEST(Codec, FlowModRoundtrip) {
  FlowMod m;
  m.cookie = 0xc00c1e;
  m.table_id = 2;
  m.command = FlowModCommand::ModifyStrict;
  m.idle_timeout = 30;
  m.hard_timeout = 300;
  m.priority = 1000;
  m.buffer_id = 77;
  m.out_port = 3;
  m.flags = kFlagSendFlowRemoved;
  m.match = Match().eth_type(net::EtherType::kIpv4).ipv4_dst(
      Ipv4Address(10, 0, 0, 1), 32);
  m.instructions = {ApplyActions{{DecTtlAction{}, OutputAction{3, 0xffff}}},
                    GotoTable{3}};
  expect_roundtrip(m);
}

TEST(Codec, PacketInRoundtrip) {
  PacketIn m;
  m.buffer_id = 42;
  m.reason = PacketInReason::Action;
  m.table_id = 1;
  m.cookie = 0xfeed;
  m.in_port = 6;
  m.total_len = 1500;
  m.data = {0xde, 0xad, 0xbe, 0xef};
  expect_roundtrip(m);
}

TEST(Codec, PacketOutRoundtrip) {
  PacketOut m;
  m.buffer_id = kNoBuffer;
  m.in_port = Ports::kController;
  m.actions = {OutputAction{Ports::kFlood, 0xffff}};
  m.data = {1, 2, 3, 4, 5};
  expect_roundtrip(m);
}

TEST(Codec, FlowRemovedRoundtrip) {
  FlowRemoved m;
  m.cookie = 5;
  m.priority = 10;
  m.reason = FlowRemovedReason::HardTimeout;
  m.table_id = 0;
  m.packet_count = 1000;
  m.byte_count = 64000;
  m.match = Match().eth_dst(MacAddress::from_u64(0xabc));
  expect_roundtrip(m);
}

TEST(Codec, PortStatusRoundtrip) {
  PortStatus m;
  m.reason = PortReason::Delete;
  m.desc.port_no = 9;
  m.desc.name = "gone";
  m.desc.link_up = false;
  expect_roundtrip(m);
}

TEST(Codec, GroupModRoundtrip) {
  GroupMod m;
  m.command = GroupModCommand::Modify;
  m.type = GroupType::Select;
  m.group_id = 11;
  m.buckets = {Bucket{3, 7, {OutputAction{1, 0xffff}}},
               Bucket{1, Ports::kAny, {OutputAction{2, 0xffff}}}};
  expect_roundtrip(m);
}

TEST(Codec, MeterModRoundtrip) {
  MeterMod m;
  m.command = MeterModCommand::Add;
  m.meter_id = 5;
  m.rate_kbps = 10000;
  m.burst_kbits = 500;
  expect_roundtrip(m);
}

TEST(Codec, BarrierRoundtrip) {
  expect_roundtrip(BarrierRequest{});
  expect_roundtrip(BarrierReply{});
  expect_roundtrip(BarrierReply{{10, 12, 700}});
}

TEST(Codec, StatsRoundtrips) {
  FlowStatsRequest fsr;
  fsr.table_id = 1;
  fsr.match = Match().ip_proto(net::IpProto::kTcp);
  expect_roundtrip(fsr);

  FlowStatsReply fsp;
  FlowStatsEntry e;
  e.table_id = 1;
  e.priority = 5;
  e.cookie = 0xdead;
  e.packet_count = 99;
  e.byte_count = 12345;
  e.duration_sec = 60;
  e.match = Match().l4_dst(443);
  e.instructions = output_to(2);
  fsp.entries = {e};
  expect_roundtrip(fsp);

  expect_roundtrip(PortStatsRequest{3});
  PortStatsReply psp;
  PortStatsEntry pe;
  pe.port_no = 1;
  pe.rx_packets = 10;
  pe.tx_bytes = 5000;
  pe.rx_dropped = 2;
  psp.entries = {pe};
  expect_roundtrip(psp);

  expect_roundtrip(TableStatsRequest{});
  TableStatsReply tsp;
  tsp.entries = {TableStatsEntry{0, 10, 100, 90}};
  expect_roundtrip(tsp);
}

TEST(Codec, RejectsBadVersion) {
  Bytes wire = encode_frame(Message{Hello{}}, 1);
  wire[0] = 0x01;
  EXPECT_FALSE(decode(wire).ok());
}

TEST(Codec, RejectsLengthMismatch) {
  Bytes wire = encode_frame(Message{Hello{}}, 1);
  wire.push_back(0);
  EXPECT_FALSE(decode(wire).ok());
}

}  // namespace
}  // namespace zen::openflow

namespace zen::openflow {
namespace {

TEST(MatchV6, Ipv6PrefixMatching) {
  const auto net48 = *net::Ipv6Address::parse("2001:db8:aa::");
  const Match m = Match().eth_type(net::EtherType::kIpv6).ipv6_dst(net48, 48);

  const net::Bytes inside = net::build_ipv6_udp(
      net::MacAddress::from_u64(1), net::MacAddress::from_u64(2),
      *net::Ipv6Address::parse("fe80::1"),
      *net::Ipv6Address::parse("2001:db8:aa:1::5"), 1, 2,
      std::vector<std::uint8_t>{});
  const net::Bytes outside = net::build_ipv6_udp(
      net::MacAddress::from_u64(1), net::MacAddress::from_u64(2),
      *net::Ipv6Address::parse("fe80::1"),
      *net::Ipv6Address::parse("2001:db8:bb::5"), 1, 2,
      std::vector<std::uint8_t>{});
  EXPECT_TRUE(
      m.matches(net::parse_packet(inside).value().flow_key(1)));
  EXPECT_FALSE(
      m.matches(net::parse_packet(outside).value().flow_key(1)));
}

TEST(MatchV6, Ipv6PrefixCrossing64BitBoundary) {
  const auto addr = *net::Ipv6Address::parse("2001:db8::ff00:0:0:1");
  // /96 constrains 32 bits of the low half.
  const Match m = Match().ipv6_src(addr, 96);
  EXPECT_EQ(m.field_count(), 1);

  net::FlowKey key;
  std::tie(key.ipv6_src_hi, key.ipv6_src_lo) = net::FlowKey::split_ipv6(addr);
  EXPECT_TRUE(m.matches(key));
  key.ipv6_src_lo ^= 0x1;  // inside the /96 host bits
  EXPECT_TRUE(m.matches(key));
  key.ipv6_src_lo ^= (std::uint64_t{1} << 63);  // outside
  EXPECT_FALSE(m.matches(key));
}

TEST(MatchV6, EncodeDecodeRoundtripWithIpv6) {
  const Match m = Match()
                      .eth_type(net::EtherType::kIpv6)
                      .ipv6_src(*net::Ipv6Address::parse("2001:db8::1"), 128)
                      .ipv6_dst(*net::Ipv6Address::parse("2001:db8::"), 32)
                      .ip_proto(net::IpProto::kTcp)
                      .l4_dst(443);
  std::vector<std::uint8_t> buf;
  util::ByteWriter w(buf);
  m.encode(w);
  util::ByteReader r(buf);
  auto decoded = Match::decode(r);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value(), m);
}

TEST(MatchV6, SubsumedByPrefixHierarchy) {
  const auto base = *net::Ipv6Address::parse("2001:db8::");
  const auto narrow_addr = *net::Ipv6Address::parse("2001:db8::5");
  const Match broad = Match().ipv6_dst(base, 32);
  const Match narrow = Match().ipv6_dst(narrow_addr, 128);
  EXPECT_TRUE(narrow.subsumed_by(broad));
  EXPECT_FALSE(broad.subsumed_by(narrow));
}

}  // namespace
}  // namespace zen::openflow
