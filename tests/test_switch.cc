#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "dataplane/switch.h"
#include "net/checksum.h"
#include "net/headers.h"
#include "net/packet.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace zen::dataplane {
namespace {

// Under ZEN_OBS_DISABLED metric mutations are no-ops, so counter deltas
// scale by kObsEnabled.
#ifndef ZEN_OBS_DISABLED
constexpr bool kObsEnabled = true;
#else
constexpr bool kObsEnabled = false;
#endif

using net::Ipv4Address;
using net::MacAddress;
using openflow::Match;

constexpr MacAddress kSrcMac = MacAddress({0x02, 0, 0, 0, 0, 0xa});
constexpr MacAddress kDstMac = MacAddress({0x02, 0, 0, 0, 0, 0xb});
const Ipv4Address kSrcIp(10, 0, 0, 1);
const Ipv4Address kDstIp(10, 0, 0, 2);

Switch make_switch(int n_ports = 4, SwitchConfig config = {}) {
  Switch sw(1, config);
  for (int i = 1; i <= n_ports; ++i) {
    openflow::PortDesc port;
    port.port_no = static_cast<std::uint32_t>(i);
    port.hw_addr = MacAddress::from_u64(static_cast<std::uint64_t>(0x100 + i));
    port.name = std::string("p").append(std::to_string(i));
    sw.add_port(port);
  }
  return sw;
}

net::Bytes udp_frame(std::uint16_t dst_port = 2000) {
  return net::build_ipv4_udp(kSrcMac, kDstMac, kSrcIp, kDstIp, 1000, dst_port,
                             std::vector<std::uint8_t>{1, 2, 3});
}

void install_output_rule(Switch& sw, Match match, std::uint32_t out_port,
                         std::uint16_t priority = 10, std::uint8_t table = 0) {
  openflow::FlowMod mod;
  mod.table_id = table;
  mod.priority = priority;
  mod.match = std::move(match);
  mod.instructions = openflow::output_to(out_port);
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);
}

TEST(Switch, MissWithPacketInBehavior) {
  Switch sw = make_switch();
  const auto result = sw.ingress(0, 1, udp_frame());
  EXPECT_TRUE(result.outputs.empty());
  ASSERT_TRUE(result.packet_in.has_value());
  EXPECT_EQ(result.packet_in->reason, openflow::PacketInReason::NoMatch);
  EXPECT_EQ(result.packet_in->in_port, 1u);
}

TEST(Switch, MissWithDropBehavior) {
  SwitchConfig config;
  config.default_miss = MissBehavior::Drop;
  Switch sw = make_switch(4, config);
  const auto result = sw.ingress(0, 1, udp_frame());
  EXPECT_TRUE(result.dropped);
  EXPECT_FALSE(result.packet_in.has_value());
}

TEST(Switch, BasicUnicastForwarding) {
  Switch sw = make_switch();
  install_output_rule(sw, Match().eth_dst(kDstMac), 3);
  const auto result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].port, 3u);
  EXPECT_EQ(result.outputs[0].frame, udp_frame());
}

TEST(Switch, FloodExcludesIngress) {
  Switch sw = make_switch(4);
  install_output_rule(sw, Match(), openflow::Ports::kFlood, 1);
  const auto result = sw.ingress(0, 2, udp_frame());
  ASSERT_EQ(result.outputs.size(), 3u);
  for (const auto& egress : result.outputs) EXPECT_NE(egress.port, 2u);
}

TEST(Switch, AllIncludesIngress) {
  Switch sw = make_switch(4);
  install_output_rule(sw, Match(), openflow::Ports::kAll, 1);
  const auto result = sw.ingress(0, 2, udp_frame());
  EXPECT_EQ(result.outputs.size(), 4u);
}

TEST(Switch, FloodSkipsDownPorts) {
  Switch sw = make_switch(4);
  install_output_rule(sw, Match(), openflow::Ports::kFlood, 1);
  ASSERT_TRUE(sw.set_port_link(3, false).has_value());
  const auto result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 2u);
  for (const auto& egress : result.outputs) EXPECT_NE(egress.port, 3u);
}

TEST(Switch, IngressOnDownPortIsDropped) {
  Switch sw = make_switch();
  install_output_rule(sw, Match(), 2, 1);
  sw.set_port_link(1, false);
  const auto result = sw.ingress(0, 1, udp_frame());
  EXPECT_TRUE(result.dropped);
  EXPECT_TRUE(result.outputs.empty());
}

TEST(Switch, PriorityShadowing) {
  Switch sw = make_switch();
  install_output_rule(sw, Match().eth_type(net::EtherType::kIpv4), 2, 10);
  install_output_rule(sw, Match().eth_type(net::EtherType::kIpv4).l4_dst(2000),
                      3, 20);
  const auto result = sw.ingress(0, 1, udp_frame(2000));
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].port, 3u);

  const auto other = sw.ingress(0, 1, udp_frame(2001));
  ASSERT_EQ(other.outputs.size(), 1u);
  EXPECT_EQ(other.outputs[0].port, 2u);
}

TEST(Switch, MultiTableGotoPipeline) {
  Switch sw = make_switch();
  // Table 0: goto table 1 for IPv4.
  openflow::FlowMod t0;
  t0.table_id = 0;
  t0.priority = 10;
  t0.match.eth_type(net::EtherType::kIpv4);
  t0.instructions = {openflow::GotoTable{1}};
  ASSERT_TRUE(sw.flow_mod(t0, 0).ok);
  // Table 1: output 4.
  install_output_rule(sw, Match(), 4, 1, /*table=*/1);

  const auto result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].port, 4u);
}

TEST(Switch, WriteActionsExecuteAtPipelineEnd) {
  Switch sw = make_switch();
  openflow::FlowMod t0;
  t0.table_id = 0;
  t0.priority = 10;
  t0.match.eth_type(net::EtherType::kIpv4);
  t0.instructions = {openflow::WriteActions{{openflow::OutputAction{2, 0xffff}}},
                     openflow::GotoTable{1}};
  ASSERT_TRUE(sw.flow_mod(t0, 0).ok);
  // Table 1 rewrites the action set's output.
  openflow::FlowMod t1;
  t1.table_id = 1;
  t1.priority = 10;
  t1.instructions = {openflow::WriteActions{{openflow::OutputAction{3, 0xffff}}}};
  ASSERT_TRUE(sw.flow_mod(t1, 0).ok);

  const auto result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].port, 3u);  // later write replaced the earlier
}

TEST(Switch, ClearActionsDropsActionSet) {
  Switch sw = make_switch();
  openflow::FlowMod t0;
  t0.table_id = 0;
  t0.priority = 10;
  t0.instructions = {openflow::WriteActions{{openflow::OutputAction{2, 0xffff}}},
                     openflow::GotoTable{1}};
  ASSERT_TRUE(sw.flow_mod(t0, 0).ok);
  openflow::FlowMod t1;
  t1.table_id = 1;
  t1.priority = 10;
  t1.instructions = {openflow::ClearActions{}};
  ASSERT_TRUE(sw.flow_mod(t1, 0).ok);

  const auto result = sw.ingress(0, 1, udp_frame());
  EXPECT_TRUE(result.dropped);
}

TEST(Switch, RewriteActionsPreserveChecksums) {
  Switch sw = make_switch();
  openflow::FlowMod mod;
  mod.table_id = 0;
  mod.priority = 10;
  mod.match.eth_type(net::EtherType::kIpv4);
  mod.instructions = {openflow::ApplyActions{{
      openflow::SetIpv4DstAction{Ipv4Address(99, 98, 97, 96)},
      openflow::SetL4DstAction{4242},
      openflow::DecTtlAction{},
      openflow::OutputAction{2, 0xffff},
  }}};
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);

  const auto result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 1u);
  auto parsed = net::parse_packet(result.outputs[0].frame);
  ASSERT_TRUE(parsed.ok());
  const auto& p = parsed.value();
  ASSERT_TRUE(p.ipv4 && p.udp);
  EXPECT_EQ(p.ipv4->dst, Ipv4Address(99, 98, 97, 96));
  EXPECT_EQ(p.udp->dst_port, 4242);
  EXPECT_EQ(p.ipv4->ttl, 63);

  // IPv4 header checksum must re-verify.
  const auto& frame = result.outputs[0].frame;
  std::span<const std::uint8_t> ip_hdr{frame.data() + net::EthernetHeader::kSize,
                                       net::Ipv4Header::kMinSize};
  EXPECT_EQ(net::internet_checksum(ip_hdr), 0);
  // UDP checksum over pseudo-header must re-verify.
  std::span<const std::uint8_t> seg{
      frame.data() + net::EthernetHeader::kSize + net::Ipv4Header::kMinSize,
      frame.size() - net::EthernetHeader::kSize - net::Ipv4Header::kMinSize};
  EXPECT_EQ(net::l4_checksum_ipv4(p.ipv4->src, p.ipv4->dst, net::IpProto::kUdp, seg),
            0);
}

TEST(Switch, VlanPushPop) {
  Switch sw = make_switch();
  openflow::FlowMod push;
  push.table_id = 0;
  push.priority = 10;
  push.match.in_port(1);
  push.instructions = {openflow::ApplyActions{
      {openflow::PushVlanAction{100, 3}, openflow::OutputAction{2, 0xffff}}}};
  ASSERT_TRUE(sw.flow_mod(push, 0).ok);

  const auto result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 1u);
  auto parsed = net::parse_packet(result.outputs[0].frame);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.value().vlan);
  EXPECT_EQ(parsed.value().vlan->vid, 100);
  EXPECT_EQ(parsed.value().vlan->pcp, 3);
  ASSERT_TRUE(parsed.value().udp);  // L3/L4 intact under the tag

  // Now pop it on another port.
  openflow::FlowMod pop;
  pop.table_id = 0;
  pop.priority = 10;
  pop.match.in_port(2);
  pop.instructions = {openflow::ApplyActions{
      {openflow::PopVlanAction{}, openflow::OutputAction{3, 0xffff}}}};
  ASSERT_TRUE(sw.flow_mod(pop, 0).ok);
  const auto popped = sw.ingress(0, 2, result.outputs[0].frame);
  ASSERT_EQ(popped.outputs.size(), 1u);
  EXPECT_EQ(popped.outputs[0].frame, udp_frame());
}

TEST(Switch, TtlExpiryDrops) {
  Switch sw = make_switch();
  openflow::FlowMod mod;
  mod.table_id = 0;
  mod.priority = 10;
  mod.instructions = {openflow::ApplyActions{
      {openflow::DecTtlAction{}, openflow::OutputAction{2, 0xffff}}}};
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);

  // Build a TTL=1 packet by decrementing 63 times... instead craft directly.
  net::Bytes frame = udp_frame();
  frame[net::EthernetHeader::kSize + 8] = 1;  // TTL byte
  // Fix the IPv4 header checksum.
  frame[net::EthernetHeader::kSize + 10] = 0;
  frame[net::EthernetHeader::kSize + 11] = 0;
  const std::uint16_t sum = net::internet_checksum(
      {frame.data() + net::EthernetHeader::kSize, net::Ipv4Header::kMinSize});
  frame[net::EthernetHeader::kSize + 10] = static_cast<std::uint8_t>(sum >> 8);
  frame[net::EthernetHeader::kSize + 11] = static_cast<std::uint8_t>(sum);

  const auto result = sw.ingress(0, 1, frame);
  EXPECT_TRUE(result.dropped);
  EXPECT_TRUE(result.outputs.empty());
}

TEST(Switch, GroupAllReplicates) {
  Switch sw = make_switch();
  openflow::GroupMod gm;
  gm.command = openflow::GroupModCommand::Add;
  gm.type = openflow::GroupType::All;
  gm.group_id = 1;
  gm.buckets = {openflow::Bucket{1, openflow::Ports::kAny, {openflow::OutputAction{2, 0xffff}}},
                openflow::Bucket{1, openflow::Ports::kAny, {openflow::OutputAction{3, 0xffff}}}};
  ASSERT_TRUE(sw.group_mod(gm).ok);

  openflow::FlowMod mod;
  mod.table_id = 0;
  mod.priority = 10;
  mod.instructions = {openflow::ApplyActions{{openflow::GroupAction{1}}}};
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);

  const auto result = sw.ingress(0, 1, udp_frame());
  EXPECT_EQ(result.outputs.size(), 2u);
}

TEST(Switch, GroupSelectIsDeterministicPerFlow) {
  Switch sw = make_switch();
  openflow::GroupMod gm;
  gm.command = openflow::GroupModCommand::Add;
  gm.type = openflow::GroupType::Select;
  gm.group_id = 1;
  gm.buckets = {openflow::Bucket{1, openflow::Ports::kAny, {openflow::OutputAction{2, 0xffff}}},
                openflow::Bucket{1, openflow::Ports::kAny, {openflow::OutputAction{3, 0xffff}}}};
  ASSERT_TRUE(sw.group_mod(gm).ok);
  openflow::FlowMod mod;
  mod.table_id = 0;
  mod.priority = 10;
  mod.instructions = {openflow::ApplyActions{{openflow::GroupAction{1}}}};
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);

  // Same flow always picks the same bucket.
  const auto first = sw.ingress(0, 1, udp_frame(5000));
  ASSERT_EQ(first.outputs.size(), 1u);
  for (int i = 0; i < 5; ++i) {
    const auto again = sw.ingress(0, 1, udp_frame(5000));
    ASSERT_EQ(again.outputs.size(), 1u);
    EXPECT_EQ(again.outputs[0].port, first.outputs[0].port);
  }

  // Across many flows, both buckets get used.
  std::set<std::uint32_t> ports_used;
  for (std::uint16_t port = 1; port <= 64; ++port) {
    const auto result = sw.ingress(0, 1, udp_frame(port));
    ASSERT_EQ(result.outputs.size(), 1u);
    ports_used.insert(result.outputs[0].port);
  }
  EXPECT_EQ(ports_used.size(), 2u);
}

TEST(Switch, GroupModValidation) {
  Switch sw = make_switch();
  openflow::GroupMod gm;
  gm.command = openflow::GroupModCommand::Modify;
  gm.group_id = 9;
  EXPECT_FALSE(sw.group_mod(gm).ok);  // modify missing

  gm.command = openflow::GroupModCommand::Add;
  gm.type = openflow::GroupType::Select;
  gm.buckets = {openflow::Bucket{0, openflow::Ports::kAny, {}}};
  EXPECT_FALSE(sw.group_mod(gm).ok);  // zero total weight

  gm.type = openflow::GroupType::All;
  gm.buckets = {openflow::Bucket{1, openflow::Ports::kAny, {openflow::OutputAction{2, 0xffff}}}};
  EXPECT_TRUE(sw.group_mod(gm).ok);
  EXPECT_FALSE(sw.group_mod(gm).ok);  // duplicate add
}

TEST(Switch, MeterLimitsRate) {
  Switch sw = make_switch();
  openflow::MeterMod mm;
  mm.command = openflow::MeterModCommand::Add;
  mm.meter_id = 1;
  mm.rate_kbps = 8;  // 1000 bytes/s
  mm.burst_kbits = 8;  // 1000 byte bucket
  ASSERT_TRUE(sw.meter_mod(mm).ok);

  openflow::FlowMod mod;
  mod.table_id = 0;
  mod.priority = 10;
  mod.instructions = {openflow::MeterInstruction{1},
                      openflow::ApplyActions{{openflow::OutputAction{2, 0xffff}}}};
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);

  const net::Bytes frame = udp_frame();  // ~45 bytes
  int forwarded = 0, dropped = 0;
  for (int i = 0; i < 100; ++i) {
    const auto result = sw.ingress(0.0, 1, frame);
    if (result.dropped) ++dropped;
    else ++forwarded;
  }
  // Bucket of 1000 bytes at t=0: roughly 1000/45 ≈ 22 packets pass.
  EXPECT_GT(forwarded, 15);
  EXPECT_LT(forwarded, 30);
  EXPECT_GT(dropped, 60);

  // After a second, tokens refill.
  const auto later = sw.ingress(1.0, 1, frame);
  EXPECT_FALSE(later.dropped);
}

TEST(Switch, PuntToControllerWithBuffering) {
  Switch sw = make_switch();
  openflow::FlowMod mod;
  mod.table_id = 0;
  mod.priority = 10;
  mod.instructions = {openflow::ApplyActions{
      {openflow::OutputAction{openflow::Ports::kController, 64}}}};
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);

  const net::Bytes frame = udp_frame();
  const auto result = sw.ingress(0, 1, frame);
  ASSERT_TRUE(result.packet_in.has_value());
  EXPECT_EQ(result.packet_in->reason, openflow::PacketInReason::Action);
  EXPECT_NE(result.packet_in->buffer_id, openflow::kNoBuffer);
  EXPECT_EQ(result.packet_in->total_len, frame.size());
  EXPECT_LE(result.packet_in->data.size(), 64u);

  // PacketOut by buffer id forwards the full original frame.
  openflow::PacketOut out;
  out.buffer_id = result.packet_in->buffer_id;
  out.in_port = 1;
  out.actions = {openflow::OutputAction{2, 0xffff}};
  const auto sent = sw.packet_out(0, out);
  ASSERT_EQ(sent.outputs.size(), 1u);
  EXPECT_EQ(sent.outputs[0].frame, frame);
}

TEST(Switch, PacketOutWithInlineData) {
  Switch sw = make_switch();
  openflow::PacketOut out;
  out.in_port = openflow::Ports::kController;
  out.actions = {openflow::OutputAction{openflow::Ports::kFlood, 0xffff}};
  out.data = udp_frame();
  const auto result = sw.packet_out(0, out);
  EXPECT_EQ(result.outputs.size(), 4u);  // flood from controller: all ports
}

TEST(Switch, PacketOutToTableRunsPipeline) {
  Switch sw = make_switch();
  install_output_rule(sw, Match().eth_dst(kDstMac), 3);
  openflow::PacketOut out;
  out.in_port = 1;
  out.actions = {openflow::OutputAction{openflow::Ports::kTable, 0xffff}};
  out.data = udp_frame();
  const auto result = sw.packet_out(0, out);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].port, 3u);
}

TEST(Switch, MegaflowCacheHitsAfterFirstPacket) {
  Switch sw = make_switch();
  install_output_rule(sw, Match().eth_type(net::EtherType::kIpv4), 2);
  ASSERT_EQ(sw.cache().size(), 0u);
  sw.ingress(0, 1, udp_frame());
  EXPECT_EQ(sw.cache().size(), 1u);
  EXPECT_EQ(sw.cache().hits(), 0u);
  for (int i = 0; i < 10; ++i) sw.ingress(0, 1, udp_frame());
  EXPECT_EQ(sw.cache().hits(), 10u);
  // Flow table saw exactly one lookup (the first packet).
  EXPECT_EQ(sw.table(0).lookup_count(), 1u);
}

TEST(Switch, CacheCreditsEntryStats) {
  Switch sw = make_switch();
  install_output_rule(sw, Match().eth_type(net::EtherType::kIpv4), 2);
  for (int i = 0; i < 5; ++i) sw.ingress(0, 1, udp_frame());
  const auto stats = sw.flow_stats(openflow::FlowStatsRequest{}, 0);
  ASSERT_EQ(stats.entries.size(), 1u);
  EXPECT_EQ(stats.entries[0].packet_count, 5u);
  EXPECT_EQ(stats.entries[0].byte_count, 5 * udp_frame().size());
}

TEST(Switch, CacheInvalidatedByFlowMod) {
  Switch sw = make_switch();
  install_output_rule(sw, Match().eth_type(net::EtherType::kIpv4), 2);
  sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(sw.cache().size(), 1u);

  // Install a higher-priority rule redirecting to port 3.
  install_output_rule(sw, Match().eth_type(net::EtherType::kIpv4), 3, 50);
  const auto result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].port, 3u);  // stale verdict not served
}

TEST(Switch, CacheDisabledStillForwards) {
  SwitchConfig config;
  config.cache_enabled = false;
  Switch sw = make_switch(4, config);
  install_output_rule(sw, Match().eth_type(net::EtherType::kIpv4), 2);
  for (int i = 0; i < 5; ++i) {
    const auto result = sw.ingress(0, 1, udp_frame());
    ASSERT_EQ(result.outputs.size(), 1u);
  }
  EXPECT_EQ(sw.cache().size(), 0u);
  EXPECT_EQ(sw.table(0).lookup_count(), 5u);
}

TEST(Switch, RewritingVerdictsAreNotCached) {
  Switch sw = make_switch();
  openflow::FlowMod mod;
  mod.table_id = 0;
  mod.priority = 10;
  mod.instructions = {openflow::ApplyActions{
      {openflow::SetIpDscpAction{5}, openflow::OutputAction{2, 0xffff}}}};
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);
  sw.ingress(0, 1, udp_frame());
  EXPECT_EQ(sw.cache().size(), 0u);
  // Every packet still gets the rewrite.
  const auto result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 1u);
  auto parsed = net::parse_packet(result.outputs[0].frame);
  EXPECT_EQ(parsed.value().ipv4->dscp, 5);
}

TEST(Switch, FlowRemovedOnDelete) {
  Switch sw = make_switch();
  openflow::FlowMod add;
  add.table_id = 0;
  add.priority = 7;
  add.cookie = 0xc0de;
  add.flags = openflow::kFlagSendFlowRemoved;
  add.match.l4_dst(80);
  add.instructions = openflow::output_to(2);
  ASSERT_TRUE(sw.flow_mod(add, 0).ok);

  openflow::FlowMod del;
  del.table_id = 0;
  del.command = openflow::FlowModCommand::Delete;
  std::vector<openflow::FlowRemoved> removed;
  ASSERT_TRUE(sw.flow_mod(del, 1, &removed).ok);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].cookie, 0xc0deULL);
  EXPECT_EQ(removed[0].reason, openflow::FlowRemovedReason::Delete);

  // A delete across all tables reports the table each victim lived in,
  // as eviction and expiry do.
  add.table_id = 2;
  ASSERT_TRUE(sw.flow_mod(add, 2).ok);
  del.table_id = openflow::kTableAll;
  removed.clear();
  ASSERT_TRUE(sw.flow_mod(del, 3, &removed).ok);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].table_id, 2u);
}

TEST(Switch, ExpireFlowsEmitsEvents) {
  Switch sw = make_switch();
  openflow::FlowMod add;
  add.table_id = 0;
  add.priority = 7;
  add.idle_timeout = 2;
  add.flags = openflow::kFlagSendFlowRemoved;
  add.match.l4_dst(80);
  add.instructions = openflow::output_to(2);
  ASSERT_TRUE(sw.flow_mod(add, 0).ok);

  EXPECT_TRUE(sw.expire_flows(1.0).empty());
  const auto events = sw.expire_flows(3.0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].reason, openflow::FlowRemovedReason::IdleTimeout);
  EXPECT_EQ(sw.table(0).size(), 0u);
}

TEST(Switch, FlowModBadTableRejected) {
  Switch sw = make_switch();
  openflow::FlowMod mod;
  mod.table_id = 40;  // only 4 tables
  const auto status = sw.flow_mod(mod, 0);
  EXPECT_FALSE(status.ok);
  EXPECT_EQ(status.error_type, openflow::ErrorType::FlowModFailed);
}

TEST(Switch, StatsRequestsFilter) {
  Switch sw = make_switch();
  install_output_rule(sw, Match().eth_type(net::EtherType::kIpv4)
                              .ipv4_dst(Ipv4Address(10, 0, 0, 2), 32),
                      2);
  install_output_rule(sw, Match().eth_type(net::EtherType::kArp), 3);

  openflow::FlowStatsRequest req;
  req.match = Match().eth_type(net::EtherType::kIpv4);
  const auto reply = sw.flow_stats(req, 0);
  ASSERT_EQ(reply.entries.size(), 1u);

  const auto all = sw.flow_stats(openflow::FlowStatsRequest{}, 0);
  EXPECT_EQ(all.entries.size(), 2u);
}

TEST(Switch, PortCountersTrackTraffic) {
  Switch sw = make_switch();
  install_output_rule(sw, Match().eth_type(net::EtherType::kIpv4), 2);
  const net::Bytes frame = udp_frame();
  sw.ingress(0, 1, frame);
  sw.ingress(0, 1, frame);

  const auto stats = sw.port_stats(openflow::PortStatsRequest{});
  ASSERT_EQ(stats.entries.size(), 4u);
  for (const auto& entry : stats.entries) {
    if (entry.port_no == 1) {
      EXPECT_EQ(entry.rx_packets, 2u);
      EXPECT_EQ(entry.rx_bytes, 2 * frame.size());
    }
    if (entry.port_no == 2) {
      EXPECT_EQ(entry.tx_packets, 2u);
    }
  }
}

TEST(Switch, TableStats) {
  Switch sw = make_switch();
  install_output_rule(sw, Match().eth_type(net::EtherType::kIpv4), 2);
  sw.ingress(0, 1, udp_frame());
  const auto stats = sw.table_stats();
  ASSERT_EQ(stats.entries.size(), 4u);
  EXPECT_EQ(stats.entries[0].active_count, 1u);
  EXPECT_EQ(stats.entries[0].lookup_count, 1u);
  EXPECT_EQ(stats.entries[0].matched_count, 1u);
}

TEST(Switch, MalformedFrameDropped) {
  Switch sw = make_switch();
  install_output_rule(sw, Match(), 2, 1);
  const net::Bytes junk = {1, 2, 3};
  const auto result = sw.ingress(0, 1, junk);
  EXPECT_TRUE(result.dropped);
}

}  // namespace
}  // namespace zen::dataplane

namespace zen::dataplane {
namespace {

TEST(SwitchFastFailover, UsesFirstLiveBucket) {
  Switch sw = make_switch();
  openflow::GroupMod gm;
  gm.command = openflow::GroupModCommand::Add;
  gm.type = openflow::GroupType::FastFailover;
  gm.group_id = 1;
  gm.buckets = {
      openflow::Bucket{1, 2, {openflow::OutputAction{2, 0xffff}}},
      openflow::Bucket{1, 3, {openflow::OutputAction{3, 0xffff}}},
  };
  ASSERT_TRUE(sw.group_mod(gm).ok);
  openflow::FlowMod mod;
  mod.priority = 10;
  mod.instructions = {openflow::ApplyActions{{openflow::GroupAction{1}}}};
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);

  // Primary port up: bucket 1.
  auto result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].port, 2u);

  // Primary down: instant local failover to bucket 2, no rule change.
  sw.set_port_link(2, false);
  result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].port, 3u);

  // Both down: drop.
  sw.set_port_link(3, false);
  result = sw.ingress(0, 1, udp_frame());
  EXPECT_TRUE(result.dropped);

  // Primary repaired: revert (revertive protection).
  sw.set_port_link(2, true);
  result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].port, 2u);
}

TEST(SwitchFastFailover, CachedVerdictInvalidatedByPortFlap) {
  Switch sw = make_switch();
  openflow::GroupMod gm;
  gm.command = openflow::GroupModCommand::Add;
  gm.type = openflow::GroupType::FastFailover;
  gm.group_id = 1;
  gm.buckets = {
      openflow::Bucket{1, 2, {openflow::OutputAction{2, 0xffff}}},
      openflow::Bucket{1, 3, {openflow::OutputAction{3, 0xffff}}},
  };
  ASSERT_TRUE(sw.group_mod(gm).ok);
  openflow::FlowMod mod;
  mod.priority = 10;
  mod.instructions = {openflow::ApplyActions{{openflow::GroupAction{1}}}};
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);

  // Warm the megaflow cache on the primary.
  for (int i = 0; i < 3; ++i) sw.ingress(0, 1, udp_frame());
  EXPECT_GT(sw.cache().hits(), 0u);

  // Port flap must not serve the stale cached primary verdict.
  sw.set_port_link(2, false);
  const auto result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].port, 3u);
}

TEST(SwitchFastFailover, WatchAnyIsAlwaysLive) {
  Switch sw = make_switch();
  openflow::GroupMod gm;
  gm.command = openflow::GroupModCommand::Add;
  gm.type = openflow::GroupType::FastFailover;
  gm.group_id = 1;
  gm.buckets = {
      openflow::Bucket{1, openflow::Ports::kAny,
                       {openflow::OutputAction{4, 0xffff}}},
  };
  ASSERT_TRUE(sw.group_mod(gm).ok);
  openflow::FlowMod mod;
  mod.priority = 10;
  mod.instructions = {openflow::ApplyActions{{openflow::GroupAction{1}}}};
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);
  const auto result = sw.ingress(0, 1, udp_frame());
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].port, 4u);
}

}  // namespace
}  // namespace zen::dataplane

namespace zen::dataplane {
namespace {

TEST(SwitchPacketInLimit, SuppressesExcessPunts) {
  SwitchConfig config;
  config.default_miss = MissBehavior::PacketIn;
  config.packet_in_rate_pps = 100;  // burst bucket = 10
  Switch sw = make_switch(4, config);
  auto& registry = obs::MetricsRegistry::global();
  const obs::Counter& punted =
      registry.counter("zen_dataplane_packet_ins_total");
  const obs::Counter& suppressed =
      registry.counter("zen_dataplane_packet_ins_suppressed_total");
  const std::uint64_t punted_before = punted.value();
  const std::uint64_t suppressed_before = suppressed.value();

  int punts = 0;
  for (int i = 0; i < 100; ++i) {
    const auto result = sw.ingress(0.0, 1, udp_frame());  // all at t=0
    if (result.packet_in) ++punts;
  }
  EXPECT_LE(punts, 11);
  EXPECT_GE(punts, 9);
  EXPECT_EQ(sw.packet_in_suppressed(), 100u - static_cast<unsigned>(punts));
  // Every frame after the first was a megaflow hit, and a hit's punt and
  // suppression count like a miss's.
  EXPECT_EQ(sw.cache().hits(), 99u);
  EXPECT_EQ(punted.value() - punted_before,
            kObsEnabled ? static_cast<std::uint64_t>(punts) : 0u);
  EXPECT_EQ(suppressed.value() - suppressed_before,
            kObsEnabled ? 100u - static_cast<std::uint64_t>(punts) : 0u);

  // Tokens refill over time: a punt goes through again later, and a punt
  // served from a hit moves the punt counter by one.
  const std::uint64_t punted_so_far = punted.value();
  const auto later = sw.ingress(1.0, 1, udp_frame());
  EXPECT_TRUE(later.packet_in.has_value());
  EXPECT_EQ(punted.value() - punted_so_far, kObsEnabled ? 1u : 0u);
}

TEST(SwitchPacketInLimit, UnlimitedByDefault) {
  Switch sw = make_switch();
  for (int i = 0; i < 200; ++i) {
    const auto result = sw.ingress(0.0, 1, udp_frame());
    ASSERT_TRUE(result.packet_in.has_value());
  }
  EXPECT_EQ(sw.packet_in_suppressed(), 0u);
}

}  // namespace
}  // namespace zen::dataplane

namespace zen::dataplane {
namespace {

TEST(SwitchV6, ForwardsByIpv6Prefix) {
  Switch sw = make_switch();
  openflow::FlowMod mod;
  mod.priority = 10;
  mod.match.eth_type(net::EtherType::kIpv6)
      .ipv6_dst(*net::Ipv6Address::parse("2001:db8:1::"), 48);
  mod.instructions = openflow::output_to(3);
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);

  const net::Bytes inside = net::build_ipv6_udp(
      kSrcMac, kDstMac, *net::Ipv6Address::parse("fe80::1"),
      *net::Ipv6Address::parse("2001:db8:1::42"), 1000, 2000,
      std::vector<std::uint8_t>(8, 0));
  const auto hit = sw.ingress(0, 1, inside);
  ASSERT_EQ(hit.outputs.size(), 1u);
  EXPECT_EQ(hit.outputs[0].port, 3u);

  const net::Bytes outside = net::build_ipv6_udp(
      kSrcMac, kDstMac, *net::Ipv6Address::parse("fe80::1"),
      *net::Ipv6Address::parse("2001:db8:2::42"), 1000, 2000,
      std::vector<std::uint8_t>(8, 0));
  const auto miss = sw.ingress(0, 1, outside);
  EXPECT_TRUE(miss.outputs.empty());  // falls to table-miss punt
}

TEST(SwitchV6, MegaflowCachesV6Flows) {
  Switch sw = make_switch();
  openflow::FlowMod mod;
  mod.priority = 10;
  mod.match.eth_type(net::EtherType::kIpv6);
  mod.instructions = openflow::output_to(2);
  ASSERT_TRUE(sw.flow_mod(mod, 0).ok);

  const net::Bytes frame = net::build_ipv6_udp(
      kSrcMac, kDstMac, *net::Ipv6Address::parse("2001:db8::1"),
      *net::Ipv6Address::parse("2001:db8::2"), 1, 2,
      std::vector<std::uint8_t>(8, 0));
  for (int i = 0; i < 5; ++i) sw.ingress(0, 1, frame);
  EXPECT_EQ(sw.cache().hits(), 4u);

  // A different v6 destination is a different cache key.
  const net::Bytes other = net::build_ipv6_udp(
      kSrcMac, kDstMac, *net::Ipv6Address::parse("2001:db8::1"),
      *net::Ipv6Address::parse("2001:db8::3"), 1, 2,
      std::vector<std::uint8_t>(8, 0));
  sw.ingress(0, 1, other);
  EXPECT_EQ(sw.cache().size(), 2u);
}

}  // namespace
}  // namespace zen::dataplane

// ---------------------------------------------------------------------------
// Differential oracle for the megaflow cache: two switches that differ only
// in cache_enabled see one seeded stream of packets and churn. Every
// forwarding result and FlowRemoved list, and the port, flow and punt
// counters, must match. Table lookup counts are left out: skipping lookups
// is the cache's job.
// ---------------------------------------------------------------------------

namespace zen::dataplane {
namespace {

constexpr std::uint16_t kChurnDstPorts[] = {80, 443, 53, 8080};

struct ChurnFlow {
  std::uint32_t in_port = 0;
  net::Bytes frame;
};

// Twelve recurring UDP 5-tuples on in-ports 1 and 2; half are longer than
// the 128 bytes a default table miss punts.
std::vector<ChurnFlow> churn_flows() {
  std::vector<ChurnFlow> flows;
  for (int i = 0; i < 12; ++i) {
    ChurnFlow flow;
    flow.in_port = 1 + static_cast<std::uint32_t>(i % 2);
    flow.frame = net::build_ipv4_udp(
        kSrcMac, kDstMac, Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(1 + i % 3)),
        Ipv4Address(10, 0, 1, static_cast<std::uint8_t>(1 + i % 4)),
        static_cast<std::uint16_t>(1000 + i), kChurnDstPorts[i % 4],
        std::vector<std::uint8_t>(i < 6 ? 200 : 10, 0x5a));
    flows.push_back(std::move(flow));
  }
  return flows;
}

// A random Add into table 0 or 1. Port 5 does not exist; group 1 is a
// select group and group 2 a fast-failover group; meter 1 polices.
openflow::FlowMod random_add(util::Rng& rng) {
  using namespace openflow;
  FlowMod mod;
  mod.table_id = static_cast<std::uint8_t>(rng.next_below(2));
  mod.priority = static_cast<std::uint16_t>(rng.next_in(1, 40));
  mod.cookie = rng.next_u64();
  if (rng.next_bool(0.5)) mod.flags = kFlagSendFlowRemoved;
  if (rng.next_bool(0.5))
    mod.idle_timeout = static_cast<std::uint16_t>(rng.next_in(1, 2));
  switch (rng.next_below(4)) {
    case 0: mod.match.l4_dst(kChurnDstPorts[rng.next_below(4)]); break;
    case 1: mod.match.in_port(static_cast<std::uint32_t>(rng.next_in(1, 2))); break;
    case 2: mod.match.eth_type(net::EtherType::kIpv4); break;
    default: break;  // wildcard
  }
  const auto port = [&] { return static_cast<std::uint32_t>(rng.next_in(1, 5)); };
  const auto to_table1 = [&] {
    if (mod.table_id == 0) mod.instructions.push_back(GotoTable{1});
  };
  const OutputAction punt_full{Ports::kController, 0xffff};
  const OutputAction punt_64{Ports::kController, 64};
  switch (rng.next_below(16)) {
    case 0: mod.instructions = output_to(port()); break;
    case 1: mod.instructions = {ApplyActions{{GroupAction{1}}}}; break;
    case 2: mod.instructions = {ApplyActions{{GroupAction{2}}}}; break;
    case 3: mod.instructions = {ApplyActions{{punt_full}}}; break;
    case 4: mod.instructions = {ApplyActions{{punt_64}}}; break;
    case 5:
      mod.instructions = {MeterInstruction{1},
                          ApplyActions{{OutputAction{port(), 0xffff}}}};
      break;
    case 6:
      mod.instructions = {
          ApplyActions{{SetQueueAction{1}, OutputAction{port(), 0xffff}}}};
      break;
    case 7:  // an output, then (maybe metered) table 1 decides the rest
      mod.instructions = {ApplyActions{{OutputAction{port(), 0xffff}}}};
      to_table1();
      break;
    case 8:  // QoS-style classification: police, queue, forward in table 1
      mod.instructions = {MeterInstruction{1}, ApplyActions{{SetQueueAction{2}}}};
      to_table1();
      break;
    case 9: break;  // drop
    case 10:
      mod.instructions = {
          ApplyActions{{OutputAction{port(), 0xffff}, punt_64}}};
      break;
    case 11: mod.instructions = {ApplyActions{{punt_64, punt_full}}}; break;
    case 12:
      mod.instructions = {WriteActions{{OutputAction{port(), 0xffff}}}};
      to_table1();
      break;
    case 13:
      mod.instructions = {ApplyActions{{OutputAction{Ports::kFlood, 0xffff}}}};
      break;
    case 14:  // rewrites are never cached: keep them to one destination
      mod.match = Match().l4_dst(kChurnDstPorts[rng.next_below(4)]);
      mod.instructions = {
          ApplyActions{{SetIpDscpAction{3}, OutputAction{port(), 0xffff}}}};
      break;
    default:  // table-miss entry: punts with reason NoMatch
      mod.priority = 0;
      mod.match = Match();
      mod.instructions = {ApplyActions{{rng.next_bool(0.5) ? punt_full : punt_64}}};
      break;
  }
  return mod;
}

openflow::FlowMod random_delete(util::Rng& rng) {
  openflow::FlowMod mod;
  mod.command = rng.next_bool(0.5) ? openflow::FlowModCommand::Delete
                                   : openflow::FlowModCommand::DeleteStrict;
  const std::uint8_t tables[] = {0, 1, openflow::kTableAll};
  mod.table_id = tables[rng.next_below(3)];
  mod.priority = static_cast<std::uint16_t>(rng.next_in(0, 40));
  if (rng.next_bool(0.8)) mod.match.l4_dst(kChurnDstPorts[rng.next_below(4)]);
  return mod;
}

// The first field in which two forwarding results differ ("" if none).
std::string forward_diff(const ForwardResult& a, const ForwardResult& b) {
  if (a.outputs.size() != b.outputs.size()) return "outputs";
  for (std::size_t i = 0; i < a.outputs.size(); ++i) {
    const Egress& x = a.outputs[i];
    const Egress& y = b.outputs[i];
    if (x.port != y.port || x.queue_id != y.queue_id || x.frame != y.frame)
      return "outputs";
  }
  if (a.packet_in != b.packet_in) return "packet_in";
  if (a.dropped != b.dropped) return "dropped";
  if (a.in_port != b.in_port) return "in_port";
  return "";
}

TEST(Switch, MegaflowCacheIsTransparentUnderChurn) {
  const std::vector<ChurnFlow> flows = churn_flows();
  std::uint64_t sends = 0, hits = 0, evictions = 0, suppressed = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SwitchConfig config;
    config.n_tables = 2;
    config.cache_capacity = 8;  // fewer than the flows: eviction runs
    config.packet_in_rate_pps = 200;
    Switch cached = make_switch(4, config);
    config.cache_enabled = false;
    Switch plain = make_switch(4, config);
    const auto both = [&](const auto& op) {
      op(cached);
      op(plain);
    };

    openflow::MeterMod meter;
    meter.command = openflow::MeterModCommand::Add;
    meter.meter_id = 1;
    meter.rate_kbps = 160;  // 20 kB/s: polices what a metered rule matches
    meter.burst_kbits = 16;
    openflow::GroupMod select;
    select.command = openflow::GroupModCommand::Add;
    select.type = openflow::GroupType::Select;
    select.group_id = 1;
    select.buckets = {
        openflow::Bucket{1, openflow::Ports::kAny, {openflow::OutputAction{3, 0xffff}}},
        openflow::Bucket{1, openflow::Ports::kAny, {openflow::OutputAction{4, 0xffff}}}};
    openflow::GroupMod failover = select;
    failover.type = openflow::GroupType::FastFailover;
    failover.group_id = 2;
    failover.buckets = {
        openflow::Bucket{1, 3, {openflow::OutputAction{3, 0xffff}}},
        openflow::Bucket{1, 4, {openflow::OutputAction{4, 0xffff}}}};
    both([&](Switch& sw) {
      // Every fourth seed leaves meter 1 out: its MeterInstructions pass.
      if (seed % 4 != 0) {
        ASSERT_TRUE(sw.meter_mod(meter).ok);
      }
      ASSERT_TRUE(sw.group_mod(select).ok);
      ASSERT_TRUE(sw.group_mod(failover).ok);
    });

    util::Rng rng(seed);
    double now = 0;
    std::uint64_t seed_sends = 0;
    for (int step = 0; step < 1000; ++step) {
      now += 0.0005 * static_cast<double>(rng.next_in(1, 8));
      std::vector<openflow::FlowRemoved> removed_cached, removed_plain;
      if (step < 20 || rng.next_bool(0.04)) {  // churn
        const std::uint64_t kind = step < 20 ? 0 : rng.next_below(5);
        if (kind <= 1) {
          const openflow::FlowMod mod =
              kind == 0 ? random_add(rng) : random_delete(rng);
          const bool ok = cached.flow_mod(mod, now, &removed_cached).ok;
          ASSERT_EQ(plain.flow_mod(mod, now, &removed_plain).ok, ok);
        } else if (kind == 2) {
          // Toggle an egress-only port (the group targets).
          const auto port = static_cast<std::uint32_t>(rng.next_in(3, 4));
          const bool up = !cached.port(port)->link_up;
          both([&](Switch& sw) { sw.set_port_link(port, up); });
        } else {
          removed_cached = cached.expire_flows(now);
          removed_plain = plain.expire_flows(now);
        }
        ASSERT_TRUE(removed_cached == removed_plain)
            << "flow_removed, seed " << seed << " step " << step;
        continue;
      }
      const ChurnFlow& flow =
          flows[rng.next_bool(0.5) ? rng.next_below(4) : rng.next_below(12)];
      const ForwardResult a = cached.ingress(now, flow.in_port, flow.frame);
      const ForwardResult b = plain.ingress(now, flow.in_port, flow.frame);
      ++seed_sends;
      ASSERT_EQ(forward_diff(a, b), "") << "seed " << seed << " step " << step;
      ASSERT_TRUE(cached.port_stats({}) == plain.port_stats({}))
          << "port_stats, seed " << seed << " step " << step;
      ASSERT_EQ(cached.packet_in_suppressed(), plain.packet_in_suppressed())
          << "seed " << seed << " step " << step;
    }
    EXPECT_TRUE(cached.flow_stats({}, now) == plain.flow_stats({}, now))
        << "flow_stats, seed " << seed;
    // The cache served a real share of the traffic.
    EXPECT_GE(cached.cache().hits() * 5, seed_sends) << "seed " << seed;
    sends += seed_sends;
    hits += cached.cache().hits();
    evictions += cached.cache().evictions();
    suppressed += cached.packet_in_suppressed();
  }
  // The churn reached eviction and rate limiting, not just plain hits.
  EXPECT_GT(evictions, 0u);
  EXPECT_GT(suppressed, 0u);
  std::printf("megaflow oracle: %llu sends, %llu hits, %llu evictions, "
              "%llu suppressed punts\n",
              static_cast<unsigned long long>(sends),
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(evictions),
              static_cast<unsigned long long>(suppressed));
}

}  // namespace
}  // namespace zen::dataplane
