// Coverage for smaller pieces exercised only indirectly elsewhere:
// the wire channel, host ARP-queue limits, firewall rule removal, and
// intent edge cases.
#include <gtest/gtest.h>

#include "controller/apps/discovery.h"
#include "controller/apps/firewall.h"
#include "controller/channel.h"
#include "controller/controller.h"
#include "intent/intent_manager.h"
#include "openflow/wire.h"
#include "topo/generators.h"

namespace zen {
namespace {

// ---- Channel ----

TEST(Channel, DeliversInOrderAfterLatency) {
  using controller::Channel;
  sim::EventQueue events;
  Channel channel(events, 0.001);
  std::vector<openflow::Xid> received;
  channel.set_receiver(Channel::Side::B, [&](std::vector<std::uint8_t> bytes) {
    openflow::BatchReader reader(bytes);
    while (auto frame = reader.next()) {
      ASSERT_TRUE(frame->ok());
      received.push_back(frame->value().xid);
    }
  });
  const openflow::Message echo{openflow::EchoRequest{}};
  channel.stage(Channel::Side::B).append(echo, 1);
  channel.stage(Channel::Side::B).append(echo, 2);
  channel.flush(Channel::Side::B);
  channel.stage(Channel::Side::B).append(echo, 3);
  channel.flush(Channel::Side::B);
  EXPECT_TRUE(received.empty());  // latency not yet elapsed
  events.run_until(0.0005);
  EXPECT_TRUE(received.empty());
  events.run_until(0.002);
  EXPECT_EQ(received, (std::vector<openflow::Xid>{1, 2, 3}));
  EXPECT_EQ(channel.flushes(), 2u);
}

TEST(Channel, CountsBytesAndMessagesPerDirection) {
  using controller::Channel;
  sim::EventQueue events;
  Channel channel(events, 0.0);
  channel.set_receiver(Channel::Side::A, [](std::vector<std::uint8_t>) {});
  channel.set_receiver(Channel::Side::B, [](std::vector<std::uint8_t>) {});
  const openflow::Message echo{openflow::EchoRequest{{1, 2, 3}}};
  const openflow::Message barrier{openflow::BarrierRequest{}};
  channel.stage(Channel::Side::B).append(echo, 1);
  channel.stage(Channel::Side::B).append(barrier, 2);
  channel.flush(Channel::Side::B);
  channel.stage(Channel::Side::A).append(barrier, 3);
  channel.flush(Channel::Side::A);
  channel.flush(Channel::Side::A);  // nothing staged: not a flush
  events.run(100);
  const std::size_t a_to_b = openflow::encode_frame(echo, 1).size() +
                             openflow::encode_frame(barrier, 2).size();
  EXPECT_EQ(channel.messages_a_to_b(), 2u);
  EXPECT_EQ(channel.bytes_a_to_b(), a_to_b);
  EXPECT_EQ(channel.messages_b_to_a(), 1u);
  EXPECT_EQ(channel.bytes_b_to_a(), openflow::encode_frame(barrier, 3).size());
  EXPECT_EQ(channel.flushes(), 2u);
}

// ---- SimHost ARP pending-queue cap ----

TEST(SimHostArp, PendingQueueBounded) {
  sim::SimOptions opts;
  opts.switch_config.default_miss = dataplane::MissBehavior::Drop;
  sim::SimNetwork net(topo::make_linear(1, 2), opts);
  auto& sender = net.host_at(net.generated().hosts[0]);
  const auto dst = sim::host_ip(net.generated().hosts[1]);
  // No rules installed: the ARP request dies at the switch, so packets
  // pile up on the unresolved queue and overflow its 64-entry cap.
  for (int i = 0; i < 100; ++i) sender.send_udp(dst, 1, 2, 32);
  net.run_until(1.0);
  EXPECT_EQ(sender.stats().unresolved_drops, 100u - 64u);
}

// ---- Firewall clear_rules ----

TEST(FirewallRules, ClearRemovesInstalledDenies) {
  sim::SimOptions opts;
  opts.switch_config.default_miss = dataplane::MissBehavior::Drop;
  sim::SimNetwork net(topo::make_linear(1, 2), opts);
  controller::Controller ctrl(net);
  controller::apps::Firewall::Options fw_options;
  fw_options.acl_table = 0;
  fw_options.next_table = 1;
  auto& firewall = ctrl.add_app<controller::apps::Firewall>(fw_options);
  controller::apps::AclRule deny;
  deny.match.eth_type(net::EtherType::kIpv4).l4_dst(23);
  deny.priority = 5;
  firewall.add_rule(deny);
  ctrl.connect_all();
  net.run_until(0.5);
  ASSERT_EQ(net.switch_at(1).table(0).size(), 1u);

  firewall.clear_rules();
  net.run_until(1.0);
  EXPECT_EQ(net.switch_at(1).table(0).size(), 0u);
  EXPECT_EQ(firewall.rule_count(), 0u);
}

// ---- intent edge cases ----

class IntentEdgeFixture : public ::testing::Test {
 protected:
  IntentEdgeFixture() : net_(topo::make_linear(2, 2), options()), ctrl_(net_) {
    controller::apps::Discovery::Options disc;
    disc.stop_after_s = 1.5;
    ctrl_.add_app<controller::apps::Discovery>(disc);
    manager_ = &ctrl_.add_app<intent::IntentManager>();
    ctrl_.connect_all();
    net_.run_until(2.0);
    for (std::size_t i = 0; i < 4; ++i) {
      net_.host_at(net_.generated().hosts[i])
          .send_udp(sim::host_ip(net_.generated().hosts[(i + 1) % 4]), 1, 2, 16);
    }
    net_.run_until(3.0);
    for (const auto a : net_.generated().hosts)
      for (const auto b : net_.generated().hosts)
        if (a != b)
          net_.host_at(a).add_arp_entry(sim::host_ip(b), sim::host_mac(b));
  }

  static sim::SimOptions options() {
    sim::SimOptions opts;
    opts.switch_config.default_miss = dataplane::MissBehavior::Drop;
    return opts;
  }

  net::Ipv4Address ip(std::size_t i) const {
    return sim::host_ip(net_.generated().hosts[i]);
  }

  sim::SimNetwork net_;
  controller::Controller ctrl_;
  intent::IntentManager* manager_ = nullptr;
};

TEST_F(IntentEdgeFixture, SameSwitchIntentWorks) {
  // Hosts 0 and 1 share switch 1: the path is a single switch.
  intent::IntentSpec spec;
  spec.kind = intent::IntentKind::PointToPoint;
  spec.src = ip(0);
  spec.dst = ip(1);
  const auto id = manager_->submit(spec);
  ASSERT_EQ(manager_->state(id), intent::IntentState::Installed);
  EXPECT_EQ(manager_->installed_path(id).size(), 1u);
  net_.run_until(4.0);
  net_.host_at(net_.generated().hosts[0]).send_udp(ip(1), 5, 6, 32);
  net_.run_until(5.0);
  EXPECT_EQ(net_.host_at(net_.generated().hosts[1]).stats().udp_received, 1u);
}

TEST_F(IntentEdgeFixture, ProtectedWithoutDisjointBackupDegradesGracefully) {
  // The linear topology has exactly one path: the intent installs
  // unprotected but still carries traffic.
  intent::IntentSpec spec;
  spec.kind = intent::IntentKind::ProtectedPointToPoint;
  spec.src = ip(0);
  spec.dst = ip(2);  // other switch, single possible path
  const auto id = manager_->submit(spec);
  ASSERT_EQ(manager_->state(id), intent::IntentState::Installed);
  EXPECT_FALSE(manager_->is_protected_active(id));
  EXPECT_TRUE(manager_->backup_path(id).empty());
  net_.run_until(4.0);
  net_.host_at(net_.generated().hosts[0]).send_udp(ip(2), 5, 6, 32);
  net_.run_until(5.0);
  EXPECT_EQ(net_.host_at(net_.generated().hosts[2]).stats().udp_received, 1u);
}

TEST_F(IntentEdgeFixture, WaypointEqualToEndpointSwitch) {
  // Waypoint == source's own switch degenerates to the plain path.
  intent::IntentSpec spec;
  spec.kind = intent::IntentKind::Waypoint;
  spec.src = ip(0);
  spec.dst = ip(2);
  spec.waypoint = 1;  // host 0's switch
  const auto id = manager_->submit(spec);
  ASSERT_EQ(manager_->state(id), intent::IntentState::Installed);
  const auto path = manager_->installed_path(id);
  EXPECT_EQ(path.front(), 1u);
  EXPECT_EQ(path.back(), 2u);
}

}  // namespace
}  // namespace zen

namespace zen {
namespace {

// ---- VLAN tagging across the fabric (tenant isolation pattern) ----
// Edge switches push a tenant tag on ingress and pop it on egress; the
// core forwards on the tag alone. Exercises PushVlan/PopVlan + vlan_vid
// matching end-to-end through the simulated network.
TEST(VlanTransport, PushForwardPopAcrossFabric) {
  sim::SimOptions opts;
  opts.switch_config.default_miss = dataplane::MissBehavior::Drop;
  sim::SimNetwork net(topo::make_linear(3, 1), opts);  // h0-s1-s2-s3-h2
  const auto& gen = net.generated();
  const topo::Link* l12 = net.topology().link_between(1, 2);
  const topo::Link* l23 = net.topology().link_between(2, 3);

  const std::uint16_t kTenantVid = 42;

  // s1 (ingress edge): tag IPv4 from the host port, send toward s2.
  openflow::FlowMod ingress;
  ingress.priority = 10;
  ingress.match.in_port(gen.attachments[0].sw_port)
      .eth_type(net::EtherType::kIpv4);
  ingress.instructions = {openflow::ApplyActions{
      {openflow::PushVlanAction{kTenantVid, 0},
       openflow::OutputAction{l12->port_at(1), 0xffff}}}};
  ASSERT_TRUE(net.flow_mod(1, ingress).ok);

  // s2 (core): forward on the tag alone. Note the OpenFlow convention the
  // flow key follows: eth_type is the INNER type; VLAN presence is matched
  // via vlan_vid.
  openflow::FlowMod core;
  core.priority = 10;
  core.match.vlan_vid(kTenantVid);
  core.instructions = openflow::output_to(l23->port_at(2));
  ASSERT_TRUE(net.flow_mod(2, core).ok);

  // s3 (egress edge): pop and deliver to its host.
  openflow::FlowMod egress;
  egress.priority = 10;
  egress.match.vlan_vid(kTenantVid);
  egress.instructions = {openflow::ApplyActions{
      {openflow::PopVlanAction{},
       openflow::OutputAction{gen.attachments[2].sw_port, 0xffff}}}};
  ASSERT_TRUE(net.flow_mod(3, egress).ok);

  auto& src = net.host_at(gen.hosts[0]);
  auto& dst = net.host_at(gen.hosts[2]);
  src.add_arp_entry(dst.ip(), dst.mac());
  for (int i = 0; i < 5; ++i) src.send_udp(dst.ip(), 7000, 8000, 64);
  net.run_until(1.0);

  // Delivered untagged (the host parses plain IPv4/UDP).
  EXPECT_EQ(dst.stats().udp_received, 5u);

  // An untagged frame injected into the core does NOT match the tenant
  // rule (isolation): it dies at s2's miss.
  auto& other = net.host_at(gen.hosts[1]);  // host on s2
  other.add_arp_entry(dst.ip(), dst.mac());
  other.send_udp(dst.ip(), 7000, 8000, 64);
  net.run_until(2.0);
  EXPECT_EQ(dst.stats().udp_received, 5u);  // unchanged
}

// The VLAN core rule matches the OUTER ethertype (0x8100) with the inner
// flow key fields still visible (vlan_vid + inner eth_type).
TEST(VlanTransport, TaggedFlowKeyCarriesInnerProtocol) {
  const net::Bytes plain = net::build_ipv4_udp(
      net::MacAddress::from_u64(1), net::MacAddress::from_u64(2),
      net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 0, 2), 1, 2,
      std::vector<std::uint8_t>(8, 0));
  dataplane::MutablePacket pkt(plain);
  ASSERT_TRUE(pkt.ok());
  ASSERT_TRUE(pkt.apply(openflow::PushVlanAction{100, 3}));
  const net::Bytes tagged = pkt.serialize();

  auto parsed = net::parse_packet(tagged);
  ASSERT_TRUE(parsed.ok());
  const net::FlowKey key = parsed.value().flow_key(1);
  EXPECT_EQ(key.vlan_vid, 100);
  EXPECT_EQ(key.vlan_pcp, 3);
  EXPECT_EQ(key.eth_type, net::EtherType::kIpv4);  // inner type
  EXPECT_EQ(key.l4_dst, 2);                        // L4 visible under tag
}

}  // namespace
}  // namespace zen
