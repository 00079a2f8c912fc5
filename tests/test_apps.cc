// Tests for the extended app suite: ReactiveForwarding, StatsMonitor and
// the TE-to-dataplane installer.
#include <gtest/gtest.h>

#include "controller/apps/discovery.h"
#include "controller/apps/l3_routing.h"
#include "controller/apps/qos_policy.h"
#include "controller/apps/reactive_forwarding.h"
#include "controller/apps/stats_monitor.h"
#include "controller/apps/te_installer.h"
#include "controller/controller.h"
#include "openflow/wire.h"
#include "te/allocation.h"
#include "te/demand.h"
#include "topo/generators.h"

namespace zen::controller {
namespace {

using apps::Discovery;
using apps::ReactiveForwarding;
using apps::StatsMonitor;
using apps::TeInstaller;

sim::SimOptions drop_miss_options() {
  sim::SimOptions opts;
  opts.switch_config.default_miss = dataplane::MissBehavior::Drop;
  return opts;
}

// ---- ReactiveForwarding ----

class ReactiveFixture : public ::testing::Test {
 protected:
  ReactiveFixture() : net_(topo::make_fat_tree(4), drop_miss_options()),
                      ctrl_(net_) {
    Discovery::Options disc;
    disc.stop_after_s = 2.5;
    ctrl_.add_app<Discovery>(disc);
    fwd_ = &ctrl_.add_app<ReactiveForwarding>();
    ctrl_.connect_all();
    net_.run_until(3.0);
  }

  sim::SimHost& host(std::size_t i) {
    return net_.host_at(net_.generated().hosts[i]);
  }

  std::size_t total_rules() {
    std::size_t total = 0;
    for (const auto& [id, sw] : net_.switches())
      for (std::uint8_t t = 0; t < sw->table_count(); ++t)
        total += sw->table(t).size();
    return total;
  }

  sim::SimNetwork net_;
  Controller ctrl_;
  ReactiveForwarding* fwd_ = nullptr;
};

TEST_F(ReactiveFixture, DeliversAcrossPods) {
  host(0).send_udp(host(15).ip(), 5000, 5001, 64);
  net_.run_until(5.0);
  EXPECT_EQ(host(15).stats().udp_received, 1u);
  EXPECT_GE(fwd_->paths_installed(), 1u);
}

TEST_F(ReactiveFixture, RulesTrackTrafficNotHostPopulation) {
  const std::size_t baseline = total_rules();  // punt rules only
  host(0).send_udp(host(15).ip(), 5000, 5001, 64);
  net_.run_until(5.0);
  const std::size_t after_one_pair = total_rules();
  // One pair: rules only along one path (<= 5 switches on fat-tree k=4),
  // not per-host-per-switch as proactive routing would install.
  EXPECT_GT(after_one_pair, baseline);
  EXPECT_LE(after_one_pair - baseline, 6u);
}

TEST_F(ReactiveFixture, SteadyStateSkipsController) {
  host(0).send_udp(host(15).ip(), 5000, 5001, 64);
  net_.run_until(5.0);
  const auto pins = ctrl_.stats().packet_ins;
  for (int i = 0; i < 30; ++i) host(0).send_udp(host(15).ip(), 5000, 5001, 64);
  net_.run_until(7.0);
  EXPECT_EQ(host(15).stats().udp_received, 31u);
  EXPECT_EQ(ctrl_.stats().packet_ins, pins);
}

TEST_F(ReactiveFixture, IdleRulesExpire) {
  host(0).send_udp(host(15).ip(), 5000, 5001, 64);
  net_.run_until(5.0);
  const std::size_t with_flow = total_rules();
  net_.run_until(20.0);  // idle_timeout 10s + sweep
  EXPECT_LT(total_rules(), with_flow);
}

// ---- StatsMonitor ----

TEST(StatsMonitorApp, MeasuresThroughputOverWire) {
  sim::SimNetwork net(topo::make_linear(2, 1), drop_miss_options());
  Controller ctrl(net);
  Discovery::Options disc;
  disc.stop_after_s = 1.5;
  ctrl.add_app<Discovery>(disc);
  ctrl.add_app<apps::L3Routing>();
  StatsMonitor::Options mon_options;
  mon_options.poll_interval_s = 0.5;
  auto& monitor = ctrl.add_app<StatsMonitor>(mon_options);
  ctrl.connect_all();
  net.run_until(2.0);

  auto& sender = net.host_at(net.generated().hosts[0]);
  auto& receiver = net.host_at(net.generated().hosts[1]);
  // Steady stream: ~100 x 1 KB per 0.1 s window for 3 s => ~8 Mbit/s.
  for (int burst = 0; burst < 30; ++burst) {
    net.events().schedule_at(2.0 + burst * 0.1, [&] {
      for (int i = 0; i < 100; ++i)
        sender.send_udp(receiver.ip(), 4000, 4001, 958);
    });
  }
  net.run_until(6.0);

  EXPECT_GT(monitor.polls_completed(), 4u);
  // The trunk's tx rate toward s2 must register ~8 Mbit/s.
  const topo::Link* trunk = net.topology().link_between(1, 2);
  const auto rate = monitor.rate(1, trunk->port_at(1));
  EXPECT_GT(rate.tx_bps, 2e6);
  EXPECT_LT(rate.tx_bps, 20e6);
  EXPECT_GT(monitor.max_tx_utilization(), 0.0);
}

TEST(StatsMonitorApp, IdleWhenNoTraffic) {
  sim::SimNetwork net(topo::make_linear(2, 1), drop_miss_options());
  Controller ctrl(net);
  StatsMonitor::Options mon_options;
  mon_options.poll_interval_s = 0.5;
  auto& monitor = ctrl.add_app<StatsMonitor>(mon_options);
  ctrl.connect_all();
  net.run_until(5.0);
  const topo::Link* trunk = net.topology().link_between(1, 2);
  EXPECT_NEAR(monitor.rate(1, trunk->port_at(1)).tx_bps, 0.0, 1e3);
}

// ---- TeInstaller ----

class TeInstallerFixture : public ::testing::Test {
 protected:
  TeInstallerFixture() : net_(topo::make_wan_abilene(10e9), drop_miss_options()),
                         ctrl_(net_) {
    Discovery::Options disc;
    disc.stop_after_s = 2.0;
    ctrl_.add_app<Discovery>(disc);
    te_ = &ctrl_.add_app<TeInstaller>();
    ctrl_.connect_all();
    net_.run_until(2.5);
    // Static ARP between all site hosts (TE handles IP forwarding only).
    const auto& hosts = net_.generated().hosts;
    for (const auto a : hosts)
      for (const auto b : hosts)
        if (a != b)
          net_.host_at(a).add_arp_entry(sim::host_ip(b), sim::host_mac(b));
  }

  TeInstaller::SiteAddresses site_addresses() const {
    TeInstaller::SiteAddresses sites;
    for (const auto& att : net_.generated().attachments)
      sites[att.sw] = sim::host_ip(att.host);
    return sites;
  }

  sim::SimHost& site_host(std::size_t pop_index) {
    return net_.host_at(net_.generated().hosts[pop_index]);
  }

  sim::SimNetwork net_;
  Controller ctrl_;
  TeInstaller* te_ = nullptr;
};

TEST_F(TeInstallerFixture, InstallsAllocationAndCarriesTraffic) {
  // Demand SEA (PoP 0, switch 1) -> NYC (PoP 10, switch 11).
  te::DemandMatrix demands;
  demands.set(1, 11, 12e9);  // forces multi-path (links are 10G)
  const te::Allocation alloc =
      te::allocate(net_.topology(), demands, te::Strategy::MaxMinFair);
  ASSERT_GT(alloc.shares.at(te::DemandKey{1, 11}).size(), 1u);  // >1 path

  const std::size_t rules = te_->install(net_.topology(), alloc, site_addresses());
  EXPECT_GT(rules, 2u);
  net_.run_until(3.5);  // rules propagate

  for (std::uint16_t flow = 0; flow < 64; ++flow)
    site_host(0).send_udp(sim::host_ip(net_.generated().hosts[10]),
                          static_cast<std::uint16_t>(30000 + flow), 80, 128);
  net_.run_until(6.0);
  EXPECT_EQ(site_host(10).stats().udp_received, 64u);

  // Traffic must leave SEA over more than one uplink (weighted split).
  int used = 0;
  for (const topo::Link* link : net_.topology().links_of(1)) {
    if (topo::is_host_id(link->other(1))) continue;
    const int dir = link->a == 1 ? 0 : 1;
    if (net_.link_stats(link->id, dir).delivered > 4) ++used;
  }
  EXPECT_GE(used, 2);
}

TEST_F(TeInstallerFixture, ClearRemovesRules) {
  te::DemandMatrix demands;
  demands.set(1, 11, 5e9);
  const te::Allocation alloc =
      te::allocate(net_.topology(), demands, te::Strategy::ShortestPath);
  te_->install(net_.topology(), alloc, site_addresses());
  net_.run_until(3.5);

  site_host(0).send_udp(sim::host_ip(net_.generated().hosts[10]), 1, 2, 64);
  net_.run_until(4.5);
  ASSERT_EQ(site_host(10).stats().udp_received, 1u);

  te_->clear();
  net_.run_until(5.5);
  site_host(0).send_udp(sim::host_ip(net_.generated().hosts[10]), 1, 2, 64);
  net_.run_until(6.5);
  EXPECT_EQ(site_host(10).stats().udp_received, 1u);  // dropped now
}

TEST_F(TeInstallerFixture, StagedPlanAppliesAllStages) {
  // Two allocations far enough apart to need staging.
  te::DemandMatrix morning;
  morning.set(1, 11, 8e9);
  te::DemandMatrix evening;
  evening.set(2, 11, 8e9);
  te::AllocatorOptions options;
  options.headroom = 0.2;
  const auto from =
      te::allocate(net_.topology(), morning, te::Strategy::MaxMinFair, options);
  const auto to =
      te::allocate(net_.topology(), evening, te::Strategy::MaxMinFair, options);
  const te::UpdatePlan plan = te::plan_update(net_.topology(), from, to);
  ASSERT_TRUE(plan.feasible);
  const std::size_t stages = plan.stages.size();

  te_->install_plan(net_.topology(), plan, site_addresses(), /*dwell_s=*/0.5);
  EXPECT_EQ(te_->stages_applied(), 1u);
  net_.run_until(net_.now() + 0.5 * static_cast<double>(stages) + 0.1);
  EXPECT_EQ(te_->stages_applied(), stages);

  // Final stage carries the evening demand.
  net_.run_until(net_.now() + 1.0);
  site_host(1).send_udp(sim::host_ip(net_.generated().hosts[10]), 7, 8, 64);
  net_.run_until(net_.now() + 1.0);
  EXPECT_EQ(site_host(10).stats().udp_received, 1u);
}

}  // namespace
}  // namespace zen::controller

namespace zen::controller {
namespace {

// ---- QosPolicy ----

class QosPolicyFixture : public ::testing::Test {
 protected:
  QosPolicyFixture() : net_(topo::make_linear(2, 2), drop_miss_options()),
                       ctrl_(net_) {
    Discovery::Options disc;
    disc.stop_after_s = 1.5;
    ctrl_.add_app<Discovery>(disc);
    qos_ = &ctrl_.add_app<apps::QosPolicy>();
    apps::L3Routing::Options routing;
    routing.table_id = 1;  // forwarding below the classify table
    ctrl_.add_app<apps::L3Routing>(routing);

    // Voice class: priority queue. Bulk class: policed to 1 Mbit/s.
    apps::TrafficClass voice;
    voice.name = "voice";
    voice.match.eth_type(net::EtherType::kIpv4)
        .ip_proto(net::IpProto::kUdp)
        .l4_dst(7000);
    voice.queue_id = 1;
    voice.priority = 10;
    qos_->add_class(voice);

    apps::TrafficClass bulk;
    bulk.name = "bulk";
    bulk.match.eth_type(net::EtherType::kIpv4)
        .ip_proto(net::IpProto::kUdp)
        .l4_dst(8000);
    bulk.police_rate_kbps = 1000;  // 1 Mbit/s
    bulk.police_burst_kbits = 16;
    bulk.priority = 5;
    qos_->add_class(bulk);

    ctrl_.connect_all();
    net_.run_until(2.5);
  }

  sim::SimHost& host(std::size_t i) {
    return net_.host_at(net_.generated().hosts[i]);
  }

  sim::SimNetwork net_;
  Controller ctrl_;
  apps::QosPolicy* qos_ = nullptr;
};

TEST_F(QosPolicyFixture, ClassifiedTrafficStillForwards) {
  host(0).send_udp(host(3).ip(), 9000, 7000, 64);   // voice class
  host(0).send_udp(host(3).ip(), 9000, 12345, 64);  // default class
  net_.run_until(5.0);
  EXPECT_EQ(host(3).stats().udp_received, 2u);
}

TEST_F(QosPolicyFixture, VoiceClassRidesPriorityQueue) {
  // First packet resolves routes; then inspect the dataplane verdict.
  host(0).send_udp(host(3).ip(), 9000, 7000, 64);
  net_.run_until(5.0);

  const net::Bytes frame = net::build_ipv4_udp(
      host(0).mac(), host(3).mac(), host(0).ip(), host(3).ip(), 9000, 7000,
      std::vector<std::uint8_t>(32, 0));
  // Host 0's access port on switch 1.
  std::uint32_t in_port = 0;
  for (const auto& att : net_.generated().attachments)
    if (att.host == net_.generated().hosts[0]) in_port = att.sw_port;
  const auto result = net_.switch_at(1).ingress(net_.now(), in_port, frame);
  ASSERT_FALSE(result.outputs.empty());
  EXPECT_EQ(result.outputs[0].queue_id, 1u);
}

TEST_F(QosPolicyFixture, BulkClassIsPoliced) {
  // Prime routing.
  host(0).send_udp(host(3).ip(), 9000, 8000, 64);
  net_.run_until(5.0);
  const auto before = host(3).stats().udp_received;

  // Blast 200 x 1200 B = 1.92 Mbit in one instant at a 1 Mbit/s meter with
  // a 16 kbit bucket: only a couple of packets fit.
  for (int i = 0; i < 200; ++i) host(0).send_udp(host(3).ip(), 9000, 8000, 1200);
  net_.run_until(5.5);
  const auto burst_through = host(3).stats().udp_received - before;
  EXPECT_LT(burst_through, 10u);

  // The default class is not policed.
  for (int i = 0; i < 50; ++i) host(0).send_udp(host(3).ip(), 9000, 12345, 1200);
  net_.run_until(6.0);
  EXPECT_GE(host(3).stats().udp_received - before - burst_through, 50u);
}

// ---- ECMP group lifecycle (leak regression) ----

class EcmpGroupFixture : public ::testing::Test {
 protected:
  EcmpGroupFixture()
      : net_(topo::make_leaf_spine(4, 2, 8), drop_miss_options()), ctrl_(net_) {
    // Discovery keeps probing: revived links are re-learned by LLDP, so
    // flapped uplinks actually return to the ECMP sets.
    ctrl_.add_app<Discovery>();
    apps::L3Routing::Options options;
    options.use_ecmp_groups = true;
    routing_ = &ctrl_.add_app<apps::L3Routing>(options);
    ctrl_.connect_all();
    net_.run_until(3.0);
    // Make every host known so each leaf carries ECMP routes toward the
    // 8 hosts behind the opposite leaf.
    for (std::size_t i = 0; i < 8; ++i) {
      host(i).send_udp(host(8 + i).ip(), 5000, 5001, 64);
      host(8 + i).send_udp(host(i).ip(), 5000, 5001, 64);
    }
    net_.run_until(6.0);
  }

  sim::SimHost& host(std::size_t i) {
    return net_.host_at(net_.generated().hosts[i]);
  }

  std::size_t total_groups() {
    std::size_t total = 0;
    for (const auto& [id, sw] : net_.switches()) total += sw->groups().size();
    return total;
  }

  std::vector<topo::LinkId> leaf_uplinks(std::size_t leaf_idx) {
    const topo::NodeId leaf = net_.generated().switches[4 + leaf_idx];
    std::vector<topo::LinkId> out;
    for (const topo::Link* link : net_.topology().links_of(leaf))
      if (!topo::is_host_id(link->other(leaf))) out.push_back(link->id);
    return out;
  }

  sim::SimNetwork net_;
  Controller ctrl_;
  apps::L3Routing* routing_ = nullptr;
};

TEST_F(EcmpGroupFixture, GroupTableStaysBoundedAcrossLinkFlaps) {
  const std::size_t baseline = total_groups();
  ASSERT_GT(baseline, 0u);  // ECMP actually in play

  // Flap two of leaf0's spine uplinks repeatedly. Every flap narrows and
  // re-widens the ECMP sets; with per-recompute fresh group ids this leaked
  // a group per flap per destination, unbounded over time.
  const std::vector<topo::LinkId> uplinks = leaf_uplinks(0);
  ASSERT_GE(uplinks.size(), 2u);
  double t = net_.now();
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < 2; ++i) {
      net_.set_link_admin_up(uplinks[i], false);
      net_.run_until(t += 0.5);
      net_.set_link_admin_up(uplinks[i], true);
      net_.run_until(t += 0.5);
    }
  }
  net_.run_until(t += 3.0);  // LLDP re-confirms + recompute settles

  // Full connectivity restored: exactly the baseline groups, not
  // baseline + leaked ids.
  EXPECT_EQ(total_groups(), baseline);

  // And the fabric still delivers.
  const auto before = host(15).stats().udp_received;
  host(0).send_udp(host(15).ip(), 6000, 6001, 64);
  net_.run_until(t + 3.0);
  EXPECT_EQ(host(15).stats().udp_received, before + 1);
}

TEST_F(EcmpGroupFixture, RoutesWithdrawnWhenDestinationUnreachable) {
  // Cut every uplink of leaf1: destinations behind it lose all next-hops
  // from leaf0's perspective; their ECMP groups must be deleted, not
  // left dangling.
  const std::size_t baseline = total_groups();
  const std::vector<topo::LinkId> uplinks = leaf_uplinks(1);
  double t = net_.now();
  for (const topo::LinkId id : uplinks) net_.set_link_admin_up(id, false);
  net_.run_until(t += 1.0);
  EXPECT_LT(total_groups(), baseline);

  for (const topo::LinkId id : uplinks) net_.set_link_admin_up(id, true);
  net_.run_until(t += 3.0);  // LLDP re-confirms + recompute settles
  EXPECT_EQ(total_groups(), baseline);
}

// ---- Golden southbound determinism ----

// Two identical controller+fabric runs must emit byte-identical FlowMod /
// GroupMod streams: recompute order, ECMP bucket order and group ids are
// all deterministic functions of the topology, never of hash-map iteration
// order or allocation history. The stream is also pinned to a committed
// size and FNV-1a-64 digest, so any change to what the controller sends
// shows up here.
TEST(L3RoutingDeterminism, GoldenSouthboundStream) {
  auto run_once = [] {
    std::vector<std::uint8_t> stream;
    sim::SimNetwork net(topo::make_fat_tree(4), drop_miss_options());
    Controller ctrl(net);
    ctrl.set_southbound_tap([&](Dpid dpid, const openflow::Message& msg) {
      const auto type = openflow::type_of(msg);
      if (type != openflow::MsgType::FlowMod &&
          type != openflow::MsgType::GroupMod)
        return;
      for (int shift = 56; shift >= 0; shift -= 8)
        stream.push_back(static_cast<std::uint8_t>(dpid >> shift));
      // Fixed xid: the fingerprint covers content and order, not the
      // controller's xid allocation.
      const openflow::Bytes bytes = openflow::encode_frame(msg, 0);
      stream.insert(stream.end(), bytes.begin(), bytes.end());
    });
    Discovery::Options disc;
    disc.stop_after_s = 2.5;
    ctrl.add_app<Discovery>(disc);
    apps::L3Routing::Options options;
    options.use_ecmp_groups = true;
    ctrl.add_app<apps::L3Routing>(options);
    ctrl.connect_all();
    net.run_until(3.0);
    // Deterministic traffic so hosts get learned in a fixed order.
    for (std::size_t i = 0; i < 16; ++i) {
      net.host_at(net.generated().hosts[i])
          .send_udp(net.host_at(net.generated().hosts[15 - i]).ip(), 5000,
                    5001, 64);
    }
    net.run_until(6.0);
    return stream;
  };

  const std::vector<std::uint8_t> first = run_once();
  const std::vector<std::uint8_t> second = run_once();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a-64
  for (const std::uint8_t byte : first)
    digest = (digest ^ byte) * 0x100000001b3ULL;
  EXPECT_EQ(first.size(), 37392u);
  EXPECT_EQ(digest, 0xd7f89733cf6e8f25ULL) << std::hex << "0x" << digest;
}

}  // namespace
}  // namespace zen::controller

namespace zen::controller {
namespace {

TEST(DiscoveryAging, SilentLinkFailureDetectedByTimeout) {
  // A link that physically disappears WITHOUT PortStatus (e.g. a
  // unidirectional fault) must be aged out when LLDP stops confirming it.
  sim::SimNetwork net(topo::make_linear(3, 1), drop_miss_options());
  Controller ctrl(net);
  Discovery::Options disc;
  disc.probe_interval_s = 0.5;
  disc.link_timeout_s = 1.6;  // ~3 missed probe rounds
  ctrl.add_app<Discovery>(disc);

  struct Watcher : App {
    std::string name() const override { return "watch"; }
    void on_link_event(const LinkEvent& event) override {
      if (!event.up) ++downs;
    }
    int downs = 0;
  };
  auto& watcher = ctrl.add_app<Watcher>();
  ctrl.connect_all();
  net.run_until(2.0);
  ASSERT_EQ(watcher.downs, 0);

  // Silently remove the s1-s2 link from the physical topology: frames die,
  // but no PortStatus is generated.
  const topo::Link* trunk = net.topology().link_between(1, 2);
  const topo::LinkId trunk_id = trunk->id;
  net.topology().remove_link(trunk_id);

  net.run_until(5.0);  // several probe rounds + timeout
  EXPECT_GE(watcher.downs, 1);
  bool still_up = false;
  for (const auto& link : ctrl.view().links())
    if (link.up && ((link.a == 1 && link.b == 2) || (link.a == 2 && link.b == 1)))
      still_up = true;
  EXPECT_FALSE(still_up);
}

TEST(TableCapacity, AddsBeyondCapacityRejected) {
  dataplane::SwitchConfig config;
  config.table_capacity = 4;
  config.default_miss = dataplane::MissBehavior::Drop;
  dataplane::Switch sw(1, config);
  openflow::PortDesc port;
  port.port_no = 1;
  sw.add_port(port);

  for (int i = 0; i < 4; ++i) {
    openflow::FlowMod mod;
    mod.priority = 10;
    mod.match.l4_dst(static_cast<std::uint16_t>(i));
    mod.instructions = openflow::output_to(1);
    EXPECT_TRUE(sw.flow_mod(mod, 0).ok);
  }
  openflow::FlowMod overflow;
  overflow.priority = 10;
  overflow.match.l4_dst(99);
  overflow.instructions = openflow::output_to(1);
  const auto status = sw.flow_mod(overflow, 0);
  EXPECT_FALSE(status.ok);
  EXPECT_EQ(status.error_code, 2);  // TableFull
  EXPECT_EQ(sw.table(0).size(), 4u);

  // Delete frees space; a new Add then succeeds.
  openflow::FlowMod del;
  del.command = openflow::FlowModCommand::Delete;
  del.match.l4_dst(0);
  EXPECT_TRUE(sw.flow_mod(del, 0).ok);
  EXPECT_TRUE(sw.flow_mod(overflow, 0).ok);
}

}  // namespace
}  // namespace zen::controller
