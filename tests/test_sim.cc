#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "sim/engine.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "topo/generators.h"
#include "util/rng.h"

namespace zen::sim {
namespace {

// ---- event queue ----

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule_at(3.0, [&] { fired.push_back(3); });
  q.schedule_at(1.0, [&] { fired.push_back(1); });
  q.schedule_at(2.0, [&] { fired.push_back(2); });
  q.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, EqualTimesFifoBySchedulingOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) q.schedule_at(1.0, [&, i] { fired.push_back(i); });
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, RunUntilStopsAndAdvancesClock) {
  EventQueue q;
  int count = 0;
  q.schedule_at(1.0, [&] { ++count; });
  q.schedule_at(5.0, [&] { ++count; });
  q.run_until(2.0);
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  q.run_until(10.0);
  EXPECT_EQ(count, 2);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) q.schedule_in(1.0, recurse);
  };
  q.schedule_in(1.0, recurse);
  q.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(EventQueue, PastEventsClampToNow) {
  EventQueue q;
  q.schedule_at(5.0, [] {});
  q.run();
  bool fired = false;
  q.schedule_at(1.0, [&] { fired = true; });  // in the past
  q.run();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

// ---- event-queue order oracle ----

// A seeded mix of plain and sharded events on a few colliding timestamps.
// Some callbacks schedule a burst of follow-ons (at the same instant, later,
// or in the past, which clamps to now), so freed slots are reused and the
// slot table grows while a callback runs; each callback reads its captured
// id only after that, so one run from inside the table would read a
// reused or freed slot. Every event gets an id in scheduling order; the
// queue must run them in (time, id) order.
class OrderOracle {
 public:
  static constexpr int kInitial = 4000;
  static constexpr std::uint64_t kInstants = 40;
  static constexpr std::uint64_t kKeys = 6;

  OrderOracle(std::uint64_t seed, ParallelEngine* engine)
      : rng_(seed), computes_(kKeys), applies_(kKeys) {
    queue_.set_engine(engine);
  }

  void run() {
    for (int i = 0; i < kInitial; ++i)
      schedule(static_cast<double>(rng_.next_below(kInstants)));
    queue_.run();
  }

  // Ids sorted by (effective time, scheduling order).
  std::vector<std::uint32_t> reference_order() const {
    std::vector<std::uint32_t> ids(at_.size());
    std::iota(ids.begin(), ids.end(), 0u);
    std::stable_sort(ids.begin(), ids.end(),
                     [&](std::uint32_t a, std::uint32_t b) { return at_[a] < at_[b]; });
    return ids;
  }

  const std::vector<std::uint32_t>& fired() const { return fired_; }
  std::size_t scheduled() const { return at_.size(); }
  std::size_t apply_without_compute() const { return apply_without_compute_; }
  // Per shard key, the ids whose Compute / Apply ran, in the order they ran.
  const std::vector<std::vector<std::uint32_t>>& computes() const { return computes_; }
  const std::vector<std::vector<std::uint32_t>>& applies() const { return applies_; }
  const EventQueue& queue() const { return queue_; }

 private:
  void schedule(double at) {
    const auto id = static_cast<std::uint32_t>(at_.size());
    at_.push_back(std::max(at, queue_.now()));
    int spawn = 0;
    if (follow_ons_left_ > 0 && rng_.next_below(4) == 0) {
      spawn = static_cast<int>(1 + rng_.next_below(8));
      follow_ons_left_ -= spawn;
    }
    if (rng_.next_below(2) == 0) {
      queue_.schedule_at(at, [this, id, spawn] {
        follow_on(spawn);
        fired_.push_back(id);
      });
      return;
    }
    const std::uint64_t key = rng_.next_below(kKeys);
    // Compute runs on the key's worker and touches only that key's list.
    queue_.schedule_sharded_at(
        at, key,
        [this, id, key, spawn, computed = false](EventQueue::Phase phase) mutable {
          if (phase == EventQueue::Phase::kCompute) {
            computed = true;
            computes_[key].push_back(id);
            return;
          }
          follow_on(spawn);
          if (!computed) ++apply_without_compute_;
          applies_[key].push_back(id);
          fired_.push_back(id);
        });
  }

  void follow_on(int count) {
    for (int i = 0; i < count; ++i)
      schedule(queue_.now() + static_cast<double>(rng_.next_below(4)) - 1.0);
  }

  EventQueue queue_;
  util::Rng rng_;
  int follow_ons_left_ = kInitial;
  std::vector<double> at_;  // per id: effective (clamped) time
  std::vector<std::uint32_t> fired_;
  std::vector<std::vector<std::uint32_t>> computes_;
  std::vector<std::vector<std::uint32_t>> applies_;
  std::size_t apply_without_compute_ = 0;
};

void expect_reference_order(const OrderOracle& oracle) {
  EXPECT_GT(oracle.scheduled(), static_cast<std::size_t>(OrderOracle::kInitial));
  EXPECT_TRUE(oracle.queue().empty());
  EXPECT_EQ(oracle.fired(), oracle.reference_order());
  EXPECT_EQ(oracle.apply_without_compute(), 0u);
  EXPECT_EQ(oracle.computes(), oracle.applies());
}

TEST(EventQueueOracle, InlineOrderMatchesReferenceSort) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    OrderOracle oracle(seed, nullptr);
    oracle.run();
    expect_reference_order(oracle);
  }
}

TEST(EventQueueOracle, TwoWorkerOrderMatchesReferenceSort) {
  ParallelEngine engine(ParallelEngine::Options{.workers = 2});
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    OrderOracle oracle(seed, &engine);
    oracle.run();
    expect_reference_order(oracle);
    EXPECT_GT(oracle.queue().parallel_events(), 0u);  // slices did form
  }
}

// ---- addressing ----

TEST(Addressing, HostMacAndIpAreUniqueAndStable) {
  const auto mac1 = host_mac(topo::kHostIdBase);
  const auto mac2 = host_mac(topo::kHostIdBase + 1);
  EXPECT_NE(mac1, mac2);
  EXPECT_EQ(mac1, host_mac(topo::kHostIdBase));
  EXPECT_FALSE(mac1.is_multicast());

  std::set<std::uint32_t> ips;
  for (topo::NodeId id = topo::kHostIdBase; id < topo::kHostIdBase + 1000; ++id) {
    const auto ip = host_ip(id);
    EXPECT_TRUE(ips.insert(ip.value()).second) << ip.to_string();
    EXPECT_NE(ip.value() & 0xff, 0u);    // never .0
    EXPECT_NE(ip.value() & 0xff, 255u);  // never .255
  }
}

// ---- network fabric (no controller; preinstalled rules) ----

class TwoHostFixture : public ::testing::Test {
 protected:
  TwoHostFixture() : net_(topo::make_linear(2, 1), options()) {
    // Statically wire: host0 -- s1 -- s2 -- host1. Install forwarding by
    // destination MAC on both switches, both directions.
    const auto& gen = net_.generated();
    h0_ = gen.hosts[0];
    h1_ = gen.hosts[1];
    install_mac_route(1, host_mac(h1_).to_u64(), towards_s2_port(1));
    install_mac_route(1, host_mac(h0_).to_u64(), host_port(1, h0_));
    install_mac_route(2, host_mac(h0_).to_u64(), towards_s2_port(2));
    install_mac_route(2, host_mac(h1_).to_u64(), host_port(2, h1_));
    // Broadcast: flood.
    install_flood(1);
    install_flood(2);
  }

  static SimOptions options() {
    SimOptions opts;
    opts.switch_config.default_miss = dataplane::MissBehavior::Drop;
    // The static rules never expire; without the sweep an idle network
    // has an empty event queue, so events().run() returns.
    opts.expiry_interval_s = 0;
    return opts;
  }

  std::uint32_t towards_s2_port(topo::NodeId sw) {
    const topo::Link* link = net_.topology().link_between(1, 2);
    return link->port_at(sw);
  }

  std::uint32_t host_port(topo::NodeId sw, topo::NodeId host) {
    for (const auto& att : net_.generated().attachments)
      if (att.host == host && att.sw == sw) return att.sw_port;
    ADD_FAILURE() << "no attachment";
    return 0;
  }

  void install_mac_route(topo::NodeId sw, std::uint64_t mac, std::uint32_t port) {
    openflow::FlowMod mod;
    mod.priority = 10;
    mod.match.eth_dst(net::MacAddress::from_u64(mac));
    mod.instructions = openflow::output_to(port);
    ASSERT_TRUE(net_.flow_mod(sw, mod).ok);
  }

  void install_flood(topo::NodeId sw) {
    openflow::FlowMod mod;
    mod.priority = 1;
    mod.instructions = {openflow::ApplyActions{
        {openflow::OutputAction{openflow::Ports::kFlood, 0xffff}}}};
    ASSERT_TRUE(net_.flow_mod(sw, mod).ok);
  }

  // Counters of the link direction from `from` to `to`.
  const LinkDirStats& dir_stats(topo::NodeId from, topo::NodeId to) {
    const topo::Link* link = net_.topology().link_between(from, to);
    return net_.link_stats(link->id, link->a == from ? 0 : 1);
  }

  // Bytes switch `sw` received on the port facing `peer`.
  std::uint64_t switch_rx_bytes(topo::NodeId sw, topo::NodeId peer) {
    const std::uint32_t port =
        net_.topology().link_between(sw, peer)->port_at(sw);
    const auto reply = net_.switch_at(sw).port_stats({port});
    return reply.entries.at(0).rx_bytes;
  }

  SimNetwork net_;
  topo::NodeId h0_ = 0, h1_ = 0;
};

TEST_F(TwoHostFixture, ArpThenUdpDelivery) {
  auto& sender = net_.host_at(h0_);
  auto& receiver = net_.host_at(h1_);
  sender.send_udp(receiver.ip(), 5000, 5001, 64);
  net_.run_until(1.0);

  // ARP resolved, packet delivered, latency recorded.
  EXPECT_TRUE(sender.knows(receiver.ip()));
  EXPECT_EQ(receiver.stats().udp_received, 1u);
  EXPECT_EQ(receiver.stats().arp_requests_answered, 1u);
  EXPECT_EQ(receiver.latency_us().count(), 1u);
  EXPECT_GT(receiver.latency_us().mean(), 0.0);
}

TEST_F(TwoHostFixture, PendingPacketsFlushAfterArp) {
  auto& sender = net_.host_at(h0_);
  auto& receiver = net_.host_at(h1_);
  for (int i = 0; i < 10; ++i) sender.send_udp(receiver.ip(), 5000, 5001, 64);
  net_.run_until(1.0);
  EXPECT_EQ(receiver.stats().udp_received, 10u);
  // Only one ARP request should have been issued.
  EXPECT_EQ(receiver.stats().arp_requests_answered, 1u);
}

TEST_F(TwoHostFixture, IcmpEchoRoundtrip) {
  auto& sender = net_.host_at(h0_);
  auto& receiver = net_.host_at(h1_);
  sender.send_icmp_echo(receiver.ip(), 1);
  net_.run_until(1.0);
  EXPECT_EQ(receiver.stats().icmp_echo_received, 1u);
  EXPECT_EQ(sender.stats().icmp_reply_received, 1u);
}

TEST_F(TwoHostFixture, LatencyMatchesLinkModel) {
  auto& sender = net_.host_at(h0_);
  auto& receiver = net_.host_at(h1_);
  sender.add_arp_entry(receiver.ip(), receiver.mac());  // skip ARP
  sender.send_udp(receiver.ip(), 5000, 5001, 100);
  net_.run_until(1.0);
  ASSERT_EQ(receiver.latency_us().count(), 1u);
  // 3 links at 10 Gbit/s and 10 us propagation each.
  // Frame = 142 bytes (14 eth + 20 ip + 8 udp + 100 payload).
  const double tx_per_link_us = 142.0 * 8 / 10e9 * 1e6;
  const double expected_us = 3 * (tx_per_link_us + 10.0);
  EXPECT_NEAR(receiver.latency_us().mean(), expected_us, 1.0);
}

TEST_F(TwoHostFixture, QueueOverflowDrops) {
  // Shrink the fabric: reconfigure queue via a new network is complex; here
  // we simply blast far more than a 64 KiB queue can absorb in zero time.
  auto& sender = net_.host_at(h0_);
  auto& receiver = net_.host_at(h1_);
  sender.add_arp_entry(receiver.ip(), receiver.mac());
  for (int i = 0; i < 200; ++i) sender.send_udp(receiver.ip(), 5000, 5001, 1200);
  net_.run_until(2.0);
  EXPECT_GT(net_.total_link_drops(), 0u);
  EXPECT_LT(receiver.stats().udp_received, 200u);
  EXPECT_GT(receiver.stats().udp_received, 0u);

  // Drained: each direction counts only the frames that left it, so its
  // byte count is what the far end received.
  const LinkDirStats& access = dir_stats(h0_, 1);
  EXPECT_EQ(access.delivered + access.dropped_queue, 200u);
  EXPECT_EQ(access.bytes, switch_rx_bytes(1, h0_));
  EXPECT_EQ(dir_stats(1, 2).bytes, switch_rx_bytes(2, 1));
  EXPECT_EQ(dir_stats(2, h1_).bytes, receiver.stats().bytes_received);
  EXPECT_EQ(dir_stats(2, h1_).delivered, receiver.stats().udp_received);
}

TEST_F(TwoHostFixture, IdlePathCostsOneEventPerLink) {
  auto& sender = net_.host_at(h0_);
  auto& receiver = net_.host_at(h1_);
  sender.add_arp_entry(receiver.ip(), receiver.mac());
  ASSERT_TRUE(net_.events().empty());
  sender.send_udp(receiver.ip(), 5000, 5001, 64);
  // host -> s1 -> s2 -> host: three idle links, one arrival event each
  // and no transmit-complete events.
  EXPECT_EQ(net_.events().run(), 3u);
  EXPECT_EQ(receiver.stats().udp_received, 1u);
}

TEST_F(TwoHostFixture, BurstFollowsStrictPriorityFifoSchedule) {
  // A same-instant burst of mixed best-effort and SetQueue(1) frames. The
  // trunk runs at 1 Gbit/s behind 10 Gbit/s access links, so frames wait
  // there and the priority ones overtake best-effort backlog.
  const topo::Link* trunk = net_.topology().link_between(1, 2);
  net_.topology().mutable_link(trunk->id)->capacity_bps = 1e9;
  openflow::FlowMod voice;
  voice.priority = 20;
  voice.match.eth_type(net::EtherType::kIpv4)
      .ip_proto(net::IpProto::kTcp)
      .l4_dst(7000);
  voice.instructions = {openflow::ApplyActions{
      {openflow::SetQueueAction{1},
       openflow::OutputAction{towards_s2_port(1), 0xffff}}}};
  ASSERT_TRUE(net_.flow_mod(1, voice).ok);

  auto& sender = net_.host_at(h0_);
  auto& receiver = net_.host_at(h1_);
  sender.add_arp_entry(receiver.ip(), receiver.mac());
  const std::vector<std::size_t> payload = {200, 1000, 64,  1400, 300, 800,
                                            120, 1200, 500, 90,   700, 256};
  const std::vector<bool> priority = {false, false, true, false, true, false,
                                      false, true,  false, true, true, false};
  const std::size_t n = payload.size();
  std::vector<double> arrived(n, -1);
  for (const std::uint16_t port : {7000, 7001}) {
    receiver.set_tcp_sink(port, [&](const net::ParsedPacket& p,
                                    std::span<const std::uint8_t>) {
      arrived.at(p.tcp->seq) = net_.now();
    });
  }
  std::vector<std::size_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    const net::TcpSpec spec{.src_port = 4000,
                            .dst_port = static_cast<std::uint16_t>(
                                priority[i] ? 7000 : 7001),
                            .seq = static_cast<std::uint32_t>(i)};
    sender.send_tcp(receiver.ip(), spec, payload[i]);
    bytes[i] = 14 + 20 + 20 + payload[i];
  }
  net_.run_until(1.0);

  // Hand-computed schedule of one transmitter: a frame starts at
  // max(arrival, previous end); when several wait, the priority class goes
  // first, FIFO within a class. `order` lists frames by arrival.
  const auto serve = [&](const topo::Link& link, const std::vector<double>& ready,
                         const std::vector<std::size_t>& order,
                         const std::vector<bool>& prio) {
    std::vector<double> out(n);
    std::vector<std::size_t> waiting = order;
    double free_at = 0;
    while (!waiting.empty()) {
      const double start = std::max(free_at, ready[waiting.front()]);
      auto next = std::find_if(waiting.begin(), waiting.end(), [&](std::size_t i) {
        return prio[i] && ready[i] <= start;
      });
      if (next == waiting.end()) next = waiting.begin();
      free_at = start + static_cast<double>(bytes[*next]) / (link.capacity_bps / 8.0);
      out[*next] = free_at + link.latency_s;
      waiting.erase(next);
    }
    return out;
  };
  const auto by_time = [&](const std::vector<double>& t) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return t[a] < t[b]; });
    return order;
  };
  const std::vector<bool> all_best_effort(n, false);
  const std::vector<double> at_s1 =
      serve(*net_.topology().link_between(h0_, 1), std::vector<double>(n, 0.0),
            by_time(std::vector<double>(n, 0.0)), all_best_effort);
  const std::vector<double> at_s2 = serve(*trunk, at_s1, by_time(at_s1), priority);
  const std::vector<double> at_h1 = serve(*net_.topology().link_between(2, h1_),
                                          at_s2, by_time(at_s2), all_best_effort);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_DOUBLE_EQ(arrived[i], at_h1[i]) << "frame " << i;

  // The schedule really reordered: frame 2 (priority) overtook frame 1.
  EXPECT_LT(arrived[2], arrived[1]);
  const LinkDirStats& trunk_stats = dir_stats(1, 2);
  EXPECT_EQ(trunk_stats.delivered, n);
  EXPECT_EQ(trunk_stats.priority_delivered,
            static_cast<std::uint64_t>(std::count(priority.begin(), priority.end(), true)));
}

TEST_F(TwoHostFixture, LinkDownDropsTraffic) {
  auto& sender = net_.host_at(h0_);
  auto& receiver = net_.host_at(h1_);
  sender.add_arp_entry(receiver.ip(), receiver.mac());

  const topo::Link* trunk = net_.topology().link_between(1, 2);
  net_.set_link_admin_up(trunk->id, false);
  sender.send_udp(receiver.ip(), 5000, 5001, 64);
  net_.run_until(1.0);
  EXPECT_EQ(receiver.stats().udp_received, 0u);

  net_.set_link_admin_up(trunk->id, true);
  sender.send_udp(receiver.ip(), 5000, 5001, 64);
  net_.run_until(2.0);
  EXPECT_EQ(receiver.stats().udp_received, 1u);
}

TEST_F(TwoHostFixture, PortStatusEventsOnLinkFailure) {
  std::vector<std::pair<topo::NodeId, bool>> events;
  net_.set_datapath_event_handler(
      [&](topo::NodeId sw, openflow::Message msg) {
        if (const auto* status = std::get_if<openflow::PortStatus>(&msg))
          events.emplace_back(sw, status->desc.link_up);
      });
  const topo::Link* trunk = net_.topology().link_between(1, 2);
  net_.set_link_admin_up(trunk->id, false);
  ASSERT_EQ(events.size(), 2u);  // both endpoints are switches
  EXPECT_FALSE(events[0].second);
  net_.set_link_admin_up(trunk->id, true);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_TRUE(events[3].second);
}

TEST_F(TwoHostFixture, ScheduledFailureAndRepair) {
  auto& sender = net_.host_at(h0_);
  auto& receiver = net_.host_at(h1_);
  sender.add_arp_entry(receiver.ip(), receiver.mac());
  const topo::Link* trunk = net_.topology().link_between(1, 2);
  net_.schedule_link_failure(trunk->id, 1.0, 1.0);  // down at t=1, up at t=2

  net_.events().schedule_at(0.5, [&] { sender.send_udp(receiver.ip(), 1, 2, 64); });
  net_.events().schedule_at(1.5, [&] { sender.send_udp(receiver.ip(), 1, 2, 64); });
  net_.events().schedule_at(2.5, [&] { sender.send_udp(receiver.ip(), 1, 2, 64); });
  net_.run_until(3.0);
  EXPECT_EQ(receiver.stats().udp_received, 2u);  // middle send lost
}

TEST_F(TwoHostFixture, LinkUtilizationAccounting) {
  auto& sender = net_.host_at(h0_);
  auto& receiver = net_.host_at(h1_);
  sender.add_arp_entry(receiver.ip(), receiver.mac());
  for (int i = 0; i < 40; ++i) sender.send_udp(receiver.ip(), 1, 2, 1158);
  net_.run_until(1.0);

  const topo::Link* trunk = net_.topology().link_between(1, 2);
  const int dir = 0;  // either; check both add up
  const auto& stats_a = net_.link_stats(trunk->id, 0);
  const auto& stats_b = net_.link_stats(trunk->id, 1);
  const std::uint64_t delivered = stats_a.delivered + stats_b.delivered;
  EXPECT_EQ(delivered, 40u);
  const double util = net_.link_utilization(trunk->id, dir, 1.0) +
                      net_.link_utilization(trunk->id, 1 - dir, 1.0);
  // 40 frames * 1200 bytes * 8 / 10Gbit/s over 1 s ≈ 3.84e-5.
  EXPECT_NEAR(util, 3.84e-5, 1e-5);
}

TEST(SimNetwork, PacketInSeamDeliversToHandler) {
  SimOptions opts;  // default miss = PacketIn
  SimNetwork net(topo::make_linear(1, 2), opts);
  int packet_ins = 0;
  net.set_datapath_event_handler(
      [&](topo::NodeId, openflow::Message msg) {
        if (std::get_if<openflow::PacketIn>(&msg)) ++packet_ins;
      });
  auto& h0 = net.host_at(net.generated().hosts[0]);
  auto& h1 = net.host_at(net.generated().hosts[1]);
  h0.add_arp_entry(h1.ip(), h1.mac());
  h0.send_udp(h1.ip(), 1, 2, 64);
  net.run_until(1.0);
  EXPECT_EQ(packet_ins, 1);
  EXPECT_EQ(h1.stats().udp_received, 0u);  // no rules: punted, not delivered
}

TEST(SimNetwork, PacketOutInjects) {
  SimOptions opts;
  opts.switch_config.default_miss = dataplane::MissBehavior::Drop;
  SimNetwork net(topo::make_linear(1, 2), opts);
  auto& h0 = net.host_at(net.generated().hosts[0]);
  auto& h1 = net.host_at(net.generated().hosts[1]);

  // Controller-style injection: flood a UDP frame from the switch.
  openflow::PacketOut out;
  out.in_port = openflow::Ports::kController;
  out.actions = {openflow::OutputAction{openflow::Ports::kFlood, 0xffff}};
  out.data = net::build_ipv4_udp(h0.mac(), h1.mac(), h0.ip(), h1.ip(), 7, 8,
                                 std::vector<std::uint8_t>(16, 0));
  net.packet_out(1, out);
  net.run_until(0.1);
  EXPECT_EQ(h1.stats().udp_received, 1u);
}

TEST(SimNetwork, DeadLinkDrainsDeepBacklogOnce) {
  // About 100k minimum-size frames wait on a host's access link when the
  // link dies under the first one. The drain runs when that frame's
  // serialisation ends and drops every waiting frame exactly once.
  constexpr std::uint64_t kFrames = 100'000;
  SimOptions opts;
  opts.switch_config.default_miss = dataplane::MissBehavior::Drop;
  opts.expiry_interval_s = 0;
  opts.queue_bytes = kFrames * 64.0;
  SimNetwork net(topo::make_linear(2, 1), opts);
  const topo::NodeId h0 = net.generated().hosts[0];
  auto& sender = net.host_at(h0);
  auto& receiver = net.host_at(net.generated().hosts[1]);
  sender.add_arp_entry(receiver.ip(), receiver.mac());
  for (std::uint64_t i = 0; i < kFrames; ++i)
    sender.send_udp(receiver.ip(), 1, 2, 12);

  const topo::Link* access = net.topology().link_between(h0, 1);
  const std::uint32_t s1_port = access->port_at(1);
  // Down while the first frame is on the wire, up again before it lands,
  // so the switch counts it.
  net.set_link_admin_up(access->id, false);
  net.events().schedule_at(1e-6, [&] { net.set_link_admin_up(access->id, true); });
  net.run_until(1.0);

  const LinkDirStats& stats = net.link_stats(access->id, access->a == h0 ? 0 : 1);
  EXPECT_EQ(stats.dropped_down, kFrames - 1);
  EXPECT_EQ(stats.dropped_queue, 0u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(net.total_link_drops(), kFrames - 1);
  const auto rx = net.switch_at(1).port_stats({s1_port}).entries.at(0);
  EXPECT_EQ(rx.rx_packets, 1u);
  EXPECT_EQ(stats.bytes, rx.rx_bytes);
}

TEST(SimNetwork, ExpirySweepRemovesIdleFlows) {
  SimOptions opts;
  opts.switch_config.default_miss = dataplane::MissBehavior::Drop;
  opts.expiry_interval_s = 0.5;
  SimNetwork net(topo::make_linear(1, 1), opts);

  openflow::FlowMod mod;
  mod.priority = 5;
  mod.idle_timeout = 1;
  mod.match.l4_dst(80);
  mod.instructions = openflow::output_to(1);
  ASSERT_TRUE(net.flow_mod(1, mod).ok);
  EXPECT_EQ(net.switch_at(1).table(0).size(), 1u);
  net.run_until(2.0);
  EXPECT_EQ(net.switch_at(1).table(0).size(), 0u);
}

}  // namespace
}  // namespace zen::sim

namespace zen::sim {
namespace {

// ---- strict-priority link queues (QoS) ----

class QosFixture : public ::testing::Test {
 protected:
  QosFixture() : net_(topo::make_linear(2, 2), options()) {
    // Hosts 0,1 on s1; hosts 2,3 on s2. Static rules:
    //  - UDP dst port 7000 (the "voice" class): set queue 1, forward.
    //  - everything else IPv4: best effort, forward.
    const topo::Link* trunk = net_.topology().link_between(1, 2);
    const std::uint32_t s1_trunk = trunk->port_at(1);

    openflow::FlowMod voice;
    voice.priority = 20;
    voice.match.eth_type(net::EtherType::kIpv4)
        .ip_proto(net::IpProto::kUdp)
        .l4_dst(7000);
    voice.instructions = {openflow::ApplyActions{
        {openflow::SetQueueAction{1}, openflow::OutputAction{s1_trunk, 0xffff}}}};
    EXPECT_TRUE(net_.flow_mod(1, voice).ok);

    openflow::FlowMod best_effort;
    best_effort.priority = 10;
    best_effort.match.eth_type(net::EtherType::kIpv4);
    best_effort.instructions = openflow::output_to(s1_trunk);
    EXPECT_TRUE(net_.flow_mod(1, best_effort).ok);

    // s2: deliver by destination IP to the right host port.
    for (const auto& att : net_.generated().attachments) {
      if (att.sw != 2) continue;
      openflow::FlowMod to_host;
      to_host.priority = 10;
      to_host.match.eth_type(net::EtherType::kIpv4)
          .ipv4_dst(host_ip(att.host), 32);
      to_host.instructions = openflow::output_to(att.sw_port);
      EXPECT_TRUE(net_.flow_mod(2, to_host).ok);
    }

    // Static ARP everywhere.
    for (const auto a : net_.generated().hosts)
      for (const auto b : net_.generated().hosts)
        if (a != b) net_.host_at(a).add_arp_entry(host_ip(b), host_mac(b));
  }

  static SimOptions options() {
    SimOptions opts;
    opts.switch_config.default_miss = dataplane::MissBehavior::Drop;
    return opts;
  }

  // Makes the s1-s2 trunk the bottleneck (1 Gbit/s vs 10 G access links).
  void throttle_trunk() {
    const topo::Link* trunk = net_.topology().link_between(1, 2);
    net_.topology().mutable_link(trunk->id)->capacity_bps = 1e9;
  }

  // Paced best-effort flood: ~2.9 Gbit/s of 1200 B datagrams for 20 ms —
  // well inside the access link, 3x the trunk.
  void start_best_effort_flood(SimHost& sender, net::Ipv4Address dst) {
    for (int i = 0; i < 6000; ++i) {
      net_.events().schedule_at(i * 3.3e-6, [this, &sender, dst] {
        sender.send_udp(dst, 4000, 4001, 1200);
      });
    }
  }

  sim::SimHost& host(std::size_t i) {
    return net_.host_at(net_.generated().hosts[i]);
  }

  SimNetwork net_;
};

TEST_F(QosFixture, SetQueueTagsEgress) {
  // Direct switch check: the voice rule's egress carries queue_id 1.
  const net::Bytes frame = net::build_ipv4_udp(
      host_mac(net_.generated().hosts[0]), host_mac(net_.generated().hosts[2]),
      host_ip(net_.generated().hosts[0]), host_ip(net_.generated().hosts[2]),
      9000, 7000, std::vector<std::uint8_t>(32, 0));
  const auto result = net_.switch_at(1).ingress(0, /*host0 port*/ 2, frame);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].queue_id, 1u);
}

TEST_F(QosFixture, PriorityClassSurvivesCongestion) {
  // Host 0 floods best-effort through the 1G trunk at ~3x line rate while
  // host 1 sends a steady voice stream. Voice sees ~no loss, low latency.
  throttle_trunk();
  auto& be_sender = host(0);
  auto& voice_sender = host(1);
  auto& be_receiver = host(2);
  auto& voice_receiver = host(3);

  start_best_effort_flood(be_sender, be_receiver.ip());
  // 150 voice packets, 100 us apart, starting once the queue is hot.
  for (int i = 0; i < 150; ++i) {
    net_.events().schedule_at(0.002 + i * 100e-6, [&] {
      voice_sender.send_udp(voice_receiver.ip(), 9000, 7000, 160);
    });
  }
  net_.run_until(1.0);

  EXPECT_EQ(voice_receiver.stats().udp_received, 150u);  // zero voice loss
  EXPECT_GT(net_.total_link_drops(), 0u);                // BE suffered
  EXPECT_LT(be_receiver.stats().udp_received, 6000u);
  // Voice latency stays low: it only waits for the frame already on the
  // wire, never behind the ~64 KB (>500 us at 1G) best-effort backlog.
  EXPECT_LT(voice_receiver.latency_us().percentile(0.99), 200.0);
}

TEST_F(QosFixture, WithoutQosMarkingVoiceSuffers) {
  // Control: send the "voice" stream to port 7001 (no SetQueue rule), under
  // the same best-effort flood; now it contends in the same queue.
  throttle_trunk();
  auto& be_sender = host(0);
  auto& voice_sender = host(1);
  auto& be_receiver = host(2);
  auto& voice_receiver = host(3);

  start_best_effort_flood(be_sender, be_receiver.ip());
  for (int i = 0; i < 150; ++i) {
    net_.events().schedule_at(0.002 + i * 100e-6, [&] {
      voice_sender.send_udp(voice_receiver.ip(), 9000, 7001, 160);
    });
  }
  net_.run_until(1.0);

  const auto received = voice_receiver.stats().udp_received;
  const double p99 =
      received ? voice_receiver.latency_us().percentile(0.99) : 1e9;
  // Either loss or serious queueing delay (usually both).
  EXPECT_TRUE(received < 150u || p99 > 400.0)
      << "received=" << received << " p99=" << p99;
}

}  // namespace
}  // namespace zen::sim
