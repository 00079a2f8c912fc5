// Proactive shortest-path L3 routing with proxy ARP (ONOS-style fwd).
//
// Maintains per-destination-host /32 routes on every switch, recomputed
// whenever the learned topology or host set changes. Path resolution goes
// through the NetworkView's shared topo::PathEngine: one cached reverse
// SPF per distinct attachment switch serves the next-hop sets of every
// (switch, host) pair at once, and only deltas are pushed southbound.
// ARP requests are punted and answered by the controller from its host
// table (proxy ARP); unknown targets are flooded to edge ports only, so
// multi-path fabrics stay loop-free.
//
// With ECMP enabled, equal-cost next hops are programmed as one Select
// group per (switch, destination) whose id is the destination /32 itself —
// stable across recomputes, so membership changes are GroupMod Modify on
// the same id and a destination that loses all next-hops gets its group
// (and route) deleted instead of leaking a fresh id per change.
#pragma once

#include <unordered_map>
#include <vector>

#include "controller/controller.h"

namespace zen::controller::apps {

class L3Routing : public App {
 public:
  struct Options {
    std::uint16_t route_priority = 100;
    std::uint16_t arp_punt_priority = 900;
    std::uint8_t table_id = 0;
    bool use_ecmp_groups = false;
    // Maximum distinct egress ports per ECMP Select group.
    std::size_t max_ecmp_width = 8;
    // Debounce: recompute at most once per this interval.
    double recompute_delay_s = 0.01;
  };

  L3Routing() : L3Routing(Options()) {}
  explicit L3Routing(Options options) : options_(options) {}

  std::string name() const override { return "l3_routing"; }
  void on_switch_up(Dpid dpid, const openflow::FeaturesReply&) override;
  bool on_packet_in(const PacketInEvent& event) override;
  void on_link_event(const LinkEvent&) override;
  void on_host_discovered(const HostInfo&) override;

  // Forces an immediate recompute+install pass.
  void recompute_now();

  std::uint64_t recompute_count() const noexcept { return recomputes_; }

 private:
  // What this app believes a switch has installed for one destination.
  struct RouteEntry {
    std::uint64_t signature = 0;  // FNV over the egress port list
    std::uint32_t group_id = 0;   // 0: plain output rule, no group
  };

  void schedule_recompute();
  // Installs/updates/withdraws the route for `ip` on `sw` given the
  // desired egress ports (empty = unreachable). Emits only deltas.
  void apply_route(Dpid sw, net::Ipv4Address ip,
                   const std::vector<std::uint32_t>& ports);
  void withdraw_route(Dpid sw, net::Ipv4Address ip, const RouteEntry& entry);

  Options options_;
  bool recompute_pending_ = false;
  std::uint64_t recomputes_ = 0;
  // (dpid, dst-ip) -> installed route state, to emit deltas only.
  std::unordered_map<Dpid, std::unordered_map<std::uint32_t, RouteEntry>>
      installed_;
};

}  // namespace zen::controller::apps
