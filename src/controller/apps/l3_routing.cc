#include "controller/apps/l3_routing.h"

#include <algorithm>
#include <map>

#include "net/headers.h"
#include "topo/path_engine.h"
#include "util/logging.h"

namespace zen::controller::apps {

void L3Routing::on_switch_up(Dpid dpid, const openflow::FeaturesReply&) {
  // A (re)connected switch starts with empty tables: forget what we think
  // it has so the next recompute reinstalls from scratch.
  installed_.erase(dpid);

  // Punt ARP so the controller can proxy it.
  openflow::FlowMod arp;
  arp.table_id = options_.table_id;
  arp.priority = options_.arp_punt_priority;
  arp.match.eth_type(net::EtherType::kArp);
  arp.instructions = {openflow::ApplyActions{
      {openflow::OutputAction{openflow::Ports::kController, 0xffff}}}};
  controller_->flow_mod(dpid, arp);

  // Table miss punts (first packet of unknown destinations).
  controller_->install_table_miss(dpid, options_.table_id);
  schedule_recompute();
}

void L3Routing::on_link_event(const LinkEvent&) { schedule_recompute(); }

void L3Routing::on_host_discovered(const HostInfo&) { schedule_recompute(); }

void L3Routing::schedule_recompute() {
  if (recompute_pending_) return;
  recompute_pending_ = true;
  controller_->events().schedule_in(options_.recompute_delay_s, [this] {
    recompute_pending_ = false;
    recompute_now();
  });
}

void L3Routing::recompute_now() {
  ++recomputes_;
  const NetworkView& view = controller_->view();
  topo::PathEngine& engine = view.path_engine();

  // Hosts grouped by attachment switch: one cached reverse SPF per
  // distinct dst dpid serves every host behind it, and every non-edge
  // switch shares the same egress-port set for all of them. std::map keeps
  // the install order deterministic (golden-stream tests rely on it).
  std::map<Dpid, std::vector<const HostInfo*>> by_attachment;
  const std::vector<HostInfo> hosts = view.hosts();  // sorted by MAC
  for (const HostInfo& dst : hosts) {
    if (dst.ip == net::Ipv4Address{}) continue;
    if (!view.has_switch(dst.dpid)) continue;
    by_attachment[dst.dpid].push_back(&dst);
  }

  const std::vector<Dpid> switches = view.switch_ids();  // sorted
  std::vector<std::uint32_t> ports;
  for (const auto& [dst_sw, dsts] : by_attachment) {
    for (const Dpid sw : switches) {
      if (sw == dst_sw) {
        // Edge delivery: the only per-host difference is the access port.
        for (const HostInfo* dst : dsts)
          apply_route(sw, dst->ip, {dst->port});
        continue;
      }
      // Transit: equal-cost next hops straight off the SPF DAG, shared by
      // every destination host on dst_sw.
      ports.clear();
      for (const topo::PathEngine::NextHop& hop : engine.next_hops(sw, dst_sw)) {
        if (std::find(ports.begin(), ports.end(), hop.out_port) == ports.end())
          ports.push_back(hop.out_port);
        if (!options_.use_ecmp_groups || ports.size() >= options_.max_ecmp_width)
          break;
      }
      for (const HostInfo* dst : dsts) apply_route(sw, dst->ip, ports);
    }
  }
}

void L3Routing::apply_route(Dpid sw, net::Ipv4Address ip,
                            const std::vector<std::uint32_t>& ports) {
  auto& per_switch = installed_[sw];
  const std::uint32_t key = ip.value();
  const auto it = per_switch.find(key);

  if (ports.empty()) {
    // Destination lost all next-hops: withdraw the route and its group
    // rather than leaving a stale rule (or a leaked Select group) behind.
    if (it == per_switch.end()) return;
    withdraw_route(sw, ip, it->second);
    per_switch.erase(it);
    return;
  }

  std::uint64_t signature = 0xcbf29ce484222325ULL;
  for (const std::uint32_t p : ports)
    signature = (signature ^ p) * 0x100000001b3ULL;
  if (it != per_switch.end() && it->second.signature == signature) return;

  RouteEntry entry = it != per_switch.end() ? it->second : RouteEntry{};
  entry.signature = signature;

  openflow::FlowMod mod;
  mod.table_id = options_.table_id;
  mod.priority = options_.route_priority;
  mod.match.eth_type(net::EtherType::kIpv4).ipv4_dst(ip, 32);

  if (ports.size() == 1) {
    mod.instructions = openflow::output_to(ports.front());
    controller_->flow_mod(sw, mod);
    if (entry.group_id != 0) {
      // Narrowed to a single next hop: the rule no longer references the
      // group, so delete it (bounded group tables across link flaps).
      openflow::GroupMod del;
      del.command = openflow::GroupModCommand::Delete;
      del.group_id = entry.group_id;
      controller_->group_mod(sw, del);
      entry.group_id = 0;
    }
  } else {
    // ECMP: one Select group per (switch, destination), id = the /32
    // itself — stable across recomputes, reused via Modify.
    const std::uint32_t group_id = key;
    openflow::GroupMod gm;
    gm.command = entry.group_id != 0 ? openflow::GroupModCommand::Modify
                                     : openflow::GroupModCommand::Add;
    gm.type = openflow::GroupType::Select;
    gm.group_id = group_id;
    for (const std::uint32_t p : ports)
      gm.buckets.push_back(openflow::Bucket{
          1, openflow::Ports::kAny, {openflow::OutputAction{p, 0xffff}}});
    controller_->group_mod(sw, gm);
    // The flow rule only changes when it wasn't already pointing at this
    // group; membership-only changes stay a pure GroupMod.
    if (entry.group_id == 0) {
      mod.instructions = {
          openflow::ApplyActions{{openflow::GroupAction{group_id}}}};
      controller_->flow_mod(sw, mod);
    }
    entry.group_id = group_id;
  }
  per_switch[key] = entry;
}

void L3Routing::withdraw_route(Dpid sw, net::Ipv4Address ip,
                               const RouteEntry& entry) {
  openflow::FlowMod del;
  del.command = openflow::FlowModCommand::DeleteStrict;
  del.table_id = options_.table_id;
  del.priority = options_.route_priority;
  del.match.eth_type(net::EtherType::kIpv4).ipv4_dst(ip, 32);
  controller_->flow_mod(sw, del);
  if (entry.group_id != 0) {
    openflow::GroupMod gm;
    gm.command = openflow::GroupModCommand::Delete;
    gm.group_id = entry.group_id;
    controller_->group_mod(sw, gm);
  }
}

bool L3Routing::on_packet_in(const PacketInEvent& event) {
  if (!event.parsed) return false;
  if (event.parsed->arp) {
    controller_->proxy_arp(event);
    return true;
  }
  if (event.parsed->ipv4) {
    const NetworkView& view = controller_->view();
    const HostInfo* dst = view.host_by_ip(event.parsed->ipv4->dst);
    if (!dst) {
      // Unknown destination: edge-flood so it reveals itself.
      controller_->flood_to_edge_ports(event.pin->data, event.dpid,
                                       event.pin->in_port);
      return true;
    }
    // Known destination but no rule yet (installs in flight): forward the
    // triggering packet one hop toward it so first packets are not lost,
    // and make sure routes get (re)computed.
    std::uint32_t out_port = 0;
    if (event.dpid == dst->dpid) {
      out_port = dst->port;
    } else {
      const auto& hops =
          view.path_engine().next_hops(event.dpid, dst->dpid);
      if (!hops.empty()) out_port = hops.front().out_port;
    }
    if (out_port != 0) {
      openflow::PacketOut out;
      out.buffer_id = event.pin->buffer_id;
      out.in_port = event.pin->in_port;
      out.actions = {openflow::OutputAction{out_port, 0xffff}};
      if (event.pin->buffer_id == openflow::kNoBuffer) out.data = event.pin->data;
      controller_->packet_out(event.dpid, out);
    }
    schedule_recompute();
    return true;
  }
  return false;
}

}  // namespace zen::controller::apps
