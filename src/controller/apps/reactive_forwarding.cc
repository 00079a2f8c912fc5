#include "controller/apps/reactive_forwarding.h"

#include "net/headers.h"
#include "topo/path_engine.h"

namespace zen::controller::apps {

void ReactiveForwarding::on_switch_up(Dpid dpid, const openflow::FeaturesReply&) {
  // ARP punts (controller answers from the host table or floods).
  openflow::FlowMod arp;
  arp.table_id = options_.table_id;
  arp.priority = 900;
  arp.match.eth_type(net::EtherType::kArp);
  arp.instructions = {openflow::ApplyActions{
      {openflow::OutputAction{openflow::Ports::kController, 0xffff}}}};
  controller_->flow_mod(dpid, arp);
  controller_->install_table_miss(dpid, options_.table_id);
}

bool ReactiveForwarding::on_packet_in(const PacketInEvent& event) {
  if (!event.parsed) return false;
  const auto& parsed = *event.parsed;
  const auto& pin = *event.pin;
  const NetworkView& view = controller_->view();

  // ARP: proxy when possible, else edge-flood.
  if (parsed.arp) {
    controller_->proxy_arp(event);
    return true;
  }

  if (!parsed.ipv4) return false;
  const HostInfo* src = view.host_by_ip(parsed.ipv4->src);
  const HostInfo* dst = view.host_by_ip(parsed.ipv4->dst);
  if (!dst) {
    controller_->flood_to_edge_ports(pin.data, event.dpid, pin.in_port);
    return true;
  }

  // Path from the punting switch to the destination's switch, resolved
  // through the shared PathEngine (cached per destination).
  topo::PathEngine& engine = view.path_engine();
  const topo::Topology& topo = engine.topology();
  std::vector<topo::NodeId> nodes;
  std::vector<topo::LinkId> links;
  if (event.dpid == dst->dpid) {
    nodes = {event.dpid};
  } else {
    const topo::Path path = engine.shortest_path(event.dpid, dst->dpid);
    if (path.empty()) return true;  // partitioned; drop
    nodes = path.nodes;
    links = path.links;
  }

  // Install along the whole path in one shot (ONOS fwd behavior), then
  // forward the packet.
  std::uint32_t first_out = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::uint32_t out_port =
        (i + 1 < nodes.size()) ? topo.link(links[i])->port_at(nodes[i])
                               : dst->port;
    if (i == 0) first_out = out_port;

    openflow::FlowMod mod;
    mod.table_id = options_.table_id;
    mod.priority = options_.rule_priority;
    mod.idle_timeout = options_.idle_timeout_s;
    mod.match.eth_type(net::EtherType::kIpv4).ipv4_dst(parsed.ipv4->dst, 32);
    if (src) mod.match.ipv4_src(parsed.ipv4->src, 32);
    if (options_.match_l4) {
      mod.match.ip_proto(parsed.ipv4->protocol);
      if (parsed.tcp)
        mod.match.l4_src(parsed.tcp->src_port).l4_dst(parsed.tcp->dst_port);
      if (parsed.udp)
        mod.match.l4_src(parsed.udp->src_port).l4_dst(parsed.udp->dst_port);
    }
    mod.instructions = openflow::output_to(out_port);
    controller_->flow_mod(nodes[i], mod);
  }
  ++paths_installed_;

  openflow::PacketOut out;
  out.buffer_id = pin.buffer_id;
  out.in_port = pin.in_port;
  out.actions = {openflow::OutputAction{first_out, 0xffff}};
  if (pin.buffer_id == openflow::kNoBuffer) out.data = pin.data;
  controller_->packet_out(event.dpid, out);
  return true;
}

}  // namespace zen::controller::apps
