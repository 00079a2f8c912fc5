#include "sim/network.h"

#include "net/packet.h"
#include "net/telemetry.h"
#include "obs/obs.h"
#include "sim/engine.h"
#include "telemetry/export.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/strings.h"

namespace zen::sim {

namespace {

obs::Counter& link_drops_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "zen_sim_link_drops_total", "",
      "Frames lost on links (queue overflow or link down)");
  return c;
}

// Packet-delivery SLI: good on every frame handed to a host, bad on every
// link-level loss. A multi-hop frame contributes one good but each of its
// losses separately, so this is a proxy for loss pressure rather than an
// exact per-packet ratio — which is what a burn-rate alert wants anyway.
obs::Slo& delivery_slo() {
  static obs::Slo& slo = obs::SloMonitor::global().objective(
      obs::SloMonitor::Objective{.name = "packet_delivery",
                                 .target = 0.999,
                                 .short_window_s = 5.0,
                                 .long_window_s = 60.0});
  return slo;
}

void note_link_drop() {
  link_drops_counter().inc();
  delivery_slo().record(false);
}

}  // namespace

net::MacAddress host_mac(topo::NodeId host_id) {
  // Locally administered unicast prefix 0x02.
  return net::MacAddress::from_u64((std::uint64_t{0x02} << 40) |
                                   (host_id & 0xffffffffffULL));
}

net::Ipv4Address host_ip(topo::NodeId host_id) {
  const auto n = static_cast<std::uint32_t>(host_id - topo::kHostIdBase);
  // 10.x.y.z with z in 1..254 (avoids network/broadcast look-alikes);
  // unique for up to 254*256*256 hosts.
  const std::uint32_t z = n % 254u + 1u;
  const std::uint32_t y = (n / 254u) % 256u;
  const std::uint32_t x = (n / (254u * 256u)) % 256u;
  return net::Ipv4Address((10u << 24) | (x << 16) | (y << 8) | z);
}

SimNetwork::SimNetwork(topo::GeneratedTopo generated, SimOptions options)
    : gen_(std::move(generated)), options_(options) {
  // Switches with their ports.
  for (const topo::NodeId sw_id : gen_.switches) {
    auto sw = std::make_unique<dataplane::Switch>(sw_id, options_.switch_config);
    for (const topo::Link* link : gen_.topo.links_of(sw_id)) {
      openflow::PortDesc desc;
      desc.port_no = link->port_at(sw_id);
      desc.hw_addr = net::MacAddress::from_u64((sw_id << 8) | desc.port_no);
      desc.name = util::format("s%llu-p%u",
                               static_cast<unsigned long long>(sw_id),
                               desc.port_no);
      desc.curr_speed_mbps =
          static_cast<std::uint32_t>(link->capacity_bps / 1e6);
      sw->add_port(desc);
    }
    switches_.emplace(sw_id, std::move(sw));
  }

  // Hosts bound to their access links.
  for (const auto& att : gen_.attachments) {
    auto host = std::make_unique<SimHost>(att.host, host_mac(att.host),
                                          host_ip(att.host));
    SimHost* raw = host.get();
    const topo::NodeId host_id = att.host;
    const std::uint32_t host_port = att.host_port;
    raw->bind(
        [this, host_id, host_port](net::Bytes frame) {
          transmit(host_id, host_port, std::move(frame));
        },
        [this] { return now(); });
    ip_to_host_.emplace(raw->ip(), host_id);
    hosts_.emplace(host_id, std::move(host));
  }

  for (const topo::Link* link : gen_.topo.links())
    link_runtime_.try_emplace(link->id);

  if (options_.expiry_interval_s > 0) schedule_expiry_sweep();
  if (options_.telemetry.enabled) configure_telemetry(options_.telemetry);

  // Sharded packet engine: N > 1 fans same-instant deliveries out across
  // per-core workers. Inline otherwise — no pool, no threads.
  if (options_.engine_workers > 1) {
    engine_ = std::make_unique<ParallelEngine>(
        ParallelEngine::Options{.workers = options_.engine_workers});
    events_.set_engine(engine_.get());
  }

  // Make this simulation's virtual clock the process time source so log
  // prefixes and trace spans carry virtual seconds. Most recent network
  // wins when several coexist; the destructor restores the wall clock.
  clock_token_ =
      util::set_time_source([this] { return events_.now(); }, /*virtual=*/true);
}

SimNetwork::~SimNetwork() { util::clear_time_source(clock_token_); }

void SimNetwork::schedule_expiry_sweep() {
  events_.schedule_in(options_.expiry_interval_s, [this] {
    for (auto& [id, sw] : switches_) {
      if (!switch_up(id)) continue;
      for (auto& removed : sw->expire_flows(now())) {
        for (const auto& handler : event_handlers_)
          handler(id, openflow::Message{removed});
      }
      flush_table_status(id);
    }
    schedule_expiry_sweep();
  });
}

void SimNetwork::flush_table_status(topo::NodeId sw) {
  for (const auto& status : switches_.at(sw)->take_table_status()) {
    for (const auto& handler : event_handlers_)
      handler(sw,
              openflow::Message{openflow::make_table_status_message(status)});
  }
}

void SimNetwork::configure_telemetry(const telemetry::Options& opts) {
  for (auto& [id, sw] : switches_) sw->set_telemetry(nullptr);
  telemetry_.clear();
  host_edge_switch_.clear();
  telemetry_on_ = opts.enabled;
  if (!opts.enabled) return;

  for (auto& [id, sw] : switches_) {
    auto t = std::make_unique<telemetry::SwitchTelemetry>(id, opts);
    sw->set_telemetry(t.get());
    telemetry_.emplace(id, std::move(t));
  }
  for (const auto& att : gen_.attachments) {
    if (const auto it = telemetry_.find(att.sw); it != telemetry_.end())
      it->second->mark_edge_port(att.sw_port);
    host_edge_switch_.emplace(att.host, att.sw);
  }
  if (opts.flush_interval_s > 0) schedule_telemetry_sweep();
}

void SimNetwork::schedule_telemetry_sweep() {
  events_.schedule_in(options_.telemetry.flush_interval_s, [this] {
    if (!telemetry_on_) return;  // reconfigured off: let the sweep die
    for (auto& [id, t] : telemetry_) {
      if (!switch_up(id)) continue;
      telemetry::ExportBatch batch = t->flush(now_ns());
      if (batch.empty()) continue;
      for (const auto& handler : event_handlers_)
        handler(id, openflow::Message{telemetry::make_export_message(batch)});
    }
    schedule_telemetry_sweep();
  });
}

void SimNetwork::maybe_flush_telemetry(topo::NodeId sw) {
  const auto it = telemetry_.find(sw);
  if (it == telemetry_.end() || !it->second->flush_pending()) return;
  telemetry::ExportBatch batch = it->second->flush(now_ns());
  if (batch.empty()) return;
  for (const auto& handler : event_handlers_)
    handler(sw, openflow::Message{telemetry::make_export_message(batch)});
}

SimHost* SimNetwork::host_by_ip(net::Ipv4Address ip) noexcept {
  const auto it = ip_to_host_.find(ip);
  return it == ip_to_host_.end() ? nullptr : hosts_.at(it->second).get();
}

void SimNetwork::transmit(topo::NodeId from, std::uint32_t port,
                          net::Bytes frame, std::uint32_t queue_id,
                          std::uint32_t in_port) {
  const topo::Link* link = gen_.topo.link_at(from, port);
  if (!link) return;
  const int dir = (from == link->a) ? 0 : 1;
  auto& dir_state = link_runtime_.at(link->id).dirs[dir];
  auto& stats = dir_state.stats;

  if (!link->up) {
    ++stats.dropped_down;
    note_link_drop();
    return;
  }

  // INT-style stamping: every switch a sampled packet leaves appends one
  // hop record. Timestamp/queue depth here are enqueue-time values; they
  // are re-stamped at dequeue (start_transmission) so they reflect the
  // wait the packet actually experienced.
  if (telemetry_on_ && telemetry_.contains(from) &&
      net::has_telemetry_trailer(frame)) {
    net::append_telemetry_hop(
        frame, net::TelemetryHop{
                   .switch_id = from,
                   .ingress_port = in_port,
                   .egress_port = port,
                   .timestamp_ns = now_ns(),
                   .queue_depth_bytes =
                       static_cast<std::uint32_t>(dir_state.queued_bytes)});
  }

  const bool priority = queue_id >= 1;
  if (!dir_state.completion_pending && now() >= dir_state.busy_until) {
    start_transmission(*link, dir, dir_state, std::move(frame), priority);
    return;
  }

  // Transmitter busy: enqueue under the shared DropTail budget. Strict
  // priority: class >= 1 frames are always accepted ahead of best-effort
  // backlog; if even dropping BE tail can't make room, the frame is lost.
  const auto size = static_cast<double>(frame.size());
  if (dir_state.queued_bytes + size > options_.queue_bytes) {
    if (priority) {
      // Push out best-effort tail to admit the priority frame.
      while (!dir_state.queue_best_effort.empty() &&
             dir_state.queued_bytes + size > options_.queue_bytes) {
        dir_state.queued_bytes -=
            static_cast<double>(dir_state.queue_best_effort.back().size());
        dir_state.queue_best_effort.pop_back();
        ++stats.dropped_queue;
        note_link_drop();
      }
    }
    if (dir_state.queued_bytes + size > options_.queue_bytes) {
      ++stats.dropped_queue;
      note_link_drop();
      return;
    }
  }
  dir_state.queued_bytes += size;
  (priority ? dir_state.queue_priority : dir_state.queue_best_effort)
      .push_back(std::move(frame));
  if (!dir_state.completion_pending)
    schedule_completion(link->id, dir, dir_state);
}

void SimNetwork::start_transmission(const topo::Link& link, int dir,
                                    LinkDir& dir_state, net::Bytes frame,
                                    bool priority) {
  if (telemetry_on_) {
    // Dequeue re-stamp: the newest hop record gets the actual serialization
    // start time and the backlog left behind in this link direction.
    net::restamp_last_hop(
        frame, now_ns(),
        static_cast<std::uint32_t>(dir_state.queued_bytes));
  }
  ++dir_state.stats.delivered;
  dir_state.stats.bytes += frame.size();
  if (priority) ++dir_state.stats.priority_delivered;

  const double tx_time =
      static_cast<double>(frame.size()) / (link.capacity_bps / 8.0);
  const topo::NodeId to = (dir == 0) ? link.b : link.a;
  const std::uint32_t to_port = link.port_at(to);
  dir_state.busy_until = now() + tx_time;
  // Frame reaches the far end one propagation delay after serialization.
  schedule_delivery(dir_state.busy_until + link.latency_s, to, to_port,
                    std::move(frame));
}

void SimNetwork::on_transmit_complete(topo::LinkId link_id, int dir) {
  auto& dir_state = link_runtime_.at(link_id).dirs[dir];
  dir_state.completion_pending = false;
  const topo::Link* link = gen_.topo.link(link_id);
  for (;;) {
    const bool priority = !dir_state.queue_priority.empty();
    auto& next_queue =
        priority ? dir_state.queue_priority : dir_state.queue_best_effort;
    if (next_queue.empty()) return;
    net::Bytes frame = std::move(next_queue.front());
    next_queue.pop_front();
    dir_state.queued_bytes -= static_cast<double>(frame.size());
    if (link && link->up) {
      start_transmission(*link, dir, dir_state, std::move(frame), priority);
      break;
    }
    // Link died while the frame was queued.
    ++dir_state.stats.dropped_down;
    note_link_drop();
  }
  if (!dir_state.queue_priority.empty() ||
      !dir_state.queue_best_effort.empty())
    schedule_completion(link_id, dir, dir_state);
}

void SimNetwork::schedule_completion(topo::LinkId link_id, int dir,
                                     LinkDir& dir_state) {
  dir_state.completion_pending = true;
  events_.schedule_at(dir_state.busy_until, [this, link_id, dir] {
    on_transmit_complete(link_id, dir);
  });
}

void SimNetwork::deliver(topo::NodeId node, std::uint32_t port,
                         net::Bytes frame) {
  if (const auto host_it = hosts_.find(node); host_it != hosts_.end()) {
    // Sink-side: strip the telemetry trailer so the host sees the original
    // frame, and turn the collected hops into a path record exported by
    // the host's edge switch.
    if (telemetry_on_) {
      if (auto hops = net::strip_telemetry_trailer(frame);
          hops && !hops->empty()) {
        const auto edge_it = host_edge_switch_.find(node);
        if (edge_it != host_edge_switch_.end()) {
          if (const auto tel_it = telemetry_.find(edge_it->second);
              tel_it != telemetry_.end()) {
            telemetry::PathRecord path;
            if (const auto parsed = net::parse_packet(frame); parsed.ok()) {
              if (parsed.value().ipv4) {
                path.ipv4_src = parsed.value().ipv4->src.value();
                path.ipv4_dst = parsed.value().ipv4->dst.value();
                path.ip_proto = parsed.value().ipv4->protocol;
              }
              const net::FlowKey key = parsed.value().flow_key(port);
              path.l4_src = key.l4_src;
              path.l4_dst = key.l4_dst;
            }
            path.hops = std::move(*hops);
            tel_it->second->on_path_complete(std::move(path));
            maybe_flush_telemetry(edge_it->second);
          }
        }
      }
    }
    delivery_slo().record(true);
    host_it->second->deliver(frame);
    return;
  }
  const auto sw_it = switches_.find(node);
  if (sw_it == switches_.end() || !switch_up(node)) return;
  handle_forward_result(node, sw_it->second->ingress(now(), port, frame));
}

void SimNetwork::schedule_delivery(double at, topo::NodeId node,
                                   std::uint32_t port, net::Bytes frame) {
  // Two-phase arrival, sharded by destination node. The compute half runs
  // the switch's match/lookup pipeline (which touches only that switch's
  // tables, cache, meters and per-switch metrics — all owned by the
  // node's shard during a slice); everything with global reach happens in
  // the apply half on the coordinator, in seq order. With no engine
  // installed the two phases run back to back, reproducing the classic
  // single-threaded delivery byte for byte. Host arrivals keep a no-op
  // compute phase: they stay sharded so they never fragment a slice, but
  // the telemetry-strip/SLO/host path shares sink-side state and thus
  // belongs to the coordinator.
  events_.schedule_sharded_at(
      at, static_cast<std::uint64_t>(node),
      [this, node, port, f = std::move(frame),
       result = dataplane::ForwardResult{},
       computed = false](EventQueue::Phase phase) mutable {
        if (phase == EventQueue::Phase::kCompute) {
          if (hosts_.contains(node)) return;
          const auto sw_it = switches_.find(node);
          if (sw_it == switches_.end() || !switch_up(node)) return;
          result = sw_it->second->ingress(now(), port, f);
          computed = true;
          return;
        }
        if (computed) {
          handle_forward_result(node, std::move(result));
          return;
        }
        deliver(node, port, std::move(f));
      });
}

void SimNetwork::handle_forward_result(topo::NodeId sw,
                                       dataplane::ForwardResult result) {
  for (auto& egress : result.outputs)
    transmit(sw, egress.port, std::move(egress.frame), egress.queue_id,
             result.in_port);
  if (result.packet_in) {
    for (const auto& handler : event_handlers_)
      handler(sw, openflow::Message{*result.packet_in});
  }
  if (telemetry_on_) maybe_flush_telemetry(sw);
}

namespace {
// ModStatus for operations aimed at a crashed switch.
dataplane::ModStatus switch_down_status() {
  return {false, openflow::ErrorType::BadRequest, /*switch down*/ 0xdd};
}
}  // namespace

dataplane::ModStatus SimNetwork::flow_mod(topo::NodeId sw,
                                          const openflow::FlowMod& mod) {
  if (!switch_up(sw)) return switch_down_status();
  std::vector<openflow::FlowRemoved> removed;
  const auto status = switches_.at(sw)->flow_mod(mod, now(), &removed);
  for (const auto& fr : removed)
    for (const auto& handler : event_handlers_)
      handler(sw, openflow::Message{fr});
  flush_table_status(sw);
  return status;
}

dataplane::ModStatus SimNetwork::group_mod(topo::NodeId sw,
                                           const openflow::GroupMod& mod) {
  if (!switch_up(sw)) return switch_down_status();
  return switches_.at(sw)->group_mod(mod);
}

dataplane::ModStatus SimNetwork::meter_mod(topo::NodeId sw,
                                           const openflow::MeterMod& mod) {
  if (!switch_up(sw)) return switch_down_status();
  return switches_.at(sw)->meter_mod(mod);
}

dataplane::ModStatus SimNetwork::commit_bundle(
    topo::NodeId sw, std::span<const openflow::Message> members) {
  if (!switch_up(sw)) return switch_down_status();
  std::vector<openflow::FlowRemoved> removed;
  const auto status = switches_.at(sw)->commit_bundle(members, now(), &removed);
  // Removals (evictions/deletes) surface only for a committed bundle; a
  // rolled-back attempt produced no observable dataplane events.
  for (const auto& fr : removed)
    for (const auto& handler : event_handlers_)
      handler(sw, openflow::Message{fr});
  flush_table_status(sw);
  return status;
}

void SimNetwork::packet_out(topo::NodeId sw, const openflow::PacketOut& msg) {
  if (!switch_up(sw)) return;
  handle_forward_result(sw, switches_.at(sw)->packet_out(now(), msg));
}

void SimNetwork::set_link_admin_up(topo::LinkId id, bool up) {
  const topo::Link* link = gen_.topo.link(id);
  if (!link || link->up == up) return;
  gen_.topo.set_link_up(id, up);
  ZEN_TRACE_INSTANT(up ? "link_up" : "link_down", "sim");
  for (const topo::NodeId endpoint : {link->a, link->b}) {
    const auto it = switches_.find(endpoint);
    if (it == switches_.end()) continue;
    auto status = it->second->set_port_link(link->port_at(endpoint), up);
    if (status) {
      for (const auto& handler : event_handlers_)
        handler(endpoint, openflow::Message{*status});
    }
  }
}

void SimNetwork::crash_switch(topo::NodeId id) {
  const auto it = switches_.find(id);
  if (it == switches_.end() || !switch_up(id)) return;
  down_switches_.insert(id);
  // Power loss: volatile forwarding state is gone the instant the switch
  // dies, not when it comes back.
  it->second->reset();
  ZEN_TRACE_INSTANT("switch_crash", "sim");
  ZEN_LOG(Info) << "sim: switch " << id << " crashed";
  for (const topo::Link* link : gen_.topo.links_of(id))
    set_link_admin_up(link->id, false);
}

void SimNetwork::reboot_switch(topo::NodeId id) {
  const auto it = switches_.find(id);
  if (it == switches_.end() || switch_up(id)) return;
  down_switches_.erase(id);
  ZEN_TRACE_INSTANT("switch_reboot", "sim");
  ZEN_LOG(Info) << "sim: switch " << id << " rebooted";
  for (const topo::Link* link : gen_.topo.links_of(id)) {
    // Revive only links whose far end is also powered.
    const topo::NodeId other = link->other(id);
    if (switches_.contains(other) && !switch_up(other)) continue;
    set_link_admin_up(link->id, true);
  }
}

void SimNetwork::schedule_link_failure(topo::LinkId id, double at,
                                       double repair_after) {
  events_.schedule_at(at, [this, id] { set_link_admin_up(id, false); });
  if (repair_after > 0) {
    events_.schedule_at(at + repair_after,
                        [this, id] { set_link_admin_up(id, true); });
  }
}

const LinkDirStats& SimNetwork::link_stats(topo::LinkId id, int dir) const {
  return link_runtime_.at(id).dirs[dir].stats;
}

double SimNetwork::link_utilization(topo::LinkId id, int dir,
                                    double window_s) const {
  if (window_s <= 0) return 0;
  const topo::Link* link = gen_.topo.link(id);
  if (!link) return 0;
  const auto& stats = link_runtime_.at(id).dirs[dir].stats;
  return (static_cast<double>(stats.bytes) * 8.0 / window_s) /
         link->capacity_bps;
}

std::uint64_t SimNetwork::total_link_drops() const noexcept {
  std::uint64_t total = 0;
  for (const auto& [id, runtime] : link_runtime_)
    for (const auto& dir_state : runtime.dirs)
      total += dir_state.stats.dropped_queue + dir_state.stats.dropped_down;
  return total;
}

}  // namespace zen::sim
