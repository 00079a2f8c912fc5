// SimNetwork: the discrete-event network substrate.
//
// Owns the dataplane switches, the hosts, and the link model, and moves
// frames between them under virtual time. Each link direction is a real
// transmitter: one frame serializes at a time, waiting frames sit in a
// two-class strict-priority DropTail queue (SetQueue >= 1 selects the
// priority class), so congestion, loss, serialization delay and QoS are
// all observable. A transmit-complete event is scheduled only while a
// frame waits behind the one on the wire, so a frame crossing an idle link
// costs one event (its arrival).
//
// The control plane is attached through a narrow seam: switch-originated
// events (PacketIn / PortStatus / FlowRemoved) are handed to a single
// callback as typed messages, and controller-originated operations enter
// through typed methods (flow_mod, packet_out, ...). The wire-protocol
// encoding/decoding and controller-latency modeling live one layer up, in
// the controller module, keeping this substrate protocol-agnostic.
#pragma once

#include <functional>
#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "dataplane/switch.h"
#include "sim/event_queue.h"
#include "sim/host.h"
#include "telemetry/switch_telemetry.h"
#include "topo/generators.h"

namespace zen::sim {

// Per-direction link counters. delivered, bytes and priority_delivered
// count frames that started serialising; a frame still waiting in the
// queue is in none of them, and a frame that never leaves (refused or
// pushed out by DropTail, or drained after the link died) is counted only
// in its drop counter.
struct LinkDirStats {
  std::uint64_t delivered = 0;
  std::uint64_t dropped_queue = 0;
  std::uint64_t dropped_down = 0;
  std::uint64_t bytes = 0;
  std::uint64_t priority_delivered = 0;  // frames sent via the priority class
};

struct SimOptions {
  dataplane::SwitchConfig switch_config;
  // Per-direction link queue (bytes). ~42 MTU-sized packets by default.
  double queue_bytes = 64 * 1024;
  // Interval for flow-timeout sweeps (0 disables).
  double expiry_interval_s = 1.0;
  // INT-style telemetry + sampled flow export (disabled by default, so a
  // plain simulation is bit-for-bit identical to one without telemetry).
  telemetry::Options telemetry;
  // Dataplane worker threads for the sharded packet engine. 0 or 1 runs
  // everything inline on the simulation thread (byte-identical to the
  // classic single-threaded simulator); N > 1 partitions switches across
  // N per-core engines and fans same-instant independent deliveries out
  // in parallel. Final state is identical for any value — see
  // EventQueue's two-phase sharded dispatch.
  unsigned engine_workers = 0;
  // Worker spin before parking (-1 = auto). Forwarded to the engine.
  int engine_spin = -1;
};

class SimNetwork {
 public:
  // Builds switches and hosts from the generated topology. Hosts get
  // MAC = from_u64(node id) and IP = 10.x.y.z derived from the host index.
  // Installs the event queue as the process time source (util::clock) so
  // logs and traces are stamped with virtual seconds.
  SimNetwork(topo::GeneratedTopo generated, SimOptions options = {});
  ~SimNetwork();
  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  EventQueue& events() noexcept { return events_; }
  double now() const noexcept { return events_.now(); }
  // The sharded packet engine (nullptr when engine_workers <= 1).
  ParallelEngine* engine() noexcept { return engine_.get(); }
  topo::Topology& topology() noexcept { return gen_.topo; }
  const topo::GeneratedTopo& generated() const noexcept { return gen_; }

  dataplane::Switch& switch_at(topo::NodeId id) { return *switches_.at(id); }
  SimHost& host_at(topo::NodeId id) { return *hosts_.at(id); }
  const std::unordered_map<topo::NodeId, std::unique_ptr<SimHost>>& hosts()
      const noexcept {
    return hosts_;
  }
  const std::unordered_map<topo::NodeId, std::unique_ptr<dataplane::Switch>>&
  switches() const noexcept {
    return switches_;
  }

  // Host lookup by IP (nullptr if unknown).
  SimHost* host_by_ip(net::Ipv4Address ip) noexcept;

  // ---- control seam ----
  // PacketIn / PortStatus / FlowRemoved from any switch.
  using DatapathEventFn =
      std::function<void(topo::NodeId sw, openflow::Message msg)>;
  // Replaces all handlers (single-controller setups).
  void set_datapath_event_handler(DatapathEventFn fn) {
    event_handlers_.clear();
    event_handlers_.push_back(std::move(fn));
  }
  // Adds a handler (multi-controller setups: every controller's agents see
  // every datapath event; role filtering happens in the agents).
  void add_datapath_event_handler(DatapathEventFn fn) {
    event_handlers_.push_back(std::move(fn));
  }

  // ---- telemetry ----
  // (Re)configures per-switch telemetry: builds SwitchTelemetry objects,
  // marks host-facing ports as edges, and starts the export sweep. Called
  // from the constructor when SimOptions.telemetry.enabled; callable later
  // to turn telemetry on for an already-built network.
  void configure_telemetry(const telemetry::Options& opts);
  // The per-switch telemetry object (nullptr when telemetry is off).
  telemetry::SwitchTelemetry* telemetry_at(topo::NodeId sw) noexcept {
    const auto it = telemetry_.find(sw);
    return it == telemetry_.end() ? nullptr : it->second.get();
  }

  dataplane::ModStatus flow_mod(topo::NodeId sw, const openflow::FlowMod& mod);
  dataplane::ModStatus group_mod(topo::NodeId sw, const openflow::GroupMod& mod);
  dataplane::ModStatus meter_mod(topo::NodeId sw, const openflow::MeterMod& mod);
  // Atomic multi-mod apply (bundle commit): members apply all-or-nothing
  // on the switch; FlowRemoved fan-out happens only when the bundle
  // commits (see dataplane::Switch::commit_bundle).
  dataplane::ModStatus commit_bundle(topo::NodeId sw,
                                     std::span<const openflow::Message> members);
  void packet_out(topo::NodeId sw, const openflow::PacketOut& msg);

  // ---- failure injection ----
  // Administratively set a link up/down now; emits PortStatus on both
  // switch endpoints. In-flight frames already scheduled still arrive.
  void set_link_admin_up(topo::LinkId id, bool up);
  void schedule_link_failure(topo::LinkId id, double at, double repair_after);

  // Switch crash: forwarding state is wiped immediately (Switch::reset),
  // every attached link goes down (peers see PortStatus), and the switch
  // stops forwarding, emitting datapath events, and answering its control
  // channel until reboot_switch(). The controller notices only through
  // heartbeat timeouts — exactly like a real power loss.
  void crash_switch(topo::NodeId id);
  // Powers the switch back on with empty tables and revives its links.
  // No announcement is made: the controller must re-handshake and
  // reconcile (FlowRuleStore audit) to repopulate it.
  void reboot_switch(topo::NodeId id);
  bool switch_up(topo::NodeId id) const noexcept {
    return !down_switches_.contains(id);
  }

  // ---- link observability ----
  // dir 0 = a->b, dir 1 = b->a.
  const LinkDirStats& link_stats(topo::LinkId id, int dir) const;
  double link_utilization(topo::LinkId id, int dir, double window_s) const;

  void run_until(double t) { events_.run_until(t); }

  // Total frames dropped anywhere (links + switches) — convergence checks.
  std::uint64_t total_link_drops() const noexcept;

 private:
  struct LinkDir {
    // Virtual time at which the frame on the wire finishes serialising;
    // the transmitter is idle from then on unless a frame is waiting.
    double busy_until = 0;
    // A transmit-complete event is scheduled at busy_until. Set exactly
    // while frames wait in the queues.
    bool completion_pending = false;
    std::deque<net::Bytes> queue_priority;
    std::deque<net::Bytes> queue_best_effort;
    double queued_bytes = 0;
    LinkDirStats stats;
  };
  struct LinkRuntime {
    LinkDir dirs[2];
  };

  void transmit(topo::NodeId from, std::uint32_t port, net::Bytes frame,
                std::uint32_t queue_id = 0, std::uint32_t in_port = 0);
  // Puts `frame` on the wire of `link` in direction `dir` now and
  // schedules its arrival at the far end.
  void start_transmission(const topo::Link& link, int dir, LinkDir& dir_state,
                          net::Bytes frame, bool priority);
  // The wire of one direction is free: starts the next waiting frame
  // (priority class first), dropping any queued behind a dead link.
  void on_transmit_complete(topo::LinkId link_id, int dir);
  // Schedules on_transmit_complete at the end of the frame on the wire.
  void schedule_completion(topo::LinkId link_id, int dir, LinkDir& dir_state);
  void deliver(topo::NodeId node, std::uint32_t port, net::Bytes frame);
  // Schedules the arrival of `frame` at `node` as a two-phase sharded
  // event keyed by the destination: the switch-lookup half (ingress) runs
  // in the compute phase on the node's shard, the side effects (transmit,
  // PacketIn fan-out, host delivery) in the apply phase on the
  // coordinator, in seq order.
  void schedule_delivery(double at, topo::NodeId node, std::uint32_t port,
                         net::Bytes frame);
  void handle_forward_result(topo::NodeId sw, dataplane::ForwardResult result);
  void schedule_expiry_sweep();
  void schedule_telemetry_sweep();
  // Drains vacancy TableStatus events from `sw` and fans them out to the
  // control seam as Experimenter messages.
  void flush_table_status(topo::NodeId sw);
  // Emits a pending export batch for `sw` (if any) to the control seam.
  void maybe_flush_telemetry(topo::NodeId sw);
  std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(events_.now() * 1e9);
  }

  topo::GeneratedTopo gen_;
  SimOptions options_;
  EventQueue events_;
  std::unique_ptr<ParallelEngine> engine_;  // after events_: torn down first
  std::unordered_map<topo::NodeId, std::unique_ptr<dataplane::Switch>> switches_;
  std::unordered_map<topo::NodeId, std::unique_ptr<SimHost>> hosts_;
  std::unordered_map<net::Ipv4Address, topo::NodeId> ip_to_host_;
  std::unordered_map<topo::LinkId, LinkRuntime> link_runtime_;
  std::vector<DatapathEventFn> event_handlers_;
  // Telemetry: per-switch state, plus host -> (edge switch, port) for
  // sink-side trailer stripping. telemetry_on_ gates every hot-path check
  // so runs without telemetry pay a single bool test.
  std::unordered_map<topo::NodeId, std::unique_ptr<telemetry::SwitchTelemetry>>
      telemetry_;
  std::unordered_map<topo::NodeId, topo::NodeId> host_edge_switch_;
  std::unordered_set<topo::NodeId> down_switches_;
  bool telemetry_on_ = false;
  std::uint64_t clock_token_ = 0;
};

// Deterministic addressing helpers (shared with the controller module).
net::MacAddress host_mac(topo::NodeId host_id);
net::Ipv4Address host_ip(topo::NodeId host_id);

}  // namespace zen::sim
