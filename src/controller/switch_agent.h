// SwitchAgent: the protocol shim that lives "on" a switch.
//
// Translates wire messages from the controller into typed calls on the
// simulated datapath, and encodes datapath events (PacketIn, PortStatus,
// FlowRemoved) back onto the wire. One agent per switch. All wire traffic
// flows through a Southbound facade: requests arrive as decoded batches,
// and replies generated while a batch is processed coalesce into one
// response flush. Every state-modifying message, lone or a bundle commit,
// ends in settle(): ack or reject, then close its span.
#pragma once

#include <cstdint>
#include <deque>
#include <map>

#include "controller/channel.h"
#include "controller/southbound.h"
#include "obs/span.h"
#include "openflow/bundle.h"
#include "openflow/wire.h"
#include "sim/network.h"

namespace zen::controller {

class SwitchAgent {
 public:
  // `conn_id` identifies this controller connection for role arbitration
  // (multi-controller redundancy).
  SwitchAgent(sim::SimNetwork& net, topo::NodeId dpid, Channel& channel,
              std::uint64_t conn_id = 0);

  // Called by the network seam when the datapath raises an event.
  // Role filtering: slaves receive PortStatus only.
  void on_datapath_event(openflow::Message msg);

  topo::NodeId dpid() const noexcept { return dpid_; }

  // Controller xids of state-modifying messages (FlowMod / GroupMod /
  // MeterMod / PacketOut / bundle commits) this agent successfully
  // processed, oldest first. Echoed in every BarrierReply as an explicit
  // per-xid ack: a barrier that overtakes a lost mod replies without the
  // mod's xid, so the controller re-sends instead of false-acking — and a
  // delivered later mod can never vouch for an earlier lost one (which a
  // high-water mark would). Bounded at kMaxAckedMods: an entry aged out
  // while its completion was still pending is recovered by the
  // controller's retransmit (fresh xid). Rejected mods (slave connection,
  // dataplane error) are *not* acked; their Error is the resolution.
  const std::deque<openflow::Xid>& acked_mods() const noexcept {
    return acked_mods_;
  }

  static constexpr std::size_t kMaxAckedMods = 1024;
  // Bundle staging bounds: a controller bug or replayed traffic cannot
  // pin unbounded memory on the switch.
  static constexpr std::size_t kMaxOpenBundles = 16;
  static constexpr std::size_t kMaxBundleMembers = 256;
  static constexpr std::size_t kMaxCommittedBundles = 64;

  // Fail-mode state (meaningful when SwitchConfig.fail_timeout_s > 0):
  // true while the agent considers the controller session dead.
  bool controller_session_lost() const noexcept { return session_lost_; }
  // True while the Standalone fallback rule is installed in the datapath.
  bool standalone_active() const noexcept { return fallback_installed_; }

  std::size_t open_bundle_count() const noexcept {
    return open_bundles_.size();
  }

 private:
  openflow::ControllerRole role() const;

  // Periodic controller-liveness check (armed when fail_timeout_s > 0):
  // after fail_timeout_s of controller silence the session is declared
  // lost. Secure freezes the tables (does nothing); Standalone installs a
  // low-priority match-all NORMAL rule so new flows keep forwarding via
  // L2 learning. The first controller message after the outage removes it.
  void check_fail_mode();
  void install_fallback();
  void remove_fallback();

  void handle(openflow::OwnedMessage owned);
  // Bundle open/add/commit/discard, unwrapped from the Experimenter
  // envelope. Commit is the only tracked op: it acks (or errors) under
  // the commit's xid for the whole bundle.
  void handle_bundle(const openflow::Experimenter& exp, openflow::Xid xid);
  void reply(const openflow::Message& msg, openflow::Xid xid);
  void send_error(openflow::Xid xid, openflow::ErrorType type,
                  std::uint16_t code);
  // The one verdict path for a state-modifying message (mod, PacketOut,
  // bundle commit): applied, its xid joins the ack window; rejected, the
  // rejection is flight-recorded and answered with the Error. Either way
  // its southbound span closes.
  void settle(openflow::Xid xid, const dataplane::ModStatus& status);
  // Ends the causal span the controller bound under this mod's xid. For an
  // applied tracked mod the agent opens the barrier_ack span in its place;
  // an applied untracked (fire-and-forget) mod closes its whole trace here,
  // since no ack will.
  void close_southbound_span(openflow::Xid xid, bool applied);

  bool already_committed(std::uint32_t bundle_id) const noexcept;

  sim::SimNetwork& net_;
  topo::NodeId dpid_;
  std::uint64_t conn_id_;
  Southbound southbound_;
  openflow::Xid next_xid_ = 1;
  std::deque<openflow::Xid> acked_mods_;
  // Switch boot count last observed; a change means the datapath power-
  // cycled, so every recorded ack refers to wiped state and must go.
  std::uint64_t last_boot_id_ = 0;

  // Bundle staging: id → (member_index → member). std::map keeps members
  // in index order, so commit applies them in controller order and the
  // completeness check is size + last key.
  std::map<std::uint32_t, std::map<std::uint32_t, openflow::Message>>
      open_bundles_;
  // Recently committed bundle ids: a retransmitted commit acks
  // idempotently instead of double-applying.
  std::deque<std::uint32_t> committed_bundles_;

  // Virtual send times of buffered PacketIns awaiting a FlowMod answer,
  // correlated by buffer_id (reactive apps echo the punt's buffer_id in
  // the FlowMod they install); feeds the packet-in -> flow-mod
  // service-latency histogram. Bounded: punts the controller never
  // answers with a FlowMod age out at the front.
  struct PendingPin {
    std::uint32_t buffer_id;
    double sent_s;
    // Root span of the flow_setup trace born with this punt; abandoned if
    // the pin ages out or the switch crashes before an answer arrives.
    obs::SpanContext trace_root;
  };
  std::deque<PendingPin> pending_pins_;
  static constexpr std::size_t kMaxPendingPins = 1024;

  // Fail-mode tracking.
  double last_ctrl_msg_s_ = 0;
  bool session_lost_ = false;
  bool fallback_installed_ = false;
  // Boot count when the fallback went in: a crash wipes the rule, so a
  // changed boot count must clear fallback_installed_ too.
  std::uint64_t fallback_boot_id_ = 0;
};

}  // namespace zen::controller
