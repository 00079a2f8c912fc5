#include "controller/switch_agent.h"

#include <algorithm>

#include "obs/obs.h"
#include "util/logging.h"

namespace zen::controller {

namespace {

obs::Histo& pin_to_flow_mod_histo() {
  static obs::Histo& h = obs::MetricsRegistry::global().histo(
      "zen_controller_packet_in_to_flow_mod_us", "",
      "Virtual time from PacketIn emission to the FlowMod that answers it");
  return h;
}

obs::Slo& flow_setup_slo() {
  static obs::Slo& s = obs::SloMonitor::global().objective({
      .name = "flow_setup_p99",
      .target = 0.99,
      .latency_threshold_s = 0.020,
      .short_window_s = 5,
      .long_window_s = 30,
  });
  return s;
}

using SpanKey = obs::SpanTracer::Key;

// Verdict for a state-modifying message on a slave connection
// (OpenFlow's OFPBRC_IS_SLAVE).
constexpr dataplane::ModStatus kIsSlave{false, openflow::ErrorType::BadRequest,
                                        9};

}  // namespace

SwitchAgent::SwitchAgent(sim::SimNetwork& net, topo::NodeId dpid,
                         Channel& channel, std::uint64_t conn_id)
    : net_(net),
      dpid_(dpid),
      conn_id_(conn_id),
      southbound_(net.events(), channel, Channel::Side::B) {
  southbound_.set_batch_gate([this] {
    if (net_.switch_up(dpid_)) return true;
    // A crashed switch neither processes nor buffers: the agent process
    // died with it, taking every in-flight punt trace along.
    auto& tracer = obs::SpanTracer::global();
    for (const PendingPin& pin : pending_pins_) {
      tracer.take(obs::SpanTracer::key(SpanKey::kPacketIn, conn_id_, dpid_,
                                       pin.buffer_id));
      tracer.abandon_trace(pin.trace_root);
    }
    pending_pins_.clear();
    return false;
  });
  southbound_.set_bad_frame_handler([this](const std::string& err) {
    ZEN_LOG(Warn) << "switch " << dpid_ << ": bad frame: " << err;
    send_error(0, openflow::ErrorType::BadRequest, 0);
  });
  southbound_.set_receiver([this](std::vector<openflow::OwnedMessage> batch) {
    for (auto& owned : batch) handle(std::move(owned));
  });
  last_ctrl_msg_s_ = net_.now();
  const auto& cfg = net_.switch_at(dpid_).config();
  if (cfg.fail_timeout_s > 0) {
    net_.events().schedule_in(cfg.fail_timeout_s / 2,
                              [this] { check_fail_mode(); });
  }
}

void SwitchAgent::install_fallback() {
  openflow::FlowMod mod;
  mod.table_id = 0;
  mod.priority = 1;  // above the table-miss entry, below any real rule
  mod.importance = 0xffff;  // survivability rule: evict junk before it
  mod.instructions.push_back(openflow::ApplyActions{
      {openflow::OutputAction{openflow::Ports::kNormal}}});
  if (net_.flow_mod(dpid_, mod).ok) {
    fallback_installed_ = true;
    fallback_boot_id_ = net_.switch_at(dpid_).boot_count();
    ZEN_LOG(Info) << "switch " << dpid_
                  << ": standalone fallback installed (controller lost)";
  }
}

void SwitchAgent::remove_fallback() {
  openflow::FlowMod mod;
  mod.command = openflow::FlowModCommand::DeleteStrict;
  mod.table_id = 0;
  mod.priority = 1;
  net_.flow_mod(dpid_, mod);
  fallback_installed_ = false;
  ZEN_LOG(Info) << "switch " << dpid_
                << ": standalone fallback removed (controller back)";
}

void SwitchAgent::check_fail_mode() {
  const auto& cfg = net_.switch_at(dpid_).config();
  net_.events().schedule_in(cfg.fail_timeout_s / 2,
                            [this] { check_fail_mode(); });
  if (!net_.switch_up(dpid_)) return;  // crashed: nothing to do until reboot
  // A power cycle wiped the fallback along with everything else.
  if (fallback_installed_ &&
      net_.switch_at(dpid_).boot_count() != fallback_boot_id_)
    fallback_installed_ = false;

  if (net_.now() - last_ctrl_msg_s_ < cfg.fail_timeout_s) return;
  if (!session_lost_) {
    session_lost_ = true;
    ZEN_LOG(Warn) << "switch " << dpid_ << ": controller session lost ("
                  << (cfg.fail_mode == dataplane::FailMode::Standalone
                          ? "standalone"
                          : "secure")
                  << " fail mode)";
  }
  // Secure: freeze — keep the tables as they are, install nothing.
  // Standalone: keep trying until the fallback sticks (a full table can
  // reject it until eviction frees a slot).
  if (cfg.fail_mode == dataplane::FailMode::Standalone && !fallback_installed_)
    install_fallback();
}

openflow::ControllerRole SwitchAgent::role() const {
  return net_.switch_at(dpid_).controller_role(conn_id_);
}

void SwitchAgent::reply(const openflow::Message& msg, openflow::Xid xid) {
  southbound_.send(msg, xid);
}

void SwitchAgent::send_error(openflow::Xid xid, openflow::ErrorType type,
                             std::uint16_t code) {
  openflow::ErrorMsg err;
  err.type = type;
  err.code = code;
  reply(openflow::Message{std::move(err)}, xid);
}

void SwitchAgent::on_datapath_event(openflow::Message msg) {
  // A crashed switch is silent.
  if (!net_.switch_up(dpid_)) return;
  // Slaves get port status only; PacketIns and FlowRemoved go to the
  // master/equal connections (OF 1.3 asynchronous-message filtering).
  if (role() == openflow::ControllerRole::Slave &&
      !std::holds_alternative<openflow::PortStatus>(msg))
    return;
  if (const auto* pin = std::get_if<openflow::PacketIn>(&msg);
      pin && pin->buffer_id != openflow::kNoBuffer) {
    auto& tracer = obs::SpanTracer::global();
    if (pending_pins_.size() >= kMaxPendingPins) {
      tracer.take(obs::SpanTracer::key(SpanKey::kPacketIn, conn_id_, dpid_,
                                       pending_pins_.front().buffer_id));
      tracer.abandon_trace(pending_pins_.front().trace_root);
      pending_pins_.pop_front();
    }
    // A flow_setup trace is born with the punt; the punt span rides the
    // buffer_id to the controller, which picks it up at dispatch.
    obs::SpanContext root;
    if (tracer.enabled()) {
      root = tracer.start_trace("flow_setup", "trace");
      const obs::SpanContext punt =
          tracer.start_span("packet_in.channel", "trace", root);
      tracer.bind(obs::SpanTracer::key(SpanKey::kPacketIn, conn_id_, dpid_,
                                       pin->buffer_id),
                  punt);
    }
    pending_pins_.push_back({pin->buffer_id, net_.now(), root});
  }
  reply(msg, next_xid_++);
}

bool SwitchAgent::already_committed(std::uint32_t bundle_id) const noexcept {
  return std::find(committed_bundles_.begin(), committed_bundles_.end(),
                   bundle_id) != committed_bundles_.end();
}

void SwitchAgent::handle_bundle(const openflow::Experimenter& exp,
                                openflow::Xid xid) {
  using namespace openflow;
  auto parsed = parse_bundle_message(exp);
  if (!parsed.ok()) {
    ZEN_LOG(Warn) << "switch " << dpid_ << ": bad bundle message: "
                  << parsed.error();
    send_error(xid, ErrorType::BadRequest, 0);
    return;
  }
  // Bundles modify state: slave connections may not touch them. Only the
  // commit is tracked, but rejecting open/add early keeps a slave from
  // even staging.
  if (role() == ControllerRole::Slave) {
    settle(xid, kIsSlave);
    return;
  }

  std::visit(
      [&](auto& bm) {
        using T = std::decay_t<decltype(bm)>;
        if constexpr (std::is_same_v<T, BundleOpen>) {
          if (open_bundles_.size() >= kMaxOpenBundles &&
              !open_bundles_.count(bm.bundle_id)) {
            // Evict the oldest staging area; its commit will see
            // kUnknownBundle and the controller retries whole.
            open_bundles_.erase(open_bundles_.begin());
          }
          // (Re)open resets staging — a retransmitted open is idempotent.
          open_bundles_[bm.bundle_id].clear();
        } else if constexpr (std::is_same_v<T, BundleAdd>) {
          auto it = open_bundles_.find(bm.bundle_id);
          if (it == open_bundles_.end()) {
            // A duplicated add arriving after its bundle committed is
            // stale channel noise, not an error.
            if (already_committed(bm.bundle_id)) return;
            send_error(xid, ErrorType::BundleFailed,
                       bundle_failed_code::kUnknownBundle);
            return;
          }
          if (it->second.size() >= kMaxBundleMembers &&
              !it->second.count(bm.member_index)) {
            open_bundles_.erase(it);
            send_error(xid, ErrorType::BundleFailed,
                       bundle_failed_code::kTooManyMembers);
            return;
          }
          // Keyed by member_index: a duplicated add overwrites its own
          // slot instead of growing the bundle.
          it->second.insert_or_assign(bm.member_index, std::move(bm.member));
        } else if constexpr (std::is_same_v<T, BundleCommit>) {
          if (already_committed(bm.bundle_id)) {
            // Retransmitted commit for an applied bundle: ack again, apply
            // nothing.
            settle(xid, {});
            return;
          }
          auto it = open_bundles_.find(bm.bundle_id);
          if (it == open_bundles_.end()) {
            settle(xid, {false, ErrorType::BundleFailed,
                         bundle_failed_code::kUnknownBundle});
            return;
          }
          // Complete iff members 0..n-1 are all staged (map is ordered).
          const bool complete =
              it->second.size() == bm.n_members &&
              (bm.n_members == 0 ||
               std::prev(it->second.end())->first == bm.n_members - 1);
          if (!complete) {
            open_bundles_.erase(it);
            settle(xid, {false, ErrorType::BundleFailed,
                         bundle_failed_code::kBundleIncomplete});
            return;
          }
          std::vector<Message> members;
          members.reserve(it->second.size());
          for (auto& [idx, member] : it->second)
            members.push_back(std::move(member));
          open_bundles_.erase(it);
          // A failure surfaces the failing member's own error type/code,
          // so the controller's repair ladders (e.g. TableFull) see exactly
          // what a lone mod would have produced.
          const auto status = net_.commit_bundle(dpid_, members);
          if (status.ok) {
            if (committed_bundles_.size() >= kMaxCommittedBundles)
              committed_bundles_.pop_front();
            committed_bundles_.push_back(bm.bundle_id);
          }
          settle(xid, status);
        } else if constexpr (std::is_same_v<T, BundleDiscard>) {
          open_bundles_.erase(bm.bundle_id);
        }
      },
      parsed.value());
}

void SwitchAgent::handle(openflow::OwnedMessage owned) {
  using namespace openflow;
  auto& sw = net_.switch_at(dpid_);
  const openflow::Xid xid = owned.xid;

  // Any decoded controller message proves the session is alive again.
  last_ctrl_msg_s_ = net_.now();
  if (session_lost_) {
    session_lost_ = false;
    ZEN_LOG(Info) << "switch " << dpid_ << ": controller session restored";
    if (fallback_installed_ && sw.boot_count() == fallback_boot_id_)
      remove_fallback();
    fallback_installed_ = false;
  }

  // A power cycle wiped every rule the recorded acks vouch for: a barrier
  // after reboot must not ack pre-crash mods, or the controller would
  // believe rules survive that the crash erased. Staged bundles died with
  // the agent process, and committed ids refer to wiped state.
  if (sw.boot_count() != last_boot_id_) {
    acked_mods_.clear();
    open_bundles_.clear();
    committed_bundles_.clear();
    last_boot_id_ = sw.boot_count();
  }

  // Role enforcement: a slave connection may not modify state.
  const bool is_slave = role() == ControllerRole::Slave;

  std::visit(
      [&](auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, FlowMod> || std::is_same_v<T, GroupMod> ||
                      std::is_same_v<T, MeterMod> || std::is_same_v<T, PacketOut>) {
          if (is_slave) {
            settle(xid, kIsSlave);
            return;
          }
        }
        if constexpr (std::is_same_v<T, Hello>) {
          reply(Message{Hello{}}, xid);
        } else if constexpr (std::is_same_v<T, EchoRequest>) {
          reply(Message{EchoReply{std::move(msg.data), sw.boot_count()}}, xid);
        } else if constexpr (std::is_same_v<T, FeaturesRequest>) {
          reply(Message{sw.features()}, xid);
        } else if constexpr (std::is_same_v<T, FlowMod>) {
          // Service-latency sample: a FlowMod echoing a punt's buffer_id
          // answers that PacketIn (wire round trip + controller
          // processing). Proactive mods carry kNoBuffer and don't count.
          if (msg.buffer_id != openflow::kNoBuffer) {
            for (auto it = pending_pins_.begin(); it != pending_pins_.end();
                 ++it) {
              if (it->buffer_id != msg.buffer_id) continue;
              const double dt_s = net_.now() - it->sent_s;
              pin_to_flow_mod_histo().record(dt_s * 1e6);
              flow_setup_slo().record_latency(dt_s);
              ZEN_TRACE_INSTANT("flow_mod_applied", "controller");
              pending_pins_.erase(it);
              break;
            }
          }
          settle(xid, net_.flow_mod(dpid_, msg));
        } else if constexpr (std::is_same_v<T, GroupMod>) {
          settle(xid, net_.group_mod(dpid_, msg));
        } else if constexpr (std::is_same_v<T, MeterMod>) {
          settle(xid, net_.meter_mod(dpid_, msg));
        } else if constexpr (std::is_same_v<T, PacketOut>) {
          // A PacketOut answering a buffered punt consumes the buffer: the
          // punt can no longer be answered by a FlowMod (flood decisions).
          for (auto it = pending_pins_.begin(); it != pending_pins_.end();
               ++it) {
            if (it->buffer_id != msg.buffer_id) continue;
            pending_pins_.erase(it);
            break;
          }
          net_.packet_out(dpid_, msg);
          settle(xid, {});
        } else if constexpr (std::is_same_v<T, BarrierRequest>) {
          reply(Message{BarrierReply{
                    {acked_mods_.begin(), acked_mods_.end()}}},
                xid);
        } else if constexpr (std::is_same_v<T, FlowStatsRequest>) {
          reply(Message{sw.flow_stats(msg, net_.now())}, xid);
        } else if constexpr (std::is_same_v<T, PortStatsRequest>) {
          reply(Message{sw.port_stats(msg)}, xid);
        } else if constexpr (std::is_same_v<T, TableStatsRequest>) {
          reply(Message{sw.table_stats()}, xid);
        } else if constexpr (std::is_same_v<T, RoleRequest>) {
          RoleReply role_reply;
          role_reply.generation_id = msg.generation_id;
          const auto granted =
              sw.set_controller_role(conn_id_, msg.role, msg.generation_id);
          if (granted) {
            role_reply.role = *granted;
            role_reply.accepted = true;
          } else {
            role_reply.role = sw.controller_role(conn_id_);
            role_reply.accepted = false;  // stale generation
          }
          reply(Message{role_reply}, xid);
        } else if constexpr (std::is_same_v<T, Experimenter>) {
          if (msg.experimenter_id == kBundleExperimenterId) {
            handle_bundle(msg, xid);
          } else {
            send_error(xid, ErrorType::BadRequest, 0);
          }
        } else if constexpr (std::is_same_v<T, EchoReply> ||
                             std::is_same_v<T, ErrorMsg>) {
          // fine, no action
        } else {
          send_error(xid, ErrorType::BadRequest, 0);
        }
      },
      owned.msg);
}

void SwitchAgent::settle(openflow::Xid xid,
                         const dataplane::ModStatus& status) {
  if (status.ok) {
    // Ack only state that actually changed: rejected mods resolve through
    // their Error, never through a barrier ack (a lost Error then leads to
    // a retransmit, not a false success).
    if (acked_mods_.size() >= kMaxAckedMods) acked_mods_.pop_front();
    acked_mods_.push_back(xid);
  } else {
    obs::FlightRecorder::global().record(
        obs::FlightEventKind::kModRejected, dpid_,
        (static_cast<std::uint64_t>(status.error_type) << 16) |
            status.error_code);
    send_error(xid, status.error_type, status.error_code);
  }
  close_southbound_span(xid, status.ok);
}

void SwitchAgent::close_southbound_span(openflow::Xid xid, bool applied) {
  auto& tracer = obs::SpanTracer::global();
  const std::uint64_t tracked =
      obs::SpanTracer::key(SpanKey::kModTracked, conn_id_, dpid_, xid);
  if (obs::SpanContext mod = tracer.take(tracked); mod.valid()) {
    if (!applied) {
      // The Error resolves the completion; the controller closes the trace.
      tracer.annotate(mod, "rejected");
      tracer.end_span(mod);
      return;
    }
    // Applied: the mod span (encode + channel + apply) ends here and the
    // barrier_ack span takes over until the controller's ack window
    // resolves the xid.
    const obs::SpanContext parent = tracer.end_span(mod);
    const obs::SpanContext ack =
        tracer.start_span("barrier_ack", "trace", parent);
    tracer.bind(obs::SpanTracer::key(SpanKey::kAck, conn_id_, dpid_, xid),
                ack);
    return;
  }
  const std::uint64_t untracked =
      obs::SpanTracer::key(SpanKey::kModUntracked, conn_id_, dpid_, xid);
  if (obs::SpanContext mod = tracer.take(untracked); mod.valid()) {
    if (!applied) tracer.annotate(mod, "rejected");
    const obs::SpanContext parent = tracer.end_span(mod);
    // Fire-and-forget: no ack will close this trace, so the last
    // southbound span to finish does.
    if (tracer.open_span_count(parent) == 1) tracer.end_trace(parent);
  }
}

}  // namespace zen::controller
