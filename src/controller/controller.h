// Controller: the control plane runtime (ONOS/Ryu analog).
//
// One Controller manages every switch in a SimNetwork through per-switch
// wire channels (see channel.h): connect_all() performs the
// Hello/FeaturesRequest handshake, after which events flow northbound to
// registered Apps and apps program switches through the typed southbound
// API (flow_mod, packet_out, ...). Each call stages an encoded frame, and
// the frames of one simulation instant cross the wire as one flushed
// batch with channel latency applied (see southbound.h).
//
// App dispatch: PacketIns run through the app chain in registration order
// until one returns true ("handled"). Other events are broadcast to all.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "controller/channel.h"
#include "controller/network_view.h"
#include "controller/southbound.h"
#include "controller/switch_agent.h"
#include "net/packet.h"
#include "openflow/wire.h"
#include "sim/network.h"

namespace zen::obs {
class Counter;
}

namespace zen::controller {

class Controller;
class FlowRuleStore;

// Completion callback for transactional southbound sends: invoked exactly
// once with nullopt on success (the switch processed the message, confirmed
// by barrier) or with the Error that killed it — a switch-reported error,
// or a synthetic one (timeout after retries, switch declared down).
using CompletionFn =
    std::function<void(const std::optional<openflow::Error>&)>;

// Codes used in synthetic completion errors (type == ErrorType::BadRequest).
namespace completion_code {
inline constexpr std::uint16_t kTimedOut = 0xfffe;
inline constexpr std::uint16_t kSwitchDown = 0xfffd;
}  // namespace completion_code

struct PacketInEvent {
  Dpid dpid = 0;
  const openflow::PacketIn* pin = nullptr;
  const net::ParsedPacket* parsed = nullptr;  // null if the frame is opaque
};

struct LinkEvent {
  DiscoveredLink link;
  bool up = true;
};

// Base class for control applications.
class App {
 public:
  virtual ~App() = default;
  virtual std::string name() const = 0;

  // Called once when the app is registered; keep the reference.
  virtual void init(Controller& controller) { controller_ = &controller; }

  virtual void on_switch_up(Dpid, const openflow::FeaturesReply&) {}
  // Fired when the controller declares a switch dead (heartbeat misses).
  // The NetworkView has already dropped the switch and its links.
  virtual void on_switch_down(Dpid) {}
  // Fired for every southbound Error, after any completion callback for
  // the offending xid has run.
  virtual void on_error(Dpid, const openflow::Error&) {}
  // Return true to stop the dispatch chain (packet consumed).
  virtual bool on_packet_in(const PacketInEvent&) { return false; }
  virtual void on_port_status(Dpid, const openflow::PortStatus&) {}
  virtual void on_flow_removed(Dpid, const openflow::FlowRemoved&) {}
  virtual void on_link_event(const LinkEvent&) {}
  virtual void on_host_discovered(const HostInfo&) {}
  // Vendor-extension messages (e.g. zen_telemetry export batches). Vacancy
  // TableStatus experimenter messages are decoded by the controller and
  // arrive via on_table_status instead.
  virtual void on_experimenter(Dpid, const openflow::Experimenter&) {}
  // Vacancy event: a switch table crossed its occupancy threshold. The
  // NetworkView has already recorded it (view().under_pressure(dpid)).
  virtual void on_table_status(Dpid, const openflow::TableStatus&) {}

 protected:
  Controller* controller_ = nullptr;
};

struct ControllerStats {
  std::uint64_t packet_ins = 0;
  std::uint64_t flow_mods_sent = 0;
  std::uint64_t packet_outs_sent = 0;
  std::uint64_t group_mods_sent = 0;
  std::uint64_t meter_mods_sent = 0;
  std::uint64_t errors_received = 0;
  std::uint64_t retransmits = 0;        // tracked sends re-sent after timeout
  std::uint64_t completions_failed = 0; // completions resolved with an error
  std::uint64_t switch_down_events = 0; // liveness declared a switch dead
};

class Controller {
 public:
  struct Options {
    // One-way channel latency (switch <-> controller).
    double channel_latency_s = 100e-6;
    // Controller-side processing delay applied before dispatching an
    // incoming message to apps (models scheduling + deserialization).
    double processing_delay_s = 10e-6;

    // ---- transactional southbound ----
    // A tracked send (one with a completion callback) is followed by a
    // barrier; if neither a barrier ack of the send's xid nor an error
    // arrives within the timeout it is re-sent under a fresh xid, up to
    // max_attempts, then failed with a synthetic timeout error.
    double completion_timeout_s = 0.02;
    int completion_max_attempts = 4;

    // ---- southbound liveness ----
    // Echo-request heartbeat period per connected switch; after
    // echo_miss_limit consecutive unanswered echoes the switch is
    // declared down (0 disables heartbeats entirely).
    double echo_interval_s = 0.5;
    int echo_miss_limit = 3;
    // FeaturesRequest is re-sent if the reply doesn't arrive in time
    // (lost-reply recovery); between attempts the delay grows
    // exponentially from backoff_initial to backoff_max.
    double handshake_timeout_s = 0.25;
    double reconnect_backoff_initial_s = 0.2;
    double reconnect_backoff_max_s = 2.0;
  };

  explicit Controller(sim::SimNetwork& net) : Controller(net, Options()) {}
  Controller(sim::SimNetwork& net, Options options);
  ~Controller();  // out of line: FlowRuleStore is incomplete here

  // Registers an app (dispatch order = registration order).
  template <typename T, typename... Args>
  T& add_app(Args&&... args) {
    auto app = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *app;
    apps_.push_back(std::move(app));
    apps_.back()->init(*this);
    register_app_metrics(*apps_.back());
    return ref;
  }

  // Creates channels + agents for every switch and runs the handshake.
  // (Events must then be pumped: net.events().run_until(...).)
  void connect_all();
  // Same, for an explicit subset of switches (delegated controllers that
  // only ever talk to their own group). Unknown dpids are skipped.
  void connect(const std::vector<Dpid>& dpids);

  // Kills this controller instance: no further southbound sends, no
  // incoming dispatch, every timer epoch retired. Channels stay connected
  // on purpose — frames already in flight (including jitter-delayed
  // zombie writes from a controller that believed itself master) still
  // arrive at the agents, where role fencing must reject them. This is
  // the failure-injection entry point for whole-controller crash tests;
  // there is no un-halt.
  void halt();
  bool halted() const noexcept { return halted_; }

  // ---- southbound API (all cross the wire) ----
  // Each send is assigned an xid (returned). With a completion callback
  // the send becomes transactional: a barrier chases it and `done` fires
  // once with the outcome (see CompletionFn); lost messages are re-sent.
  // Without one the send is fire-and-forget, exactly as before.
  openflow::Xid flow_mod(Dpid dpid, const openflow::FlowMod& mod,
                         CompletionFn done = nullptr);
  openflow::Xid group_mod(Dpid dpid, const openflow::GroupMod& mod,
                          CompletionFn done = nullptr);
  openflow::Xid meter_mod(Dpid dpid, const openflow::MeterMod& mod,
                          CompletionFn done = nullptr);
  openflow::Xid packet_out(Dpid dpid, const openflow::PacketOut& msg,
                           CompletionFn done = nullptr);

  // Atomic multi-mod install: members (FlowMod / GroupMod / MeterMod)
  // apply all-or-nothing on the switch, with one ack for the whole
  // bundle. `done` fires once: nullopt when every member applied, or the
  // error that failed the bundle — for a failing member, that member's
  // own error (e.g. FlowModFailed/kTableFull); bundle-mechanism failures
  // (lost adds under channel faults) are retried internally before
  // surfacing. Returns the commit's xid (0 for an empty bundle, which
  // trivially succeeds).
  openflow::Xid commit_bundle(Dpid dpid,
                              std::vector<openflow::Message> members,
                              CompletionFn done = nullptr);

  // Barrier/stats/role callbacks have an error path: when the switch is
  // declared down before the reply arrives they fire with ok=false
  // (respectively a null reply) instead of silently never firing. A
  // request to a switch already declared down fails the same way at once.
  using BarrierFn = std::function<void(bool ok)>;
  void barrier(Dpid dpid, BarrierFn done);

  // The reply pointer is null when the switch died before answering; it
  // is only valid for the duration of the callback.
  using FlowStatsFn = std::function<void(const openflow::FlowStatsReply*)>;
  void request_flow_stats(Dpid dpid, const openflow::FlowStatsRequest& req,
                          FlowStatsFn done);
  using PortStatsFn = std::function<void(const openflow::PortStatsReply*)>;
  void request_port_stats(Dpid dpid, const openflow::PortStatsRequest& req,
                          PortStatsFn done);

  // ---- multi-controller roles ----
  // Requests a role on one switch. `done` receives the switch's reply
  // (granted role + accepted flag), or null if the switch was declared
  // down before answering. Master requests use a generation id; pass a
  // value larger than any previous master's to win the election.
  using RoleFn = std::function<void(const openflow::RoleReply*)>;
  void request_role(Dpid dpid, openflow::ControllerRole role,
                    std::uint64_t generation_id, RoleFn done = nullptr);

  // Aggregate outcome of a multi-switch role request. Every targeted
  // switch lands in exactly one bucket (each sorted ascending): granted,
  // refused (the switch answered accepted=false — stale generation id), or
  // down (no session / declared down before answering).
  struct RoleAllResult {
    openflow::ControllerRole role = openflow::ControllerRole::Equal;
    std::uint64_t generation_id = 0;
    std::vector<Dpid> granted;
    std::vector<Dpid> refused;
    std::vector<Dpid> down;
    bool all_granted() const noexcept {
      return refused.empty() && down.empty();
    }
  };
  using RoleAllFn = std::function<void(const RoleAllResult&)>;
  // Requests a role on every connected switch. `done` (optional) fires
  // exactly once with the aggregate result — per-switch failures are
  // surfaced, never silently dropped.
  void request_role_all(openflow::ControllerRole role,
                        std::uint64_t generation_id, RoleAllFn done = nullptr);
  // Same, for an explicit switch subset (failover adopts one dead group's
  // switches without touching the requester's standing roles elsewhere).
  void request_role_many(const std::vector<Dpid>& dpids,
                         openflow::ControllerRole role,
                         std::uint64_t generation_id,
                         RoleAllFn done = nullptr);
  // Last role granted by the switch (Equal if never negotiated).
  openflow::ControllerRole role(Dpid dpid) const;

  // Convenience wrappers.
  void install_table_miss(Dpid dpid, std::uint8_t table_id = 0);
  void flood_packet(Dpid dpid, std::uint32_t in_port, const openflow::Bytes& data,
                    std::uint32_t buffer_id = openflow::kNoBuffer);

  // ---- fault tolerance ----
  // Liveness as the controller sees it: true once the handshake completed
  // and heartbeats haven't declared the switch dead since.
  bool switch_alive(Dpid dpid) const noexcept;
  // Cookie-keyed record of intended flow state per switch; installs routed
  // through it can be audited and repaired after crashes (see
  // flow_rule_store.h).
  FlowRuleStore& rule_store() noexcept { return *rule_store_; }
  // Applies / clears seeded loss, duplication and jitter on every
  // session's control channel (chaos experiments). Per-channel seeds are
  // derived from faults.seed + dpid so channels don't fail in lockstep.
  void set_channel_faults(const ChannelFaults& faults);
  void clear_channel_faults();

  // The switch-side agent of a connected switch (nullptr if never
  // connected). Exposes fail-mode state — controller_session_lost(),
  // standalone_active() — to experiments and tests.
  const SwitchAgent* agent(Dpid dpid) const noexcept;

  // ---- state ----
  NetworkView& view() noexcept { return view_; }
  const NetworkView& view() const noexcept { return view_; }
  sim::SimNetwork& network() noexcept { return net_; }
  sim::EventQueue& events() noexcept { return net_.events(); }
  double now() const noexcept { return net_.now(); }
  const ControllerStats& stats() const noexcept { return stats_; }
  const Options& options() const noexcept { return options_; }

  // Identifies this controller's switch connections (role arbitration).
  std::uint64_t conn_id() const noexcept { return conn_id_; }

  // Re-requests features from an already-connected switch. Used when a
  // scoped view grows (group adoption): the fresh FeaturesReply admits the
  // switch into the view and fires on_switch_up as if it had just joined.
  void refresh_features(Dpid dpid);

  // Notification hooks used by system apps (discovery).
  void notify_link_event(const LinkEvent& ev);
  // Externally supplied host knowledge (e.g. a cluster coordinator's host
  // directory during group adoption): learns the host into the view and,
  // if that changed anything, announces it to apps like a snooped one.
  void notify_host(const HostInfo& host);

  // Observation hook: invoked synchronously for every FlowMod and GroupMod
  // in send order, before encoding. Determinism tests fingerprint the
  // southbound stream with it; pass nullptr to clear.
  using SouthboundTap = std::function<void(Dpid, const openflow::Message&)>;
  void set_southbound_tap(SouthboundTap tap) {
    southbound_tap_ = std::move(tap);
  }

 private:
  struct PendingCompletion {
    openflow::Message msg;  // kept for re-send after a timeout
    CompletionFn done;
    int attempts = 1;
    // Causal span of the mod (see obs/span.h): resolution — ack, error,
    // timeout, switch down — closes it and, once no sibling southbound
    // span remains open, the whole trace.
    obs::SpanContext span;
  };

  struct Session {
    std::unique_ptr<Channel> channel;
    std::unique_ptr<Southbound> southbound;
    std::unique_ptr<SwitchAgent> agent;
    openflow::Xid next_xid = 1;
    // True while a coalesced chasing barrier is scheduled for the current
    // simulation instant (one barrier acks every tracked send of the
    // instant).
    bool barrier_scheduled = false;
    bool features_known = false;
    // Liveness: alive flips true on FeaturesReply, false when heartbeats
    // declare the switch dead. ever_up distinguishes "still handshaking"
    // from "was up, now down". epoch invalidates timers from past lives.
    bool alive = false;
    bool ever_up = false;
    std::uint64_t epoch = 0;
    // Switch boot epoch from the last FeaturesReply; an EchoReply carrying
    // a different one means the switch crash/rebooted faster than the
    // heartbeat-miss window could notice — torn down and re-audited.
    std::uint64_t boot_id = 0;
    int echo_misses = 0;
    bool echo_outstanding = false;
    double backoff_s = 0;
    std::unordered_map<openflow::Xid, PendingCompletion> pending_completions;
    std::unordered_map<openflow::Xid, BarrierFn> pending_barriers;
    std::unordered_map<openflow::Xid, FlowStatsFn> pending_flow_stats;
    std::unordered_map<openflow::Xid, PortStatsFn> pending_port_stats;
    std::unordered_map<openflow::Xid, RoleFn> pending_roles;
    openflow::ControllerRole granted_role = openflow::ControllerRole::Equal;
  };

  void send(Dpid dpid, const openflow::Message& msg, openflow::Xid xid);
  openflow::Xid next_xid(Dpid dpid);
  void register_app_metrics(const App& app);
  void on_batch(Dpid dpid, std::vector<openflow::OwnedMessage> batch);
  void dispatch(Dpid dpid, openflow::OwnedMessage owned);
  // Arranges the barrier that chases tracked sends: scheduled once per
  // instant (zero-delay event, staged into the same flush).
  void request_chasing_barrier(Dpid dpid);
  openflow::Xid send_bundle_attempt(
      Dpid dpid, std::shared_ptr<const std::vector<openflow::Message>> members,
      int attempt, CompletionFn done, obs::SpanContext span);
  void handle_packet_in(Dpid dpid, const openflow::PacketIn& pin);
  void learn_host_from(Dpid dpid, const openflow::PacketIn& pin,
                       const net::ParsedPacket& parsed);
  void handle_features_reply(Dpid dpid, Session& session,
                             const openflow::FeaturesReply& msg);
  // Transactional sends.
  openflow::Xid send_tracked(Dpid dpid, openflow::Message msg,
                             CompletionFn done,
                             obs::SpanContext span = {});
  // Ends the spans bound under (dpid, xid) and — when this was the last
  // open southbound span of its trace — the trace itself.
  void close_completion_span(Dpid dpid, openflow::Xid xid,
                             obs::SpanContext span, const char* note);
  void arm_completion_timeout(Dpid dpid, openflow::Xid xid,
                              std::uint64_t epoch);
  void resolve_completion(Dpid dpid, openflow::Xid xid,
                          std::optional<openflow::Error> error);
  void resolve_completions_acked_by(Dpid dpid,
                                    const std::vector<std::uint32_t>& acked);
  // A switch declared down answers nothing, so a barrier, stats or role
  // request to it fails fast: `done(failed)` fires from a zero-delay event
  // (callers expect the callback strictly after the call returns) instead
  // of the request waiting in the dead channel. True when it failed.
  template <typename Fn, typename Failed>
  bool fail_if_down(Dpid dpid, Fn& done, Failed failed);
  // Liveness.
  void start_handshake(Dpid dpid);
  void schedule_echo(Dpid dpid, std::uint64_t epoch);
  void declare_switch_down(Dpid dpid);

  sim::SimNetwork& net_;
  Options options_;
  // Identifies this controller's connections for switch-side role state.
  std::uint64_t conn_id_;
  NetworkView view_;
  std::vector<std::unique_ptr<App>> apps_;
  // Parallel to apps_: per-app PacketIn counters
  // (zen_controller_app_packet_ins_total{app="<name>"}).
  std::vector<obs::Counter*> app_pin_counters_;
  std::unordered_map<Dpid, Session> sessions_;
  ControllerStats stats_;
  std::uint32_t next_bundle_id_ = 1;
  bool halted_ = false;
  std::unique_ptr<FlowRuleStore> rule_store_;
  SouthboundTap southbound_tap_;
};

}  // namespace zen::controller
