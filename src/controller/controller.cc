#include "controller/controller.h"

#include <algorithm>
#include <cstdio>

#include "controller/flow_rule_store.h"
#include "obs/obs.h"
#include "openflow/bundle.h"
#include "util/logging.h"

namespace zen::controller {

namespace {

struct CtrlMetrics {
  obs::Counter& packet_ins;
  obs::Counter& flow_mods;
  obs::Counter& packet_outs;
  obs::Counter& errors;
  obs::Counter& retransmits;
  obs::Counter& switch_downs;
  static CtrlMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static CtrlMetrics m{
        reg.counter("zen_controller_packet_ins_total", "",
                    "PacketIns dispatched to the app chain"),
        reg.counter("zen_controller_flow_mods_total", "",
                    "FlowMods sent southbound"),
        reg.counter("zen_controller_packet_outs_total", "",
                    "PacketOuts sent southbound"),
        reg.counter("zen_controller_errors_total", "",
                    "Error messages received from switches"),
        reg.counter("zen_controller_retransmits_total", "",
                    "Tracked southbound sends re-sent after a timeout"),
        reg.counter("zen_controller_switch_down_total", "",
                    "Switches declared down by heartbeat liveness")};
    return m;
  }
};

openflow::Error synthetic_error(std::uint16_t code) {
  openflow::Error err;
  err.type = openflow::ErrorType::BadRequest;
  err.code = code;
  return err;
}

using SpanKey = obs::SpanTracer::Key;

// Controller-side delay between a batch's arrival and its dispatch to
// apps (models scheduling + deserialization). One event covers the whole
// batch: each message still dispatches at the same virtual time and in
// the same order as per-message events would.
constexpr double kProcessingDelayS = 10e-6;

// Adapts a typed reply callback to the pending-reply table's form.
template <typename Reply>
std::function<void(const openflow::Message*)> typed_reply(
    std::function<void(const Reply*)> done) {
  return [done = std::move(done)](const openflow::Message* reply) {
    if (done) done(reply ? &std::get<Reply>(*reply) : nullptr);
  };
}

// Child span for a southbound send, parented on the dispatch-scoped
// current span (invalid — and free — outside a traced dispatch).
obs::SpanContext begin_southbound_span(const char* name) {
  auto& tracer = obs::SpanTracer::global();
  return tracer.start_span(name, "trace", tracer.current());
}
// Process-wide connection-id source: every Controller instance gets a
// distinct id so switches can arbitrate roles between them.
std::uint64_t next_conn_id() {
  static std::uint64_t next = 1;
  return next++;
}
}  // namespace

Controller::Controller(sim::SimNetwork& net, Options options)
    : net_(net),
      options_(options),
      conn_id_(next_conn_id()),
      rule_store_(std::make_unique<FlowRuleStore>(*this)) {
  net_.add_datapath_event_handler(
      [this](topo::NodeId sw, openflow::Message msg) {
        const auto it = sessions_.find(sw);
        if (it == sessions_.end()) return;
        it->second.agent->on_datapath_event(std::move(msg));
      });
}

Controller::~Controller() = default;

void Controller::connect_all() {
  std::vector<Dpid> dpids;
  dpids.reserve(net_.switches().size());
  for (const auto& [dpid, sw] : net_.switches()) dpids.push_back(dpid);
  std::sort(dpids.begin(), dpids.end());
  connect(dpids);
}

void Controller::connect(const std::vector<Dpid>& dpids) {
  if (halted_) return;
  for (const Dpid dpid : dpids) {
    if (sessions_.contains(dpid)) continue;
    if (!net_.switches().contains(dpid)) continue;
    Session session;
    session.channel =
        std::make_unique<Channel>(net_.events(), options_.channel_latency_s);
    session.southbound = std::make_unique<Southbound>(
        net_.events(), *session.channel, Channel::Side::A);
    session.agent =
        std::make_unique<SwitchAgent>(net_, dpid, *session.channel, conn_id_);
    session.backoff_s = options_.reconnect_backoff_initial_s;
    const Dpid id = dpid;
    session.southbound->set_receiver(
        [this, id](std::vector<openflow::OwnedMessage> batch) {
          on_batch(id, std::move(batch));
        });
    session.southbound->set_bad_frame_handler([id](const std::string& err) {
      ZEN_LOG(Warn) << "controller: bad frame from dpid " << id << ": "
                    << err;
    });
    sessions_.emplace(dpid, std::move(session));
    start_handshake(dpid);
  }
}

void Controller::halt() {
  if (halted_) return;
  halted_ = true;
  for (auto& [dpid, session] : sessions_) {
    // Retire every timer from this life (echo, completion, reconnect).
    // The channel is deliberately left connected: in-flight frames — e.g.
    // jitter-delayed writes from this now-dead controller — must still
    // reach the agents so generation-id fencing can reject them.
    ++session.epoch;
  }
  ZEN_LOG(Warn) << "controller " << conn_id_ << ": halted";
}

void Controller::start_handshake(Dpid dpid) {
  if (halted_) return;
  auto& session = sessions_.at(dpid);
  if (session.alive) return;
  // Hello then FeaturesRequest; the reply timer below makes the exchange
  // survive a lost FeaturesReply (or a switch that is still rebooting).
  send(dpid, openflow::Message{openflow::Hello{}}, next_xid(dpid));
  send(dpid, openflow::Message{openflow::FeaturesRequest{}}, next_xid(dpid));
  const std::uint64_t epoch = session.epoch;
  events().schedule_in(options_.handshake_timeout_s, [this, dpid, epoch] {
    const auto it = sessions_.find(dpid);
    if (it == sessions_.end()) return;
    auto& s = it->second;
    if (s.epoch != epoch || s.alive) return;
    s.backoff_s =
        std::min(s.backoff_s * 2, options_.reconnect_backoff_max_s);
    events().schedule_in(s.backoff_s, [this, dpid, epoch] {
      const auto it = sessions_.find(dpid);
      if (it == sessions_.end()) return;
      if (it->second.epoch != epoch || it->second.alive) return;
      start_handshake(dpid);
    });
  });
}

void Controller::schedule_echo(Dpid dpid, std::uint64_t epoch) {
  if (options_.echo_interval_s <= 0) return;
  events().schedule_in(options_.echo_interval_s, [this, dpid, epoch] {
    const auto it = sessions_.find(dpid);
    if (it == sessions_.end()) return;
    auto& s = it->second;
    if (s.epoch != epoch || !s.alive) return;
    if (s.echo_outstanding &&
        ++s.echo_misses >= options_.echo_miss_limit) {
      declare_switch_down(dpid);
      return;
    }
    // (Re-)probe every interval — a single lost echo must not count
    // toward the miss limit forever; any reply clears the slate.
    s.echo_outstanding = true;
    send(dpid, openflow::Message{openflow::EchoRequest{}}, next_xid(dpid));
    schedule_echo(dpid, epoch);
  });
}

void Controller::declare_switch_down(Dpid dpid) {
  auto& session = sessions_.at(dpid);
  if (!session.alive) return;
  session.alive = false;
  session.features_known = false;
  ++session.epoch;  // kill echo + completion timers from the old life
  session.echo_misses = 0;
  session.echo_outstanding = false;
  ++stats_.switch_down_events;
  CtrlMetrics::get().switch_downs.inc();
  ZEN_LOG(Warn) << "controller: switch " << dpid
                << " declared down (heartbeat)";
  ZEN_TRACE_INSTANT("switch_down", "controller");

  // Fail every in-flight transaction and request: each callback fires
  // exactly once, with the down-error / null-reply path, in xid order
  // across both tables.
  auto completions = std::move(session.pending_completions);
  auto replies = std::move(session.pending_replies);
  session.pending_completions.clear();
  session.pending_replies.clear();
  std::vector<openflow::Xid> xids;
  for (const auto& [xid, pc] : completions) xids.push_back(xid);
  for (const auto& [xid, pr] : replies) xids.push_back(xid);
  std::sort(xids.begin(), xids.end());
  for (const openflow::Xid xid : xids) {
    if (const auto it = replies.find(xid); it != replies.end()) {
      it->second.done(nullptr);
      continue;
    }
    PendingCompletion& pc = completions.at(xid);
    ++stats_.completions_failed;
    if (pc.done) pc.done(synthetic_error(completion_code::kSwitchDown));
    close_completion_span(dpid, xid, pc.span, "switch_down");
  }
  obs::FlightRecorder::global().record(obs::FlightEventKind::kSwitchDown,
                                       dpid, completions.size());

  const bool was_in_view = view_.has_switch(dpid);
  view_.remove_switch(dpid);
  if (was_in_view)
    for (const auto& app : apps_) app->on_switch_down(dpid);

  // Reconnect loop: bounded exponential backoff between handshakes.
  session.backoff_s = options_.reconnect_backoff_initial_s;
  const std::uint64_t epoch = session.epoch;
  events().schedule_in(session.backoff_s, [this, dpid, epoch] {
    const auto it = sessions_.find(dpid);
    if (it == sessions_.end()) return;
    if (it->second.epoch != epoch || it->second.alive) return;
    start_handshake(dpid);
  });
}

bool Controller::switch_alive(Dpid dpid) const noexcept {
  const auto it = sessions_.find(dpid);
  return it != sessions_.end() && it->second.alive;
}

const SwitchAgent* Controller::agent(Dpid dpid) const noexcept {
  const auto it = sessions_.find(dpid);
  return it == sessions_.end() ? nullptr : it->second.agent.get();
}

void Controller::set_channel_faults(const ChannelFaults& faults) {
  for (auto& [dpid, session] : sessions_) {
    ChannelFaults mine = faults;
    mine.seed = faults.seed + dpid;  // decorrelate per-channel streams
    session.channel->set_faults(mine);
  }
}

void Controller::clear_channel_faults() {
  for (auto& [dpid, session] : sessions_) session.channel->clear_faults();
}

openflow::Xid Controller::next_xid(Dpid dpid) {
  auto& session = sessions_.at(dpid);
  // 32-bit xids don't wrap in any realistic run, but guard reuse anyway:
  // a collision with a still-pending callback key would silently orphan
  // that callback. The pending maps are minuscule next to the xid space,
  // so this loop all but never iterates twice.
  openflow::Xid xid;
  do {
    if (session.next_xid == 0) session.next_xid = 1;
    xid = session.next_xid++;
  } while (session.pending_completions.contains(xid) ||
           session.pending_replies.contains(xid));
  return xid;
}

void Controller::send(Dpid dpid, const openflow::Message& msg,
                      openflow::Xid xid) {
  if (halted_) return;
  sessions_.at(dpid).southbound->send(msg, xid);
}

void Controller::request_chasing_barrier(Dpid dpid) {
  auto& session = sessions_.at(dpid);
  if (session.barrier_scheduled) return;
  session.barrier_scheduled = true;
  // Zero-delay event: fires after the instant's remaining synchronous
  // sends have staged, so one barrier trails every tracked send of the
  // instant — usually inside the same flushed batch.
  events().schedule_in(0, [this, dpid] {
    const auto it = sessions_.find(dpid);
    if (it == sessions_.end()) return;
    it->second.barrier_scheduled = false;
    send(dpid, openflow::Message{openflow::BarrierRequest{}}, next_xid(dpid));
  });
}

void Controller::register_app_metrics(const App& app) {
  app_pin_counters_.push_back(&obs::MetricsRegistry::global().counter(
      "zen_controller_app_packet_ins_total", "app=\"" + app.name() + "\"",
      "PacketIns seen by each app"));
}

openflow::Xid Controller::send_tracked(Dpid dpid, openflow::Message msg,
                                       CompletionFn done,
                                       obs::SpanContext span) {
  if (known_down(dpid)) {
    ++stats_.completions_failed;
    if (span.valid()) {
      auto& tracer = obs::SpanTracer::global();
      tracer.annotate(span, "switch_down");
      const obs::SpanContext parent = tracer.end_span(span);
      if (tracer.open_span_count(parent) == 1) tracer.end_trace(parent);
    }
    events().schedule_in(0, [done = std::move(done)] {
      if (done) done(synthetic_error(completion_code::kSwitchDown));
    });
    return 0;
  }
  auto& session = sessions_.at(dpid);
  const openflow::Xid xid = next_xid(dpid);
  if (span.valid()) {
    // The agent marks the apply boundary through this binding (ends the
    // mod span, opens barrier_ack).
    obs::SpanTracer::global().bind(
        obs::SpanTracer::key(SpanKey::kModTracked, conn_id_, dpid, xid),
        span);
  }
  session.pending_completions.emplace(
      xid, PendingCompletion{msg, std::move(done), 1, span});
  // Chase with a barrier; its per-xid ack set resolves this and any
  // earlier still-pending sends the agent actually processed. The barrier
  // is arranged first so its zero-delay event precedes the flush event
  // and the barrier rides the same batch as the mod.
  request_chasing_barrier(dpid);
  send(dpid, msg, xid);
  arm_completion_timeout(dpid, xid, session.epoch);
  return xid;
}

void Controller::arm_completion_timeout(Dpid dpid, openflow::Xid xid,
                                        std::uint64_t epoch) {
  events().schedule_in(
      options_.completion_timeout_s, [this, dpid, xid, epoch] {
        const auto sit = sessions_.find(dpid);
        if (sit == sessions_.end()) return;
        auto& session = sit->second;
        if (session.epoch != epoch) return;  // failed when session died
        const auto it = session.pending_completions.find(xid);
        if (it == session.pending_completions.end()) return;  // resolved
        PendingCompletion pc = std::move(it->second);
        session.pending_completions.erase(it);
        if (pc.attempts >= options_.completion_max_attempts) {
          ++stats_.completions_failed;
          if (pc.done) pc.done(synthetic_error(completion_code::kTimedOut));
          close_completion_span(dpid, xid, pc.span, "timeout");
          return;
        }
        // Re-send under a fresh xid with a fresh chasing barrier.
        ++pc.attempts;
        ++stats_.retransmits;
        CtrlMetrics::get().retransmits.inc();
        obs::FlightRecorder::global().record(
            obs::FlightEventKind::kRetransmit, dpid,
            static_cast<std::uint64_t>(pc.attempts));
        const openflow::Xid new_xid = next_xid(dpid);
        // Re-bind the trace under the fresh xid: the mod span if the mod
        // never applied, else the barrier_ack span whose ack was lost.
        {
          auto& tracer = obs::SpanTracer::global();
          if (auto mod = tracer.take(obs::SpanTracer::key(
                  SpanKey::kModTracked, conn_id_, dpid, xid));
              mod.valid()) {
            tracer.annotate(mod, "retransmit");
            tracer.bind(obs::SpanTracer::key(SpanKey::kModTracked, conn_id_,
                                             dpid, new_xid),
                        mod);
          } else if (auto ack = tracer.take(obs::SpanTracer::key(
                         SpanKey::kAck, conn_id_, dpid, xid));
                     ack.valid()) {
            tracer.annotate(ack, "retransmit");
            tracer.bind(
                obs::SpanTracer::key(SpanKey::kAck, conn_id_, dpid, new_xid),
                ack);
          }
        }
        request_chasing_barrier(dpid);
        send(dpid, pc.msg, new_xid);
        session.pending_completions.emplace(new_xid, std::move(pc));
        arm_completion_timeout(dpid, new_xid, epoch);
      });
}

void Controller::resolve_completion(Dpid dpid, openflow::Xid xid,
                                    std::optional<openflow::Error> error) {
  auto& session = sessions_.at(dpid);
  const auto it = session.pending_completions.find(xid);
  if (it == session.pending_completions.end()) return;
  PendingCompletion pc = std::move(it->second);
  session.pending_completions.erase(it);
  if (error) ++stats_.completions_failed;
  // The callback runs before the span closes: a repair ladder (TableFull
  // retry) re-entering the trace keeps it open past this resolution.
  if (pc.done) pc.done(error);
  close_completion_span(dpid, xid, pc.span, error ? "failed" : nullptr);
}

void Controller::close_completion_span(Dpid dpid, openflow::Xid xid,
                                       obs::SpanContext span,
                                       const char* note) {
  auto& tracer = obs::SpanTracer::global();
  // Whichever leg was still in flight: the mod span (never applied) or the
  // barrier_ack span (applied, ack window now resolved).
  if (auto mod = tracer.take(
          obs::SpanTracer::key(SpanKey::kModTracked, conn_id_, dpid, xid));
      mod.valid()) {
    if (note) tracer.annotate(mod, note);
    tracer.end_span(mod);
  }
  if (auto ack = tracer.take(
          obs::SpanTracer::key(SpanKey::kAck, conn_id_, dpid, xid));
      ack.valid()) {
    if (note) tracer.annotate(ack, note);
    tracer.end_span(ack);
  }
  if (!span.valid()) return;
  // Last southbound span closed -> the control loop round trip is over.
  if (tracer.open_span_count(span) == 1) tracer.end_trace(span);
}

void Controller::resolve_completions_acked_by(
    Dpid dpid, const std::vector<std::uint32_t>& acked) {
  // Resolve only exact xid matches: an ack names a mod the agent really
  // processed, so a lost mod can never be vouched for by a later one.
  auto& session = sessions_.at(dpid);
  std::vector<openflow::Xid> hits;
  for (const openflow::Xid xid : acked)
    if (session.pending_completions.contains(xid)) hits.push_back(xid);
  std::sort(hits.begin(), hits.end());  // deterministic callback order
  hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  for (const openflow::Xid xid : hits)
    resolve_completion(dpid, xid, std::nullopt);
}

openflow::Xid Controller::flow_mod(Dpid dpid, const openflow::FlowMod& mod,
                                   CompletionFn done) {
  return send_mod(dpid, openflow::Message{mod}, "flow_mod", std::move(done));
}

openflow::Xid Controller::group_mod(Dpid dpid, const openflow::GroupMod& mod,
                                    CompletionFn done) {
  return send_mod(dpid, openflow::Message{mod}, "group_mod", std::move(done));
}

openflow::Xid Controller::meter_mod(Dpid dpid, const openflow::MeterMod& mod,
                                    CompletionFn done) {
  return send_mod(dpid, openflow::Message{mod}, "meter_mod", std::move(done));
}

openflow::Xid Controller::packet_out(Dpid dpid, const openflow::PacketOut& msg,
                                     CompletionFn done) {
  return send_mod(dpid, openflow::Message{msg}, "packet_out", std::move(done));
}

void Controller::count_mod(Dpid dpid, const openflow::Message& msg) {
  if (std::holds_alternative<openflow::FlowMod>(msg)) {
    ++stats_.flow_mods_sent;
    CtrlMetrics::get().flow_mods.inc();
    if (southbound_tap_) southbound_tap_(dpid, msg);
  } else if (std::holds_alternative<openflow::GroupMod>(msg)) {
    ++stats_.group_mods_sent;
    if (southbound_tap_) southbound_tap_(dpid, msg);
  } else if (std::holds_alternative<openflow::MeterMod>(msg)) {
    ++stats_.meter_mods_sent;
  } else {
    ++stats_.packet_outs_sent;
    CtrlMetrics::get().packet_outs.inc();
  }
}

openflow::Xid Controller::send_mod(Dpid dpid, openflow::Message msg,
                                   const char* span_name, CompletionFn done) {
  count_mod(dpid, msg);
  const obs::SpanContext span = begin_southbound_span(span_name);
  if (done) return send_tracked(dpid, std::move(msg), std::move(done), span);
  const openflow::Xid xid = next_xid(dpid);
  if (span.valid())
    obs::SpanTracer::global().bind(
        obs::SpanTracer::key(SpanKey::kModUntracked, conn_id_, dpid, xid),
        span);
  send(dpid, msg, xid);
  return xid;
}

openflow::Xid Controller::commit_bundle(Dpid dpid,
                                        std::vector<openflow::Message> members,
                                        CompletionFn done) {
  if (members.empty()) {
    // Trivially complete, but asynchronously: callers expect the callback
    // strictly after the call returns.
    events().schedule_in(0, [done = std::move(done)] {
      if (done) done(std::nullopt);
    });
    return 0;
  }
  // Members count toward the same stats/tap surface as lone sends, so
  // determinism fingerprints and dashboards see one install stream.
  for (const auto& member : members) count_mod(dpid, member);
  const obs::SpanContext span = begin_southbound_span("bundle_commit");
  return send_bundle_attempt(
      dpid,
      std::make_shared<const std::vector<openflow::Message>>(
          std::move(members)),
      1, std::move(done), span);
}

openflow::Xid Controller::send_bundle_attempt(
    Dpid dpid, std::shared_ptr<const std::vector<openflow::Message>> members,
    int attempt, CompletionFn done, obs::SpanContext span) {
  const std::uint32_t bundle_id = next_bundle_id_++;
  send(dpid, openflow::Message{openflow::make_bundle_open(bundle_id)},
       next_xid(dpid));
  for (std::size_t i = 0; i < members->size(); ++i) {
    send(dpid,
         openflow::Message{openflow::make_bundle_add(
             bundle_id, static_cast<std::uint32_t>(i), (*members)[i])},
         next_xid(dpid));
  }
  // Only the commit is tracked: its ack (or error) covers the bundle.
  auto retry_done = [this, dpid, members, attempt, span,
                     done = std::move(done)](
                        const std::optional<openflow::Error>& err) mutable {
    if (err && err->type == openflow::ErrorType::BundleFailed &&
        attempt < options_.completion_max_attempts) {
      // Bundle-mechanism failure (adds lost to channel faults, staging
      // evicted): re-send the whole bundle under a fresh id. Member
      // errors (e.g. TableFull) and synthetic timeouts pass through to
      // the caller, whose own ladders handle them. Runs inside
      // resolve_completion's done-before-span-close window, so the new
      // attempt's span keeps the trace open.
      obs::SpanTracer::Scope scope(span);
      const obs::SpanContext retry_span =
          begin_southbound_span("bundle_commit");
      send_bundle_attempt(dpid, std::move(members), attempt + 1,
                          std::move(done), retry_span);
      return;
    }
    if (done) done(err);
  };
  return send_tracked(
      dpid,
      openflow::Message{openflow::make_bundle_commit(
          bundle_id, static_cast<std::uint32_t>(members->size()))},
      std::move(retry_done), span);
}

bool Controller::known_down(Dpid dpid) const {
  const Session& session = sessions_.at(dpid);
  return session.ever_up && !session.alive;
}

void Controller::request(Dpid dpid, const openflow::Message& msg,
                         openflow::MsgType reply_type, ReplyFn done) {
  if (known_down(dpid)) {
    events().schedule_in(0, [done = std::move(done)] { done(nullptr); });
    return;
  }
  const openflow::Xid xid = next_xid(dpid);
  sessions_.at(dpid).pending_replies.emplace(
      xid, PendingReply{reply_type, std::move(done)});
  send(dpid, msg, xid);
}

void Controller::resolve_reply(Session& session, openflow::Xid xid,
                               const openflow::Message& reply) {
  const auto it = session.pending_replies.find(xid);
  if (it == session.pending_replies.end() ||
      it->second.reply_type != openflow::type_of(reply))
    return;
  ReplyFn done = std::move(it->second.done);
  session.pending_replies.erase(it);
  done(&reply);
}

void Controller::barrier(Dpid dpid, BarrierFn done) {
  request(dpid, openflow::Message{openflow::BarrierRequest{}},
          openflow::MsgType::BarrierReply,
          [done = std::move(done)](const openflow::Message* reply) {
            if (done) done(reply != nullptr);
          });
}

void Controller::request_flow_stats(Dpid dpid,
                                    const openflow::FlowStatsRequest& req,
                                    FlowStatsFn done) {
  request(dpid, openflow::Message{req}, openflow::MsgType::FlowStatsReply,
          typed_reply(std::move(done)));
}

void Controller::request_port_stats(Dpid dpid,
                                    const openflow::PortStatsRequest& req,
                                    PortStatsFn done) {
  request(dpid, openflow::Message{req}, openflow::MsgType::PortStatsReply,
          typed_reply(std::move(done)));
}

void Controller::request_role(Dpid dpid, openflow::ControllerRole role,
                              std::uint64_t generation_id, RoleFn done) {
  openflow::RoleRequest req;
  req.role = role;
  req.generation_id = generation_id;
  request(dpid, openflow::Message{req}, openflow::MsgType::RoleReply,
          typed_reply(std::move(done)));
}

void Controller::request_role_all(openflow::ControllerRole role,
                                  std::uint64_t generation_id,
                                  RoleAllFn done) {
  std::vector<Dpid> dpids;
  dpids.reserve(sessions_.size());
  for (const auto& [dpid, session] : sessions_) dpids.push_back(dpid);
  std::sort(dpids.begin(), dpids.end());
  request_role_many(dpids, role, generation_id, std::move(done));
}

void Controller::request_role_many(const std::vector<Dpid>& dpids,
                                   openflow::ControllerRole role,
                                   std::uint64_t generation_id,
                                   RoleAllFn done) {
  auto result = std::make_shared<RoleAllResult>();
  result->role = role;
  result->generation_id = generation_id;
  auto remaining = std::make_shared<std::size_t>(dpids.size());
  auto shared_done = std::make_shared<RoleAllFn>(std::move(done));
  const auto settle = [result, remaining, shared_done] {
    if (--*remaining > 0) return;
    std::sort(result->granted.begin(), result->granted.end());
    std::sort(result->refused.begin(), result->refused.end());
    std::sort(result->down.begin(), result->down.end());
    if (*shared_done) (*shared_done)(*result);
  };
  if (dpids.empty()) {
    // Fire asynchronously even when trivially complete.
    events().schedule_in(0, [result, shared_done] {
      if (*shared_done) (*shared_done)(*result);
    });
    return;
  }
  for (const Dpid dpid : dpids) {
    if (!sessions_.contains(dpid)) {
      result->down.push_back(dpid);
      events().schedule_in(0, [settle] { settle(); });
      continue;
    }
    request_role(dpid, role, generation_id,
                 [dpid, result, settle](const openflow::RoleReply* reply) {
                   if (!reply)
                     result->down.push_back(dpid);
                   else if (reply->accepted)
                     result->granted.push_back(dpid);
                   else
                     result->refused.push_back(dpid);
                   settle();
                 });
  }
}

openflow::ControllerRole Controller::role(Dpid dpid) const {
  const auto it = sessions_.find(dpid);
  return it == sessions_.end() ? openflow::ControllerRole::Equal
                               : it->second.granted_role;
}

void Controller::install_table_miss(Dpid dpid, std::uint8_t table_id) {
  openflow::FlowMod mod;
  mod.table_id = table_id;
  mod.priority = 0;  // table-miss: empty match at priority 0
  mod.instructions = {openflow::ApplyActions{
      {openflow::OutputAction{openflow::Ports::kController, 128}}}};
  flow_mod(dpid, mod);
}

void Controller::flood_packet(Dpid dpid, std::uint32_t in_port,
                              const openflow::Bytes& data,
                              std::uint32_t buffer_id) {
  openflow::PacketOut out;
  out.buffer_id = buffer_id;
  out.in_port = in_port;
  out.actions = {openflow::OutputAction{openflow::Ports::kFlood, 0xffff}};
  if (buffer_id == openflow::kNoBuffer) out.data = data;
  packet_out(dpid, out);
}

void Controller::flood_to_edge_ports(const openflow::Bytes& data,
                                     Dpid except_dpid,
                                     std::uint32_t except_port) {
  for (const Dpid dpid : view_.switch_ids()) {
    const auto* features = view_.switch_features(dpid);
    if (!features) continue;
    openflow::PacketOut out;
    out.in_port = openflow::Ports::kController;
    for (const auto& port : features->ports) {
      if (view_.is_infrastructure_port(dpid, port.port_no)) continue;
      if (dpid == except_dpid && port.port_no == except_port) continue;
      out.actions.push_back(openflow::OutputAction{port.port_no, 0xffff});
    }
    if (out.actions.empty()) continue;
    out.data = data;
    packet_out(dpid, out);
  }
}

void Controller::proxy_arp(const PacketInEvent& event) {
  const net::ArpMessage& arp = *event.parsed->arp;
  if (arp.opcode == net::ArpMessage::kRequest) {
    if (const HostInfo* target = view_.host_by_ip(arp.target_ip)) {
      openflow::PacketOut out;
      out.in_port = openflow::Ports::kController;
      out.actions = {openflow::OutputAction{event.pin->in_port, 0xffff}};
      out.data = net::build_arp_reply(target->mac, arp.target_ip,
                                      arp.sender_mac, arp.sender_ip);
      packet_out(event.dpid, out);
      return;
    }
  }
  // Unknown target (or a reply we can't shortcut): edge-flood, loop-free.
  flood_to_edge_ports(event.pin->data, event.dpid, event.pin->in_port);
}

void Controller::on_batch(Dpid dpid,
                          std::vector<openflow::OwnedMessage> batch) {
  if (halted_) return;  // a dead controller processes nothing
  events().schedule_in(kProcessingDelayS,
                       [this, dpid, batch = std::move(batch)]() mutable {
                         if (halted_) return;
                         for (auto& owned : batch)
                           dispatch(dpid, std::move(owned));
                       });
}

void Controller::learn_host_from(Dpid dpid, const openflow::PacketIn& pin,
                                 const net::ParsedPacket& parsed) {
  // Only learn on edge ports; packets arriving over inter-switch links
  // would otherwise relocate hosts spuriously.
  if (view_.is_infrastructure_port(dpid, pin.in_port)) return;
  if (parsed.eth.src.is_multicast()) return;

  net::Ipv4Address ip;
  if (parsed.arp) ip = parsed.arp->sender_ip;
  else if (parsed.ipv4) ip = parsed.ipv4->src;

  if (view_.learn_host(parsed.eth.src, ip, dpid, pin.in_port, now())) {
    const HostInfo* info = view_.host_by_mac(parsed.eth.src);
    for (const auto& app : apps_) app->on_host_discovered(*info);
  }
}

void Controller::handle_packet_in(Dpid dpid, const openflow::PacketIn& pin) {
  ++stats_.packet_ins;
  CtrlMetrics::get().packet_ins.inc();
  ZEN_TRACE_SCOPE("packet_in", "controller");

  // Pick up the causal trace the punting agent bound under this buffer_id:
  // the punt's channel span ends here and the dispatch span begins.
  auto& tracer = obs::SpanTracer::global();
  obs::SpanContext dispatch_span;
  if (pin.buffer_id != openflow::kNoBuffer) {
    const obs::SpanContext punt = tracer.take(obs::SpanTracer::key(
        SpanKey::kPacketIn, conn_id_, dpid, pin.buffer_id));
    if (punt.valid()) {
      const obs::SpanContext root = tracer.end_span(punt);
      dispatch_span = tracer.start_span("dispatch", "trace", root);
    }
  }

  PacketInEvent event;
  event.dpid = dpid;
  event.pin = &pin;

  net::ParsedPacket parsed;
  auto parse_result = net::parse_packet(pin.data);
  if (parse_result.ok()) {
    parsed = std::move(parse_result).value();
    event.parsed = &parsed;
    learn_host_from(dpid, pin, parsed);
  }

  {
    obs::SpanTracer::Scope dispatch_scope(dispatch_span);
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      app_pin_counters_[i]->inc();
      obs::SpanContext app_span;
      if (dispatch_span.valid()) {
        app_span = tracer.start_span("app:" + apps_[i]->name(), "trace",
                                     dispatch_span);
      }
      obs::SpanTracer::Scope app_scope(app_span);
      const bool consumed = apps_[i]->on_packet_in(event);
      tracer.end_span(app_span);
      if (consumed) break;
    }
  }

  if (dispatch_span.valid()) {
    const obs::SpanContext root = tracer.end_span(dispatch_span);
    // No app opened a southbound span (flood / drop decision): the control
    // loop ends at the controller, close the trace here.
    if (tracer.open_span_count(root) == 1) {
      tracer.annotate(root, "no_install");
      tracer.end_trace(root);
    }
  }
}

void Controller::dispatch(Dpid dpid, openflow::OwnedMessage owned) {
  auto& session = sessions_.at(dpid);
  std::visit(
      [&](auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, openflow::Hello>) {
          // Peer hello; nothing further (we initiated).
        } else if constexpr (std::is_same_v<T, openflow::FeaturesReply>) {
          handle_features_reply(dpid, session, msg);
        } else if constexpr (std::is_same_v<T, openflow::PacketIn>) {
          handle_packet_in(dpid, msg);
        } else if constexpr (std::is_same_v<T, openflow::PortStatus>) {
          view_.set_port_state(dpid, msg.desc.port_no, msg.desc.link_up);
          if (!msg.desc.link_up) {
            for (const auto& link :
                 view_.mark_links_down(dpid, msg.desc.port_no)) {
              const LinkEvent ev{link, false};
              for (const auto& app : apps_) app->on_link_event(ev);
            }
          }
          // Scoped controllers keep app fan-out group-local; slave
          // sessions into other groups still deliver PortStatus, but
          // those switches are somebody else's problem.
          if (view_.in_scope(dpid))
            for (const auto& app : apps_) app->on_port_status(dpid, msg);
        } else if constexpr (std::is_same_v<T, openflow::FlowRemoved>) {
          // The rule store sees removals first so apps observing the event
          // already find evicted managed rules marked degraded.
          rule_store_->on_flow_removed(dpid, msg);
          for (const auto& app : apps_) app->on_flow_removed(dpid, msg);
        } else if constexpr (std::is_same_v<T, openflow::Experimenter>) {
          if (msg.experimenter_id == openflow::kVacancyExperimenterId) {
            auto status = openflow::parse_table_status_message(msg);
            if (status.ok()) {
              view_.record_table_status(dpid, status.value());
              for (const auto& app : apps_)
                app->on_table_status(dpid, status.value());
            } else {
              ZEN_LOG(Warn) << "controller: bad table-status from dpid "
                            << dpid << ": " << status.error();
            }
          } else {
            for (const auto& app : apps_) app->on_experimenter(dpid, msg);
          }
        } else if constexpr (std::is_same_v<T, openflow::BarrierReply>) {
          // The ack set resolves every tracked send the agent had
          // processed by this barrier — including ones whose own barrier
          // reply was lost.
          resolve_completions_acked_by(dpid, msg.acked);
        } else if constexpr (std::is_same_v<T, openflow::RoleReply>) {
          if (msg.accepted && session.granted_role != msg.role) {
            const auto old_role = session.granted_role;
            session.granted_role = msg.role;
            // Controller-side role_change black-box event: b packs the
            // election generation with the old and new role so a takeover
            // is reconstructible from the ring alone (see DESIGN.md).
            char tag[16];
            std::snprintf(tag, sizeof(tag), "ctl%llu",
                          static_cast<unsigned long long>(conn_id_));
            obs::FlightRecorder::global().record(
                obs::FlightEventKind::kRoleChange, dpid,
                (msg.generation_id << 16) |
                    (static_cast<std::uint64_t>(old_role) << 8) |
                    static_cast<std::uint64_t>(msg.role),
                tag);
            // Gauge registered lazily on the first role grant: runs that
            // never negotiate roles keep their metric surface unchanged.
            obs::MetricsRegistry::global()
                .gauge("zen_controller_role",
                       "conn=\"" + std::to_string(conn_id_) + "\",dpid=\"" +
                           std::to_string(dpid) + "\"",
                       "Granted role per controller connection "
                       "(0 equal, 1 master, 2 slave)")
                .set(static_cast<double>(msg.role));
          } else if (msg.accepted) {
            session.granted_role = msg.role;
          }
        } else if constexpr (std::is_same_v<T, openflow::ErrorMsg>) {
          ++stats_.errors_received;
          CtrlMetrics::get().errors.inc();
          ZEN_LOG(Warn) << "controller: error from dpid " << dpid << " type "
                        << static_cast<unsigned>(msg.type) << " code "
                        << msg.code;
          resolve_completion(dpid, owned.xid, msg);
          for (const auto& app : apps_) app->on_error(dpid, msg);
        } else if constexpr (std::is_same_v<T, openflow::EchoRequest>) {
          send(dpid, openflow::Message{openflow::EchoReply{msg.data}}, owned.xid);
        } else if constexpr (std::is_same_v<T, openflow::EchoReply>) {
          session.echo_outstanding = false;
          session.echo_misses = 0;
          // A reboot shorter than the heartbeat-miss window never misses
          // an echo, but it does change the boot epoch: the tables are
          // empty while the controller still believes them full. Tear the
          // session down so the reconnect path re-handshakes and audits.
          if (session.alive && session.boot_id != 0 &&
              msg.boot_id != session.boot_id) {
            ZEN_LOG(Warn) << "controller: switch " << dpid
                          << " rebooted behind our back (boot "
                          << session.boot_id << " -> " << msg.boot_id << ")";
            declare_switch_down(dpid);
          }
        }
        // A reply resolves the request waiting under its xid, after the
        // barrier's acks and the role grant above have taken effect.
        if constexpr (std::is_same_v<T, openflow::BarrierReply> ||
                      std::is_same_v<T, openflow::FlowStatsReply> ||
                      std::is_same_v<T, openflow::PortStatsReply> ||
                      std::is_same_v<T, openflow::RoleReply>)
          resolve_reply(session, owned.xid, owned.msg);
      },
      owned.msg);
}

void Controller::handle_features_reply(Dpid dpid, Session& session,
                                       const openflow::FeaturesReply& msg) {
  if (session.alive) {
    // Duplicate reply (a retried FeaturesRequest raced the original):
    // refresh the view, don't re-fire apps — unless the switch just
    // entered a grown scope (group adoption via refresh_features), in
    // which case this reply IS its first appearance to the apps.
    const bool was_known = view_.has_switch(dpid);
    view_.add_switch(dpid, msg);
    if (!was_known && view_.has_switch(dpid))
      for (const auto& app : apps_) app->on_switch_up(dpid, msg);
    return;
  }
  const bool reconnect = session.ever_up;
  session.alive = true;
  session.ever_up = true;
  session.features_known = true;
  session.echo_misses = 0;
  session.echo_outstanding = false;
  session.backoff_s = options_.reconnect_backoff_initial_s;
  session.boot_id = msg.boot_id;
  ++session.epoch;  // retire handshake-retry timers; start a fresh life
  // Tracked sends issued before the handshake finished armed their
  // timeouts under the old epoch, which the bump just disarmed; re-arm
  // them under the new one or a lost pre-handshake mod would neither
  // retry nor fail — its callback would simply never fire.
  {
    std::vector<openflow::Xid> surviving;
    for (const auto& [xid, pc] : session.pending_completions)
      surviving.push_back(xid);
    std::sort(surviving.begin(), surviving.end());
    for (const openflow::Xid xid : surviving)
      arm_completion_timeout(dpid, xid, session.epoch);
  }
  view_.add_switch(dpid, msg);
  if (reconnect) {
    ZEN_LOG(Info) << "controller: switch " << dpid << " reconnected";
    obs::FlightRecorder::global().record(obs::FlightEventKind::kReconnect,
                                         dpid, session.epoch);
  }
  schedule_echo(dpid, session.epoch);
  // A scoped view rejects out-of-group switches; apps only hear about the
  // ones it admitted (a delegated controller's apps see its group alone).
  if (view_.has_switch(dpid))
    for (const auto& app : apps_) app->on_switch_up(dpid, msg);
  // After a crash the switch came back empty: reconcile actual state with
  // everything apps intend for it (apps may also have just re-installed
  // state in on_switch_up; the audit mops up whatever the faulty channel
  // ate and deletes pre-crash strays the controller no longer wants).
  if (reconnect) rule_store_->audit(dpid, nullptr);
}

void Controller::notify_link_event(const LinkEvent& ev) {
  for (const auto& app : apps_) app->on_link_event(ev);
}

void Controller::refresh_features(Dpid dpid) {
  if (halted_ || !sessions_.contains(dpid)) return;
  send(dpid, openflow::Message{openflow::FeaturesRequest{}}, next_xid(dpid));
}

void Controller::notify_host(const HostInfo& host) {
  if (!view_.learn_host(host.mac, host.ip, host.dpid, host.port, now()))
    return;
  const HostInfo* info = view_.host_by_mac(host.mac);
  for (const auto& app : apps_) app->on_host_discovered(*info);
}

}  // namespace zen::controller
