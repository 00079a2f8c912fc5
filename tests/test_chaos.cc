// Chaos-path tests: channel pathologies, liveness, reconnect, and
// flow-state reconciliation on the transactional southbound.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "controller/channel.h"
#include "controller/controller.h"
#include "controller/flow_rule_store.h"
#include "controller/switch_agent.h"
#include "core/network.h"
#include "intent/intent_manager.h"
#include "openflow/wire.h"
#include "sim/fault_injector.h"
#include "sim/network.h"
#include "topo/generators.h"

namespace zen::controller {
namespace {

sim::SimOptions drop_miss_options() {
  sim::SimOptions opts;
  opts.switch_config.default_miss = dataplane::MissBehavior::Drop;
  return opts;
}

// Fast liveness/retry knobs so chaos tests run in little virtual time.
Controller::Options fast_options() {
  Controller::Options opts;
  opts.echo_interval_s = 0.05;
  opts.echo_miss_limit = 2;
  opts.handshake_timeout_s = 0.1;
  opts.reconnect_backoff_initial_s = 0.05;
  opts.reconnect_backoff_max_s = 0.2;
  opts.completion_timeout_s = 0.02;
  opts.completion_max_attempts = 4;
  return opts;
}

openflow::FlowMod simple_mod(std::uint16_t priority, std::uint64_t cookie = 0) {
  openflow::FlowMod mod;
  mod.priority = priority;
  mod.match.l4_dst(priority);
  mod.instructions = openflow::output_to(1);
  mod.cookie = cookie;
  return mod;
}

// App probe: records lifecycle callbacks.
struct Probe : App {
  std::string name() const override { return "probe"; }
  void on_switch_up(Dpid, const openflow::FeaturesReply&) override { ++ups; }
  void on_switch_down(Dpid dpid) override {
    ++downs;
    last_down = dpid;
  }
  void on_error(Dpid, const openflow::Error&) override { ++errors; }
  int ups = 0;
  int downs = 0;
  int errors = 0;
  Dpid last_down = 0;
};

// ---- fault injector -------------------------------------------------------

TEST(FaultInjector, ScheduleIsDeterministicPerSeed) {
  const auto schedule_for = [](std::uint64_t seed) {
    sim::SimNetwork net(topo::make_leaf_spine(2, 3, 2), drop_miss_options());
    sim::FaultInjector::Options opts;
    opts.seed = seed;
    opts.start_s = 1.0;
    opts.link_flaps = 3;
    opts.switch_reboots = 2;
    sim::FaultInjector injector(net, opts);
    injector.arm();
    return injector.schedule();
  };

  const auto a = schedule_for(42);
  const auto b = schedule_for(42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].target, b[i].target);
  }

  const auto c = schedule_for(43);
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i)
    differs = a[i].at != c[i].at || a[i].target != c[i].target;
  EXPECT_TRUE(differs);
}

TEST(FaultInjector, AvoidsHostFacingTargets) {
  sim::SimNetwork net(topo::make_leaf_spine(2, 3, 2), drop_miss_options());
  sim::FaultInjector::Options opts;
  opts.seed = 7;
  opts.link_flaps = 4;
  opts.switch_reboots = 2;
  sim::FaultInjector injector(net, opts);
  injector.arm();
  EXPECT_GE(injector.link_flaps_scheduled(), 1u);
  EXPECT_GE(injector.switch_reboots_scheduled(), 1u);

  const auto& topo = net.topology();
  for (const auto& event : injector.schedule()) {
    switch (event.kind) {
      case sim::FaultInjector::Event::Kind::LinkDown:
      case sim::FaultInjector::Event::Kind::LinkUp: {
        const topo::Link* link = topo.link(event.target);
        ASSERT_NE(link, nullptr);
        EXPECT_FALSE(topo::is_host_id(link->a));
        EXPECT_FALSE(topo::is_host_id(link->b));
        break;
      }
      case sim::FaultInjector::Event::Kind::SwitchCrash:
      case sim::FaultInjector::Event::Kind::SwitchReboot:
        for (const topo::Link* link : topo.links_of(event.target))
          EXPECT_FALSE(topo::is_host_id(link->other(event.target)));
        break;
      case sim::FaultInjector::Event::Kind::TablePressure:
        // Pressure bursts deliberately target edge switches.
        break;
    }
  }
}

// ---- channel pathologies --------------------------------------------------

// Stages `msg` toward the switch side and flushes it.
void flush_to_switch(Channel& channel, const openflow::Message& msg,
                     openflow::Xid xid) {
  channel.stage(Channel::Side::B).append(msg, xid);
  channel.flush(Channel::Side::B);
}

TEST(ChannelFaults, DeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    sim::SimNetwork net(topo::make_linear(1, 1), drop_miss_options());
    Channel channel(net.events(), 1e-4);
    std::uint64_t delivered = 0;
    channel.set_receiver(Channel::Side::B, [&](std::vector<std::uint8_t> bytes) {
      openflow::BatchReader reader(bytes);
      while (auto frame = reader.next())
        if (frame->ok()) ++delivered;
    });
    ChannelFaults faults;
    faults.loss_prob = 0.3;
    faults.duplicate_prob = 0.3;
    faults.extra_delay_max_s = 1e-3;
    faults.seed = seed;
    channel.set_faults(faults);
    for (openflow::Xid xid = 0; xid < 200; ++xid)
      flush_to_switch(channel, openflow::Message{openflow::EchoRequest{}}, xid);
    net.run_until(1.0);
    return std::tuple{delivered, channel.messages_lost(),
                      channel.messages_duplicated()};
  };

  EXPECT_EQ(run(9), run(9));
  EXPECT_NE(run(9), run(10));
}

TEST(ChannelFaults, ImpairedFlushAccountsForEveryFrame) {
  // One impaired flush runs the loss / jitter / duplication ladder per
  // frame: each frame arrives zero, one or two times, and the channel's
  // fault counters account for every outcome.
  sim::SimNetwork net(topo::make_linear(1, 1), drop_miss_options());
  Channel channel(net.events(), 1e-4);
  constexpr openflow::Xid kFrames = 64;
  std::vector<int> arrivals(kFrames, 0);  // by xid
  channel.set_receiver(Channel::Side::B, [&](std::vector<std::uint8_t> bytes) {
    openflow::BatchReader reader(bytes);
    while (auto frame = reader.next()) {
      ASSERT_TRUE(frame->ok());
      ++arrivals.at(frame->value().xid);
    }
  });
  ChannelFaults faults;
  faults.loss_prob = 0.25;
  faults.duplicate_prob = 0.25;
  faults.extra_delay_max_s = 1e-3;
  faults.seed = 17;
  channel.set_faults(faults);
  for (openflow::Xid xid = 0; xid < kFrames; ++xid)
    channel.stage(Channel::Side::B)
        .append(openflow::Message{openflow::EchoRequest{}}, xid);
  channel.flush(Channel::Side::B);
  net.run_until(1.0);

  EXPECT_EQ(channel.flushes(), 1u);
  EXPECT_EQ(channel.messages_a_to_b(), kFrames);
  std::uint64_t never = 0;
  std::uint64_t twice = 0;
  for (openflow::Xid xid = 0; xid < kFrames; ++xid) {
    EXPECT_LE(arrivals[xid], 2) << "xid " << xid;
    never += arrivals[xid] == 0;
    twice += arrivals[xid] == 2;
  }
  EXPECT_EQ(never, channel.messages_lost());
  EXPECT_EQ(twice, channel.messages_duplicated());
  // The seed exercises both fault rungs.
  EXPECT_GT(never, 0u);
  EXPECT_GT(twice, 0u);
}

bool acks(const openflow::BarrierReply& reply, std::uint32_t xid) {
  return std::find(reply.acked.begin(), reply.acked.end(), xid) !=
         reply.acked.end();
}

// Decodes every frame the switch side sends back into `replies`.
void collect_replies(Channel& channel,
                     std::vector<openflow::OwnedMessage>& replies) {
  const auto on_batch = [&replies](std::vector<std::uint8_t> bytes) {
    openflow::BatchReader reader(bytes);
    while (auto frame = reader.next()) {
      if (!frame->ok()) break;
      auto msg = openflow::decode_frame(frame->value());
      if (msg.ok()) replies.push_back(std::move(msg).value());
    }
  };
  channel.set_receiver(Channel::Side::A, on_batch);
}

TEST(BarrierAck, OvertakingBarrierDoesNotFalseAck) {
  sim::SimNetwork net(topo::make_linear(1, 1), drop_miss_options());
  Channel channel(net.events(), 1e-4);
  SwitchAgent agent(net, 1, channel);
  std::vector<openflow::OwnedMessage> replies;
  collect_replies(channel, replies);

  // The mod (xid 10) is lost or delayed; its chasing barrier (xid 11)
  // reaches the agent first. The reply's ack set must not cover 10.
  flush_to_switch(channel, openflow::Message{openflow::BarrierRequest{}}, 11);
  net.run_until(0.01);
  ASSERT_EQ(replies.size(), 1u);
  const auto* first = std::get_if<openflow::BarrierReply>(&replies[0].msg);
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(acks(*first, 10));
  EXPECT_EQ(net.switch_at(1).table(0).size(), 0u);

  // The mod lands late, batched with the next barrier, whose ack covers it.
  channel.stage(Channel::Side::B).append(openflow::Message{simple_mod(5)}, 10);
  flush_to_switch(channel, openflow::Message{openflow::BarrierRequest{}}, 12);
  net.run_until(0.02);
  ASSERT_EQ(replies.size(), 2u);
  const auto* second = std::get_if<openflow::BarrierReply>(&replies[1].msg);
  ASSERT_NE(second, nullptr);
  EXPECT_TRUE(acks(*second, 10));
  EXPECT_EQ(net.switch_at(1).table(0).size(), 1u);
}

TEST(BarrierAck, DeliveredLaterModDoesNotVouchForEarlierLostMod) {
  // The scenario a high-water-mark ack gets wrong: tracked mod A (xid 10)
  // is dropped by the channel, tracked mod B (xid 12) goes through. B's
  // barrier must ack exactly {12} — an ack covering 10 would tell the
  // controller A's rule is installed when the switch never saw it.
  sim::SimNetwork net(topo::make_linear(1, 1), drop_miss_options());
  Channel channel(net.events(), 1e-4);
  SwitchAgent agent(net, 1, channel);
  std::vector<openflow::OwnedMessage> replies;
  collect_replies(channel, replies);

  // Mod A (xid 10) never sent — the channel ate it. Mod B + barrier land.
  channel.stage(Channel::Side::B).append(openflow::Message{simple_mod(7)}, 12);
  flush_to_switch(channel, openflow::Message{openflow::BarrierRequest{}}, 13);
  net.run_until(0.01);
  ASSERT_EQ(replies.size(), 1u);
  const auto* reply = std::get_if<openflow::BarrierReply>(&replies[0].msg);
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(acks(*reply, 12));
  EXPECT_FALSE(acks(*reply, 10));
}

TEST(BarrierAck, RejectedModIsNotAcked) {
  // A mod the dataplane refused resolves through its Error, never through
  // a barrier ack: if the error is lost, the controller must retransmit,
  // not conclude success.
  sim::SimNetwork net(topo::make_linear(1, 1), drop_miss_options());
  Channel channel(net.events(), 1e-4);
  SwitchAgent agent(net, 1, channel);
  std::vector<openflow::OwnedMessage> replies;
  collect_replies(channel, replies);

  openflow::FlowMod bad = simple_mod(7);
  bad.table_id = 99;  // invalid table
  channel.stage(Channel::Side::B).append(openflow::Message{bad}, 20);
  flush_to_switch(channel, openflow::Message{openflow::BarrierRequest{}}, 21);
  net.run_until(0.01);
  ASSERT_EQ(replies.size(), 2u);  // ErrorMsg then BarrierReply
  const auto* reply = std::get_if<openflow::BarrierReply>(&replies[1].msg);
  ASSERT_NE(reply, nullptr);
  EXPECT_FALSE(acks(*reply, 20));
}

TEST(BarrierAck, RebootClearsAcksFromThePreviousBoot) {
  // Acks vouch for installed state; a power cycle wiped that state, so a
  // post-reboot barrier must not repeat pre-crash acks.
  sim::SimNetwork net(topo::make_linear(1, 1), drop_miss_options());
  Channel channel(net.events(), 1e-4);
  SwitchAgent agent(net, 1, channel);
  std::vector<openflow::OwnedMessage> replies;
  collect_replies(channel, replies);

  flush_to_switch(channel, openflow::Message{simple_mod(5)}, 30);
  net.run_until(0.01);
  ASSERT_EQ(net.switch_at(1).table(0).size(), 1u);

  net.crash_switch(1);
  net.reboot_switch(1);
  ASSERT_EQ(net.switch_at(1).table(0).size(), 0u);

  flush_to_switch(channel, openflow::Message{openflow::BarrierRequest{}}, 31);
  net.run_until(0.02);
  ASSERT_EQ(replies.size(), 1u);
  const auto* reply = std::get_if<openflow::BarrierReply>(&replies[0].msg);
  ASSERT_NE(reply, nullptr);
  EXPECT_FALSE(acks(*reply, 30));
}

TEST(Transactional, DuplicatedFlowModIsIdempotent) {
  sim::SimNetwork net(topo::make_linear(1, 1), drop_miss_options());
  Controller ctrl(net, fast_options());
  ctrl.connect_all();
  net.run_until(0.1);

  ChannelFaults faults;
  faults.duplicate_prob = 1.0;  // every message delivered twice
  faults.seed = 3;
  ctrl.set_channel_faults(faults);

  std::optional<std::optional<openflow::Error>> outcome;
  ctrl.flow_mod(1, simple_mod(9),
                [&](const std::optional<openflow::Error>& err) {
                  outcome = err;
                });
  net.run_until(0.3);

  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->has_value());  // resolved ok
  EXPECT_EQ(net.switch_at(1).table(0).size(), 1u);  // Add upserts: one entry
}

TEST(Transactional, LostModTimesOutInsteadOfFalseAcking) {
  sim::SimNetwork net(topo::make_linear(1, 1), drop_miss_options());
  Controller ctrl(net, fast_options());
  ctrl.connect_all();
  net.run_until(0.1);

  ChannelFaults faults;
  faults.loss_prob = 1.0;  // black hole: mod, barrier, retransmits all lost
  faults.seed = 3;
  ctrl.set_channel_faults(faults);

  std::optional<std::optional<openflow::Error>> outcome;
  ctrl.flow_mod(1, simple_mod(9),
                [&](const std::optional<openflow::Error>& err) {
                  outcome = err;
                });
  net.run_until(1.0);

  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->has_value());
  EXPECT_EQ((*outcome)->code, completion_code::kTimedOut);
  EXPECT_EQ(ctrl.stats().retransmits,
            static_cast<std::uint64_t>(fast_options().completion_max_attempts -
                                       1));
  EXPECT_EQ(ctrl.stats().completions_failed, 1u);
  EXPECT_EQ(net.switch_at(1).table(0).size(), 0u);
}

TEST(Transactional, RetransmitRecoversAfterTransientLoss) {
  sim::SimNetwork net(topo::make_linear(1, 1), drop_miss_options());
  Controller ctrl(net, fast_options());
  ctrl.connect_all();
  net.run_until(0.1);

  ChannelFaults faults;
  faults.loss_prob = 1.0;
  faults.seed = 3;
  ctrl.set_channel_faults(faults);

  std::optional<std::optional<openflow::Error>> outcome;
  ctrl.flow_mod(1, simple_mod(9),
                [&](const std::optional<openflow::Error>& err) {
                  outcome = err;
                });
  net.run_until(0.12);  // first attempt lost, retries still pending
  EXPECT_FALSE(outcome.has_value());
  ctrl.clear_channel_faults();
  net.run_until(0.5);

  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->has_value());  // a retransmit got through
  EXPECT_GE(ctrl.stats().retransmits, 1u);
  EXPECT_EQ(net.switch_at(1).table(0).size(), 1u);
}

TEST(Transactional, PreHandshakeTrackedSendSurvivesEpochBump) {
  // A tracked send issued before the handshake finishes arms its timeout
  // under the pre-handshake epoch; the FeaturesReply epoch bump must
  // re-arm it, or a lost pre-handshake mod would neither retry nor fail.
  sim::SimNetwork net(topo::make_linear(1, 1), drop_miss_options());
  Controller ctrl(net, fast_options());
  ctrl.connect_all();
  // Let the agent put Hello/FeaturesReply on the wire (loss is decided at
  // send time, so in-flight replies are safe)...
  net.run_until(1.5e-4);
  ASSERT_FALSE(ctrl.switch_alive(1));  // handshake still in flight

  // ...then black-hole the channel and issue the tracked send: the mod
  // and its barrier are lost while the handshake still completes.
  ChannelFaults faults;
  faults.loss_prob = 1.0;
  faults.seed = 3;
  ctrl.set_channel_faults(faults);
  std::optional<std::optional<openflow::Error>> outcome;
  ctrl.flow_mod(1, simple_mod(9),
                [&](const std::optional<openflow::Error>& err) {
                  outcome = err;
                });

  net.run_until(0.01);
  ASSERT_TRUE(ctrl.switch_alive(1));   // handshake completed (epoch bumped)
  ASSERT_FALSE(outcome.has_value());   // completion still pending
  ctrl.clear_channel_faults();
  net.run_until(1.0);

  // The re-armed timeout retransmitted and the mod landed.
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->has_value());
  EXPECT_GE(ctrl.stats().retransmits, 1u);
  EXPECT_EQ(net.switch_at(1).table(0).size(), 1u);
}

TEST(Transactional, ErrorResolvesCompletionAndReachesApps) {
  sim::SimNetwork net(topo::make_linear(1, 1), drop_miss_options());
  Controller ctrl(net, fast_options());
  auto& probe = ctrl.add_app<Probe>();
  ctrl.connect_all();
  net.run_until(0.1);

  openflow::FlowMod bad = simple_mod(9);
  bad.table_id = 99;  // invalid table -> switch error
  std::optional<std::optional<openflow::Error>> outcome;
  ctrl.flow_mod(1, bad, [&](const std::optional<openflow::Error>& err) {
    outcome = err;
  });
  net.run_until(0.3);

  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->has_value());
  EXPECT_NE((*outcome)->code, completion_code::kTimedOut);
  EXPECT_EQ(probe.errors, 1);
}

// ---- batched flushes ------------------------------------------------------

TEST(BatchedFlush, AckWindowSurvivesDropAndDup) {
  // Batching is on by default: mods and their chasing barriers ride in
  // coalesced flushes. Per-frame fault injection (drop/dup/jitter inside a
  // batch) must not confuse the per-xid ack window — every tracked mod
  // still resolves exactly once, and the table converges.
  sim::SimNetwork net(topo::make_linear(1, 1), drop_miss_options());
  // Fast retransmits but lenient liveness: a heartbeat verdict would fail
  // the pending mods with kSwitchDown and mask what we are testing.
  Controller::Options opts = fast_options();
  opts.echo_miss_limit = 100;
  Controller ctrl(net, opts);
  ctrl.connect_all();
  net.run_until(0.1);

  // No jitter: reordering a barrier ahead of its own mods is a (v1-era)
  // ack-coverage gap orthogonal to batching; this test pins down loss and
  // duplication behavior of the flushed-batch ack window.
  ChannelFaults faults;
  faults.loss_prob = 0.15;
  faults.duplicate_prob = 0.15;
  faults.seed = 11;
  ctrl.set_channel_faults(faults);

  const int n = 20;
  int resolved = 0;
  int failed = 0;
  for (int i = 0; i < n; ++i) {
    ctrl.flow_mod(1, simple_mod(static_cast<std::uint16_t>(100 + i)),
                  [&](const std::optional<openflow::Error>& err) {
                    ++resolved;
                    if (err) ++failed;
                  });
  }
  net.run_until(2.0);
  ctrl.clear_channel_faults();
  net.run_until(3.0);

  EXPECT_EQ(resolved, n);  // every completion fired exactly once
  EXPECT_EQ(failed, 0);    // retransmits recovered every loss
  EXPECT_EQ(net.switch_at(1).table(0).size(), static_cast<std::size_t>(n));
}

// ---- bundles --------------------------------------------------------------

TEST(Bundle, CommitWithFailingMemberInstallsNothing) {
  // Table capacity 2, bundle of 3: the third Add fails TableFull and the
  // switch must roll the first two back — all-or-nothing.
  sim::SimOptions opts = drop_miss_options();
  opts.switch_config.table_capacity = 2;
  sim::SimNetwork net(topo::make_linear(1, 1), opts);
  Controller ctrl(net, fast_options());
  ctrl.connect_all();
  net.run_until(0.1);

  std::optional<std::optional<openflow::Error>> outcome;
  ctrl.commit_bundle(
      1,
      {openflow::Message{simple_mod(1)}, openflow::Message{simple_mod(2)},
       openflow::Message{simple_mod(3)}},
      [&](const std::optional<openflow::Error>& err) { outcome = err; });
  net.run_until(0.5);

  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->has_value());
  EXPECT_TRUE(openflow::is_table_full(**outcome));
  EXPECT_EQ(net.switch_at(1).table(0).size(), 0u);
}

TEST(Bundle, FailingCommitStaysEmptyUnderSeededFaultStorm) {
  // Same failing bundle, but the channel drops/dups frames: no matter how
  // the Open/Add/Commit exchange is mangled or retried, not one member
  // rule may leak into the table.
  sim::SimOptions opts = drop_miss_options();
  opts.switch_config.table_capacity = 2;
  sim::SimNetwork net(topo::make_linear(1, 1), opts);
  Controller ctrl(net, fast_options());
  ctrl.connect_all();
  net.run_until(0.1);

  ChannelFaults faults;
  faults.loss_prob = 0.2;
  faults.duplicate_prob = 0.2;
  faults.extra_delay_max_s = 1e-3;
  faults.seed = 17;
  ctrl.set_channel_faults(faults);

  std::optional<std::optional<openflow::Error>> outcome;
  ctrl.commit_bundle(
      1,
      {openflow::Message{simple_mod(1)}, openflow::Message{simple_mod(2)},
       openflow::Message{simple_mod(3)}},
      [&](const std::optional<openflow::Error>& err) { outcome = err; });
  net.run_until(3.0);
  ctrl.clear_channel_faults();
  net.run_until(4.0);

  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->has_value());  // the bundle can never succeed
  EXPECT_EQ(net.switch_at(1).table(0).size(), 0u);
}

TEST(Bundle, CommitRecoversUnderLossAndStaysAtomic) {
  // A valid bundle on a lossy channel: lost Adds surface as
  // BundleIncomplete and the controller re-commits the whole bundle. The
  // end state is binary — all three rules or none, never a partial path.
  sim::SimNetwork net(topo::make_linear(1, 1), drop_miss_options());
  Controller ctrl(net, fast_options());
  ctrl.connect_all();
  net.run_until(0.1);

  ChannelFaults faults;
  faults.loss_prob = 0.15;
  faults.duplicate_prob = 0.15;
  faults.seed = 23;
  ctrl.set_channel_faults(faults);

  std::optional<std::optional<openflow::Error>> outcome;
  ctrl.commit_bundle(
      1,
      {openflow::Message{simple_mod(1)}, openflow::Message{simple_mod(2)},
       openflow::Message{simple_mod(3)}},
      [&](const std::optional<openflow::Error>& err) { outcome = err; });
  net.run_until(2.0);
  ctrl.clear_channel_faults();
  net.run_until(3.0);

  ASSERT_TRUE(outcome.has_value());
  const std::size_t installed = net.switch_at(1).table(0).size();
  if (outcome->has_value()) {
    EXPECT_EQ(installed, 0u);  // gave up: nothing may linger
  } else {
    EXPECT_EQ(installed, 3u);  // succeeded: the whole path landed
  }
}

TEST(Bundle, RuleStoreBundleRollsBackAndDegradesTogether) {
  // install_bundle through the store on a table that can never hold the
  // bundle (capacity 2, nothing evictable): the store's TableFull ladder
  // runs out and parks every member degraded; the switch holds none.
  sim::SimOptions opts = drop_miss_options();
  opts.switch_config.table_capacity = 2;
  sim::SimNetwork net(topo::make_linear(1, 1), opts);
  Controller ctrl(net, fast_options());
  ctrl.connect_all();
  net.run_until(0.1);

  std::optional<std::optional<openflow::Error>> outcome;
  ctrl.rule_store().install_bundle(
      1, {simple_mod(1, 0xa1), simple_mod(2, 0xa2), simple_mod(3, 0xa3)},
      [&](const std::optional<openflow::Error>& err) { outcome = err; });
  net.run_until(1.0);

  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->has_value());
  EXPECT_TRUE(openflow::is_table_full(**outcome));
  EXPECT_EQ(net.switch_at(1).table(0).size(), 0u);
  EXPECT_EQ(ctrl.rule_store().degraded_rules(1), 3u);
  // Audits skip degraded intent: the table must not start flapping.
  std::optional<AuditReport> report;
  ctrl.rule_store().audit(1, [&](const AuditReport& r) { report = r; });
  net.run_until(2.0);
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->converged);
  EXPECT_EQ(net.switch_at(1).table(0).size(), 0u);
}

// ---- liveness + reconnect -------------------------------------------------

TEST(Liveness, HeartbeatDeclaresCrashedSwitchDown) {
  sim::SimNetwork net(topo::make_linear(1, 1), drop_miss_options());
  Controller ctrl(net, fast_options());
  auto& probe = ctrl.add_app<Probe>();
  ctrl.connect_all();
  net.run_until(0.1);
  ASSERT_TRUE(ctrl.switch_alive(1));

  net.crash_switch(1);
  net.run_until(0.5);

  EXPECT_FALSE(ctrl.switch_alive(1));
  EXPECT_EQ(probe.downs, 1);
  EXPECT_EQ(probe.last_down, 1u);
  EXPECT_TRUE(ctrl.view().switch_ids().empty());
  EXPECT_EQ(ctrl.stats().switch_down_events, 1u);
}

TEST(Liveness, TrackedSendToDownSwitchFailsFast) {
  sim::SimNetwork net(topo::make_linear(1, 1), drop_miss_options());
  Controller ctrl(net, fast_options());
  ctrl.connect_all();
  net.run_until(0.1);
  net.crash_switch(1);
  net.run_until(0.5);
  ASSERT_FALSE(ctrl.switch_alive(1));

  std::optional<std::optional<openflow::Error>> outcome;
  ctrl.flow_mod(1, simple_mod(9),
                [&](const std::optional<openflow::Error>& err) {
                  outcome = err;
                });
  net.run_until(0.55);

  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->has_value());
  EXPECT_EQ((*outcome)->code, completion_code::kSwitchDown);
}

TEST(Liveness, RebootReplaysHandshakeAndAuditsRulesBack) {
  sim::SimNetwork net(topo::make_linear(1, 1), drop_miss_options());
  Controller ctrl(net, fast_options());
  auto& probe = ctrl.add_app<Probe>();
  ctrl.connect_all();
  net.run_until(0.1);

  // Intended state recorded in the store, then the switch loses it all.
  ctrl.rule_store().install(1, simple_mod(9, /*cookie=*/0xc0));
  net.run_until(0.2);
  ASSERT_EQ(net.switch_at(1).table(0).size(), 1u);

  net.crash_switch(1);
  net.run_until(0.7);
  ASSERT_FALSE(ctrl.switch_alive(1));
  net.reboot_switch(1);
  net.run_until(2.0);

  EXPECT_TRUE(ctrl.switch_alive(1));
  EXPECT_EQ(probe.ups, 2);  // handshake replayed
  // The reconnect audit reinstalled the wiped rule.
  EXPECT_EQ(net.switch_at(1).table(0).size(), 1u);
  EXPECT_GE(ctrl.rule_store().stats().repairs_installed, 1u);
}

TEST(Liveness, FastRebootDetectedByBootEpoch) {
  // A crash + reboot inside one heartbeat interval never misses an echo;
  // the boot epoch carried in EchoReply is what exposes it. Without that
  // the controller would keep believing in rules the reboot wiped.
  sim::SimNetwork net(topo::make_linear(1, 1), drop_miss_options());
  Controller ctrl(net, fast_options());
  auto& probe = ctrl.add_app<Probe>();
  ctrl.connect_all();
  net.run_until(0.1);
  ctrl.rule_store().install(1, simple_mod(9, /*cookie=*/0xc0));
  net.run_until(0.2);
  ASSERT_EQ(net.switch_at(1).table(0).size(), 1u);

  net.crash_switch(1);
  net.reboot_switch(1);  // zero downtime: no echo is ever missed
  ASSERT_EQ(net.switch_at(1).table(0).size(), 0u);

  net.run_until(2.0);
  EXPECT_EQ(probe.downs, 1);  // boot-epoch mismatch tore the session down
  EXPECT_TRUE(ctrl.switch_alive(1));
  // The reconnect audit reinstalled the wiped rule.
  EXPECT_EQ(net.switch_at(1).table(0).size(), 1u);
  EXPECT_GE(ctrl.rule_store().stats().repairs_installed, 1u);
}

TEST(Liveness, SwitchDownFailsPlainBarrierAndStatsCallbacks) {
  // barrier()/request_*_stats callers must hear about a dead switch, not
  // hang forever because the pending maps were silently cleared.
  sim::SimNetwork net(topo::make_linear(1, 1), drop_miss_options());
  Controller ctrl(net, fast_options());
  ctrl.connect_all();
  net.run_until(0.1);
  ASSERT_TRUE(ctrl.switch_alive(1));

  net.crash_switch(1);  // requests below reach a silent switch
  std::optional<bool> barrier_ok;
  ctrl.barrier(1, [&](bool ok) { barrier_ok = ok; });
  bool flow_stats_fired = false;
  const openflow::FlowStatsReply* flow_stats_reply = nullptr;
  ctrl.request_flow_stats(1, {}, [&](const openflow::FlowStatsReply* r) {
    flow_stats_fired = true;
    flow_stats_reply = r;
  });
  bool port_stats_fired = false;
  ctrl.request_port_stats(1, {}, [&](const openflow::PortStatsReply* r) {
    port_stats_fired = true;
    EXPECT_EQ(r, nullptr);
  });

  net.run_until(0.5);  // heartbeat declares the switch down
  ASSERT_FALSE(ctrl.switch_alive(1));
  ASSERT_TRUE(barrier_ok.has_value());
  EXPECT_FALSE(*barrier_ok);
  EXPECT_TRUE(flow_stats_fired);
  EXPECT_EQ(flow_stats_reply, nullptr);
  EXPECT_TRUE(port_stats_fired);
}

TEST(Liveness, SwitchDownFailsRequestsInXidOrder) {
  // A down verdict fails every pending callback once, in the order the
  // requests were made, whatever their kind. The requests go out of kind
  // order, and the tracked mod's timeout outlasts the heartbeat verdict so
  // it is still pending when the switch is declared down.
  sim::SimNetwork net(topo::make_linear(1, 1), drop_miss_options());
  Controller::Options opts = fast_options();
  opts.completion_timeout_s = 1.0;
  Controller ctrl(net, opts);
  ctrl.connect_all();
  net.run_until(0.1);
  ASSERT_TRUE(ctrl.switch_alive(1));

  net.crash_switch(1);  // requests below reach a silent switch
  std::vector<std::string> fired;
  ctrl.request_role(1, openflow::ControllerRole::Master, 1,
                    [&](const openflow::RoleReply* r) {
                      EXPECT_EQ(r, nullptr);
                      fired.push_back("role");
                    });
  ctrl.request_port_stats(1, {}, [&](const openflow::PortStatsReply* r) {
    EXPECT_EQ(r, nullptr);
    fired.push_back("port_stats");
  });
  ctrl.flow_mod(1, simple_mod(9),
                [&](const std::optional<openflow::Error>& err) {
                  ASSERT_TRUE(err.has_value());
                  EXPECT_EQ(err->code, completion_code::kSwitchDown);
                  fired.push_back("flow_mod");
                });
  ctrl.barrier(1, [&](bool ok) {
    EXPECT_FALSE(ok);
    fired.push_back("barrier");
  });
  ctrl.request_flow_stats(1, {}, [&](const openflow::FlowStatsReply* r) {
    EXPECT_EQ(r, nullptr);
    fired.push_back("flow_stats");
  });

  net.run_until(0.5);  // heartbeat declares the switch down
  ASSERT_FALSE(ctrl.switch_alive(1));
  EXPECT_EQ(fired, (std::vector<std::string>{"role", "port_stats", "flow_mod",
                                             "barrier", "flow_stats"}));
}

TEST(Liveness, RequestsToDownSwitchFailFast) {
  // Requests to a switch already declared down must not wait in the dead
  // channel for the next declare_switch_down: each kind fails once, at the
  // instant it was made (but after the call returns), and stays failed
  // across the switch's reboot and reconnect.
  sim::SimNetwork net(topo::make_linear(1, 1), drop_miss_options());
  Controller ctrl(net, fast_options());
  ctrl.connect_all();
  net.run_until(0.1);
  net.crash_switch(1);
  net.run_until(0.5);  // heartbeat declares the switch down
  ASSERT_FALSE(ctrl.switch_alive(1));

  const double asked_at = net.now();
  std::vector<double> barrier_at, flow_stats_at, port_stats_at, role_at;
  ctrl.barrier(1, [&](bool ok) {
    EXPECT_FALSE(ok);
    barrier_at.push_back(net.now());
  });
  ctrl.request_flow_stats(1, {}, [&](const openflow::FlowStatsReply* r) {
    EXPECT_EQ(r, nullptr);
    flow_stats_at.push_back(net.now());
  });
  ctrl.request_port_stats(1, {}, [&](const openflow::PortStatsReply* r) {
    EXPECT_EQ(r, nullptr);
    port_stats_at.push_back(net.now());
  });
  ctrl.request_role(1, openflow::ControllerRole::Master, 1,
                    [&](const openflow::RoleReply* r) {
                      EXPECT_EQ(r, nullptr);
                      role_at.push_back(net.now());
                    });
  EXPECT_TRUE(barrier_at.empty());  // asynchronous, not from inside the call

  const auto expect_failed_once_at_ask = [&] {
    for (const auto* fired :
         {&barrier_at, &flow_stats_at, &port_stats_at, &role_at}) {
      ASSERT_EQ(fired->size(), 1u);
      EXPECT_EQ(fired->front(), asked_at);
    }
  };
  net.run_until(0.7);  // still down
  expect_failed_once_at_ask();
  net.reboot_switch(1);
  net.run_until(2.0);
  ASSERT_TRUE(ctrl.switch_alive(1));
  expect_failed_once_at_ask();
}

TEST(Liveness, LostFeaturesReplyIsRetriedNotHung) {
  sim::SimNetwork net(topo::make_linear(1, 1), drop_miss_options());
  Controller ctrl(net, fast_options());
  ctrl.connect_all();
  // Black-hole the channel before any handshake reply can come back.
  ChannelFaults faults;
  faults.loss_prob = 1.0;
  faults.seed = 3;
  ctrl.set_channel_faults(faults);
  net.run_until(0.5);
  EXPECT_FALSE(ctrl.switch_alive(1));

  ctrl.clear_channel_faults();
  net.run_until(1.5);  // backoff retry replays Hello/FeaturesRequest
  EXPECT_TRUE(ctrl.switch_alive(1));
  EXPECT_EQ(ctrl.view().switch_ids().size(), 1u);
}

// ---- flow rule store ------------------------------------------------------

TEST(FlowRuleStore, AuditRepairsSilentWipe) {
  sim::SimNetwork net(topo::make_linear(1, 1), drop_miss_options());
  // Slow heartbeats: the controller never notices the crash (silent wipe).
  Controller::Options opts;
  opts.echo_interval_s = 60;
  Controller ctrl(net, opts);
  ctrl.connect_all();
  net.run_until(0.1);

  ctrl.rule_store().install(1, simple_mod(9, 0xc0));
  ctrl.rule_store().install(1, simple_mod(10, 0xc1));
  net.run_until(0.2);
  ASSERT_EQ(net.switch_at(1).table(0).size(), 2u);

  net.crash_switch(1);
  net.reboot_switch(1);  // tables wiped, controller unaware
  ASSERT_EQ(net.switch_at(1).table(0).size(), 0u);

  std::optional<AuditReport> report;
  ctrl.rule_store().audit(1, [&](const AuditReport& r) { report = r; });
  net.run_until(1.5);

  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->converged);
  EXPECT_EQ(report->repaired, 2u);
  EXPECT_EQ(report->orphans, 0u);
  EXPECT_EQ(net.switch_at(1).table(0).size(), 2u);
}

TEST(FlowRuleStore, AuditDeletesManagedOrphans) {
  sim::SimNetwork net(topo::make_linear(1, 1), drop_miss_options());
  Controller ctrl(net, fast_options());
  ctrl.connect_all();
  net.run_until(0.1);

  ctrl.rule_store().install(1, simple_mod(9, 0xc0));
  // A stray rule carrying the managed cookie, installed behind the
  // store's back (e.g. a pre-crash leftover): orphan.
  ctrl.flow_mod(1, simple_mod(10, 0xc0));
  // A cookie-0 rule (app plumbing) must be left alone.
  ctrl.flow_mod(1, simple_mod(11, 0));
  net.run_until(0.2);
  ASSERT_EQ(net.switch_at(1).table(0).size(), 3u);

  std::optional<AuditReport> report;
  ctrl.rule_store().audit(1, [&](const AuditReport& r) { report = r; });
  net.run_until(1.0);

  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->converged);
  EXPECT_EQ(report->repaired, 0u);
  EXPECT_EQ(report->orphans, 1u);
  EXPECT_EQ(net.switch_at(1).table(0).size(), 2u);
}

// ---- intent divergence ----------------------------------------------------

TEST(IntentDivergence, EvictedRuleTriggersRecompile) {
  core::Network::Config cfg;
  cfg.controller = fast_options();
  cfg.warmup_s = 1.0;
  core::Network net(topo::make_linear(2, 1), cfg);
  net.add_app<apps::Discovery>();
  auto& intents = net.enable_intents();
  net.start();

  net.host(0).send_icmp_echo(net.host_ip(1), 1);
  net.host(1).send_icmp_echo(net.host_ip(0), 1);
  net.run_for(0.5);

  intent::IntentSpec spec;
  spec.kind = intent::IntentKind::PointToPoint;
  spec.src = net.host_ip(0);
  spec.dst = net.host_ip(1);
  const auto id = intents.submit(spec);
  net.run_for(0.5);
  ASSERT_EQ(intents.state(id), intent::IntentState::Installed);
  const auto recompiles_before = intents.stats().recompiles;

  // Find the intent's rule on the first-path switch and replay its
  // eviction (as the agent would after an idle timeout).
  const auto path = intents.installed_path(id);
  ASSERT_FALSE(path.empty());
  const Dpid dpid = path.front();
  openflow::FlowRemoved removed;
  bool found = false;
  for (const auto& entry : net.sim().switch_at(dpid).table(0).entries()) {
    if (entry->cookie != id) continue;
    removed.cookie = entry->cookie;
    removed.priority = entry->priority;
    removed.table_id = 0;
    removed.match = entry->match;
    found = true;
    break;
  }
  ASSERT_TRUE(found);

  // reason=Delete is the manager's own delete echoing back: ignored.
  removed.reason = openflow::FlowRemovedReason::Delete;
  intents.on_flow_removed(dpid, removed);
  EXPECT_EQ(intents.stats().recompiles, recompiles_before);

  // reason=IdleTimeout is silent divergence: recompile reinstalls.
  removed.reason = openflow::FlowRemovedReason::IdleTimeout;
  intents.on_flow_removed(dpid, removed);
  EXPECT_EQ(intents.stats().recompiles, recompiles_before + 1);
  net.run_for(0.2);
  EXPECT_EQ(intents.state(id), intent::IntentState::Installed);
}

// ---- end to end -----------------------------------------------------------

TEST(ChaosStorm, ConvergesAndAuditsCleanAfterSeededStorm) {
  core::Network::Config cfg;
  cfg.controller = fast_options();
  cfg.warmup_s = 1.5;
  core::Network net(topo::make_leaf_spine(2, 2, 1), cfg);
  net.add_app<apps::Discovery>();
  net.add_app<apps::L3Routing>();
  auto& intents = net.enable_intents();
  net.start();

  net.host(0).send_icmp_echo(net.host_ip(1), 1);
  net.host(1).send_icmp_echo(net.host_ip(0), 1);
  net.run_for(0.5);

  intent::IntentSpec spec;
  spec.kind = intent::IntentKind::HostToHost;
  spec.src = net.host_ip(0);
  spec.dst = net.host_ip(1);
  const auto id = intents.submit(spec);
  net.run_for(0.5);
  ASSERT_EQ(intents.state(id), intent::IntentState::Installed);

  sim::FaultInjector::Options fault_options;
  fault_options.seed = 5;
  fault_options.start_s = net.now() + 0.1;
  fault_options.duration_s = 1.5;
  fault_options.link_flaps = 2;
  fault_options.switch_reboots = 1;
  fault_options.reboot_downtime_min_s = 0.4;
  fault_options.reboot_downtime_max_s = 0.8;
  sim::FaultInjector injector(net.sim(), fault_options);
  injector.arm();
  ASSERT_GE(injector.link_flaps_scheduled(), 1u);
  ASSERT_GE(injector.switch_reboots_scheduled(), 1u);

  ChannelFaults faults;
  faults.loss_prob = 0.05;
  faults.duplicate_prob = 0.05;
  faults.extra_delay_max_s = 1e-3;
  faults.seed = 5;
  net.controller().set_channel_faults(faults);

  net.run_until(injector.storm_end_s() + 0.1);
  net.controller().clear_channel_faults();
  net.run_for(3.0);  // recovery window

  for (const auto dpid : net.generated().switches)
    EXPECT_TRUE(net.controller().switch_alive(dpid)) << "dpid " << dpid;
  EXPECT_EQ(intents.state(id), intent::IntentState::Installed);

  // Repair pass mops up any storm-time divergence...
  bool repaired = false;
  net.controller().rule_store().audit_all(
      [&](std::vector<AuditReport> reports) {
        repaired = true;
        for (const auto& report : reports) EXPECT_TRUE(report.converged);
      });
  net.run_for(3.0);
  ASSERT_TRUE(repaired);

  // ...so the verification pass must find intended == actual everywhere.
  bool verified = false;
  net.controller().rule_store().audit_all(
      [&](std::vector<AuditReport> reports) {
        verified = true;
        EXPECT_FALSE(reports.empty());
        for (const auto& report : reports) {
          EXPECT_TRUE(report.converged);
          EXPECT_EQ(report.repaired, 0u);
          EXPECT_EQ(report.orphans, 0u);
        }
      });
  net.run_for(3.0);
  ASSERT_TRUE(verified);
}

}  // namespace
}  // namespace zen::controller
