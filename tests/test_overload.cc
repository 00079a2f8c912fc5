// Resource-exhaustion suite: bounded flow tables, eviction ordering,
// vacancy hysteresis, the FlowRuleStore's TableFull repair strategy, the
// eviction->Degraded intent path (no recompile storms), and controller-
// loss fail modes across a reconnect.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "controller/apps/discovery.h"
#include "controller/apps/l3_routing.h"
#include "controller/controller.h"
#include "core/network.h"
#include "dataplane/switch.h"
#include "intent/intent_manager.h"
#include "net/packet.h"
#include "openflow/table_status.h"
#include "sim/network.h"
#include "topo/generators.h"

namespace zen {
namespace {

using dataplane::EvictionPolicy;
using dataplane::FailMode;
using dataplane::Switch;
using dataplane::SwitchConfig;

openflow::FlowMod rule_for(std::uint32_t dst_octet, std::uint16_t importance,
                           std::uint16_t priority = 10) {
  openflow::FlowMod mod;
  mod.priority = priority;
  mod.importance = importance;
  mod.match.eth_type(net::EtherType::kIpv4)
      .ipv4_dst(net::Ipv4Address(10, 9, 9, dst_octet), 32);
  mod.instructions = openflow::output_to(2);
  return mod;
}

Switch bounded_switch(std::size_t capacity, EvictionPolicy policy) {
  SwitchConfig config;
  config.table_capacity = capacity;
  config.eviction = policy;
  config.default_miss = dataplane::MissBehavior::Drop;
  Switch sw(1, config);
  for (int i = 1; i <= 4; ++i) {
    openflow::PortDesc port;
    port.port_no = static_cast<std::uint32_t>(i);
    port.hw_addr = net::MacAddress::from_u64(static_cast<std::uint64_t>(i));
    port.name = std::string("p").append(std::to_string(i));
    sw.add_port(port);
  }
  return sw;
}

// ---- eviction ordering ----

TEST(Eviction, ImportanceFirstThenLruTiebreak) {
  Switch sw = bounded_switch(3, EvictionPolicy::Importance);
  ASSERT_TRUE(sw.flow_mod(rule_for(1, 1), 0.0).ok);  // A: imp 1, oldest
  ASSERT_TRUE(sw.flow_mod(rule_for(2, 1), 1.0).ok);  // B: imp 1
  ASSERT_TRUE(sw.flow_mod(rule_for(3, 5), 2.0).ok);  // C: imp 5

  // Full. An incoming imp-3 rule must evict the lowest importance (1) and
  // break the A/B tie by least-recently-used: A.
  ASSERT_TRUE(sw.flow_mod(rule_for(4, 3), 3.0).ok);  // D
  EXPECT_EQ(sw.table(0).size(), 3u);
  EXPECT_EQ(sw.flow_evictions(), 1u);
  EXPECT_FALSE(sw.table(0).contains(rule_for(1, 1).match, 10));
  EXPECT_TRUE(sw.table(0).contains(rule_for(2, 1).match, 10));
  EXPECT_TRUE(sw.table(0).contains(rule_for(3, 5).match, 10));

  // Next victim is B (now the only imp-1 entry).
  ASSERT_TRUE(sw.flow_mod(rule_for(5, 3), 4.0).ok);  // E
  EXPECT_FALSE(sw.table(0).contains(rule_for(2, 1).match, 10));

  // C(5), D(3), E(3) all outrank an incoming imp-2 rule: cannot free
  // space, the Add must be refused as TableFull.
  const auto status = sw.flow_mod(rule_for(6, 2), 5.0);
  EXPECT_FALSE(status.ok);
  EXPECT_EQ(status.error_type, openflow::ErrorType::FlowModFailed);
  EXPECT_EQ(status.error_code, openflow::flow_mod_failed_code::kTableFull);
  EXPECT_EQ(sw.table(0).size(), 3u);
  EXPECT_FALSE(sw.table(0).contains(rule_for(6, 2).match, 10));
}

TEST(Eviction, MatchingTrafficRefreshesLru) {
  Switch sw = bounded_switch(2, EvictionPolicy::Importance);
  ASSERT_TRUE(sw.flow_mod(rule_for(1, 1), 0.0).ok);  // A
  ASSERT_TRUE(sw.flow_mod(rule_for(2, 1), 1.0).ok);  // B

  // Traffic hits A at t=2: A is now more recently used than B.
  const net::Bytes frame = net::build_ipv4_udp(
      net::MacAddress::from_u64(0xa), net::MacAddress::from_u64(0xb),
      net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 9, 9, 1), 1000,
      2000, std::vector<std::uint8_t>{1});
  const auto result = sw.ingress(2.0, 1, frame);
  ASSERT_EQ(result.outputs.size(), 1u);

  ASSERT_TRUE(sw.flow_mod(rule_for(3, 1), 3.0).ok);
  EXPECT_TRUE(sw.table(0).contains(rule_for(1, 1).match, 10));   // refreshed
  EXPECT_FALSE(sw.table(0).contains(rule_for(2, 1).match, 10));  // victim
}

TEST(Eviction, LruPolicyIgnoresImportance) {
  Switch sw = bounded_switch(2, EvictionPolicy::Lru);
  ASSERT_TRUE(sw.flow_mod(rule_for(1, 100), 0.0).ok);  // oldest, high imp
  ASSERT_TRUE(sw.flow_mod(rule_for(2, 0), 1.0).ok);
  ASSERT_TRUE(sw.flow_mod(rule_for(3, 0), 2.0).ok);
  EXPECT_FALSE(sw.table(0).contains(rule_for(1, 100).match, 10));
  EXPECT_TRUE(sw.table(0).contains(rule_for(2, 0).match, 10));
}

TEST(Eviction, OffPolicyRejectsWhenFull) {
  Switch sw = bounded_switch(2, EvictionPolicy::Off);
  ASSERT_TRUE(sw.flow_mod(rule_for(1, 0), 0.0).ok);
  ASSERT_TRUE(sw.flow_mod(rule_for(2, 0), 0.0).ok);
  const auto status = sw.flow_mod(rule_for(3, 0xffff), 0.0);
  EXPECT_FALSE(status.ok);
  EXPECT_EQ(status.error_type, openflow::ErrorType::FlowModFailed);
  EXPECT_EQ(status.error_code, openflow::flow_mod_failed_code::kTableFull);
  EXPECT_EQ(sw.flow_evictions(), 0u);
}

TEST(Eviction, ReplacementAtCapacityNeedsNoFreeSlot) {
  Switch sw = bounded_switch(2, EvictionPolicy::Off);
  ASSERT_TRUE(sw.flow_mod(rule_for(1, 0), 0.0).ok);
  ASSERT_TRUE(sw.flow_mod(rule_for(2, 0), 0.0).ok);
  // Same (match, priority), new instructions: an in-place replace, not an
  // insert — must succeed even at capacity with eviction off.
  openflow::FlowMod replacement = rule_for(2, 0);
  replacement.instructions = openflow::output_to(3);
  EXPECT_TRUE(sw.flow_mod(replacement, 1.0).ok);
  EXPECT_EQ(sw.table(0).size(), 2u);
}

TEST(Eviction, EmitsFlowRemovedOnlyWhenFlagged) {
  Switch sw = bounded_switch(1, EvictionPolicy::Importance);
  openflow::FlowMod flagged = rule_for(1, 0);
  flagged.cookie = 0xabc;
  flagged.flags |= openflow::kFlagSendFlowRemoved;
  ASSERT_TRUE(sw.flow_mod(flagged, 0.0).ok);

  std::vector<openflow::FlowRemoved> removed;
  ASSERT_TRUE(sw.flow_mod(rule_for(2, 1), 1.0, &removed).ok);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].reason, openflow::FlowRemovedReason::Eviction);
  EXPECT_EQ(removed[0].cookie, 0xabcu);
  EXPECT_EQ(removed[0].match, flagged.match);

  // Unflagged victim: counted, but silent.
  removed.clear();
  ASSERT_TRUE(sw.flow_mod(rule_for(3, 2), 2.0, &removed).ok);
  EXPECT_TRUE(removed.empty());
  EXPECT_EQ(sw.flow_evictions(), 2u);
}

// ---- vacancy hysteresis ----

TEST(Vacancy, FiresOncePerCrossingNoStorms) {
  SwitchConfig config;
  config.table_capacity = 10;
  config.eviction = EvictionPolicy::Off;
  config.vacancy_down_pct = 25;  // down when free <= 2.5 entries
  config.vacancy_up_pct = 50;    // up when free >= 5 entries
  config.default_miss = dataplane::MissBehavior::Drop;
  Switch sw(1, config);

  // Fill 0 -> 10: exactly one VacancyDown, at the 8th entry.
  for (std::uint32_t i = 1; i <= 10; ++i)
    ASSERT_TRUE(sw.flow_mod(rule_for(i, 0), 0.0).ok);
  auto events = sw.take_table_status();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].reason, openflow::VacancyReason::VacancyDown);
  EXPECT_EQ(events[0].active_count, 8u);
  EXPECT_EQ(events[0].max_entries, 10u);
  EXPECT_EQ(events[0].vacancy_down_pct, 25);
  EXPECT_EQ(events[0].vacancy_up_pct, 50);
  EXPECT_TRUE(sw.take_table_status().empty());  // drained

  // Drain 10 -> 5: exactly one VacancyUp, at 5 entries (free = 50%).
  const auto remove_one = [&](std::uint32_t i) {
    openflow::FlowMod del = rule_for(i, 0);
    del.command = openflow::FlowModCommand::DeleteStrict;
    ASSERT_TRUE(sw.flow_mod(del, 1.0).ok);
  };
  for (std::uint32_t i = 1; i <= 5; ++i) remove_one(i);
  events = sw.take_table_status();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].reason, openflow::VacancyReason::VacancyUp);
  EXPECT_EQ(events[0].active_count, 5u);

  // Oscillate inside the hysteresis band (5 <-> 7): silence.
  ASSERT_TRUE(sw.flow_mod(rule_for(1, 0), 2.0).ok);
  ASSERT_TRUE(sw.flow_mod(rule_for(2, 0), 2.0).ok);
  remove_one(1);
  remove_one(2);
  EXPECT_TRUE(sw.take_table_status().empty());

  // Refill past the threshold: the cycle re-arms, one more VacancyDown.
  for (std::uint32_t i = 1; i <= 5; ++i)
    ASSERT_TRUE(sw.flow_mod(rule_for(i, 0), 3.0).ok);
  events = sw.take_table_status();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].reason, openflow::VacancyReason::VacancyDown);
}

// ---- FlowRuleStore: TableFull repair strategy ----

sim::SimOptions bounded_options(std::size_t capacity, EvictionPolicy policy) {
  sim::SimOptions opts;
  opts.switch_config.default_miss = dataplane::MissBehavior::Drop;
  opts.switch_config.table_capacity = capacity;
  opts.switch_config.eviction = policy;
  return opts;
}

openflow::FlowMod store_rule(std::uint32_t dst_octet, std::uint16_t importance,
                             std::uint64_t cookie) {
  openflow::FlowMod mod = rule_for(dst_octet, importance);
  mod.cookie = cookie;
  return mod;
}

TEST(StoreTableFull, EvictsOwnLowerImportanceRuleAndRetries) {
  sim::SimNetwork net(topo::make_linear(1, 1),
                      bounded_options(4, EvictionPolicy::Off));
  controller::Controller ctrl(net);
  ctrl.connect_all();
  net.run_until(0.1);
  auto& store = ctrl.rule_store();

  for (std::uint32_t i = 1; i <= 4; ++i)
    store.install(1, store_rule(i, 10, 0xc0 + i));
  net.run_until(0.4);
  ASSERT_EQ(net.switch_at(1).table(0).size(), 4u);

  // A more important rule arrives into the full table: the switch rejects
  // it (eviction off), the store sacrifices one of its own imp-10 rules
  // and the retry succeeds — the caller sees a clean completion.
  std::optional<std::optional<openflow::Error>> outcome;
  store.install(1, store_rule(9, 50, 0xff),
                [&](const std::optional<openflow::Error>& err) {
                  outcome = err;
                });
  net.run_until(1.0);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->has_value()) << "retry should have succeeded";
  EXPECT_TRUE(net.switch_at(1).table(0).contains(store_rule(9, 50, 0).match,
                                                 10));
  EXPECT_EQ(store.degraded_rules(1), 1u);
  EXPECT_GE(store.stats().table_full_rejections, 1u);
  EXPECT_EQ(store.stats().rules_degraded, 1u);

  // A rule *less* important than everything installed cannot free space:
  // it parks as degraded and the typed error reaches the caller — no
  // retry storm, no flapping.
  outcome.reset();
  store.install(1, store_rule(8, 1, 0xee),
                [&](const std::optional<openflow::Error>& err) {
                  outcome = err;
                });
  net.run_until(2.0);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->has_value());
  EXPECT_TRUE(openflow::is_table_full(**outcome));
  EXPECT_EQ(store.degraded_rules(1), 2u);
  EXPECT_FALSE(net.switch_at(1).table(0).contains(store_rule(8, 1, 0).match,
                                                  10));

  // A bundle runs the same ladder: its commit into the still-full table is
  // rejected whole, the store sacrifices one imp-10 rule per member and
  // re-commits, and the caller sees one clean completion.
  outcome.reset();
  store.install_bundle(1, {store_rule(6, 50, 0xd6), store_rule(7, 50, 0xd7)},
                       [&](const std::optional<openflow::Error>& err) {
                         outcome = err;
                       });
  net.run_until(3.0);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->has_value()) << "bundle retry should have succeeded";
  EXPECT_TRUE(net.switch_at(1).table(0).contains(store_rule(6, 50, 0).match,
                                                 10));
  EXPECT_TRUE(net.switch_at(1).table(0).contains(store_rule(7, 50, 0).match,
                                                 10));
  EXPECT_EQ(net.switch_at(1).table(0).size(), 4u);
  EXPECT_EQ(store.degraded_rules(1), 4u);
}

TEST(StoreTableFull, EvictionParksRuleAuditsDoNotFlap) {
  sim::SimNetwork net(topo::make_linear(1, 1),
                      bounded_options(2, EvictionPolicy::Importance));
  controller::Controller ctrl(net);
  ctrl.connect_all();
  net.run_until(0.1);
  auto& store = ctrl.rule_store();

  openflow::FlowMod mine = store_rule(1, 5, 0xaa);
  mine.flags |= openflow::kFlagSendFlowRemoved;
  store.install(1, mine);
  net.run_until(0.4);
  ASSERT_TRUE(net.switch_at(1).table(0).contains(mine.match, 10));

  // The dataplane fills with short-lived higher-importance rules, evicting
  // ours; the FlowRemoved/Eviction parks the intended rule as degraded.
  for (std::uint32_t i = 2; i <= 3; ++i) {
    openflow::FlowMod junk = rule_for(i, 10);
    junk.hard_timeout = 1;
    ASSERT_TRUE(net.flow_mod(1, junk).ok);
  }
  net.run_until(0.6);
  EXPECT_FALSE(net.switch_at(1).table(0).contains(mine.match, 10));
  EXPECT_EQ(store.degraded_rules(1), 1u);

  // An audit with the table still full must NOT try to reinstall the
  // parked rule (that would recreate the pressure) and must not treat it
  // as an orphan either.
  std::optional<controller::AuditReport> report;
  store.audit(1, [&](const controller::AuditReport& r) { report = r; });
  net.run_until(1.0);
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->converged);
  EXPECT_EQ(report->repaired, 0u);
  EXPECT_EQ(report->orphans, 0u);
  EXPECT_EQ(report->degraded, 1u);

  // Pressure expires; un-park and audit again: now it is repaired.
  net.run_until(2.5);  // junk hard_timeout has passed
  EXPECT_EQ(store.clear_degraded(1), 1u);
  report.reset();
  store.audit(1, [&](const controller::AuditReport& r) { report = r; });
  net.run_until(3.5);
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->converged);
  EXPECT_EQ(report->repaired, 1u);
  EXPECT_TRUE(net.switch_at(1).table(0).contains(mine.match, 10));
}

// ---- intent regression: eviction must not recompile-storm ----

TEST(IntentPressure, EvictionDegradesThenVacancyUpHeals) {
  core::Network::Config cfg;
  cfg.sim.switch_config.table_capacity = 8;
  cfg.sim.switch_config.eviction = EvictionPolicy::Importance;
  cfg.sim.switch_config.vacancy_down_pct = 25;
  cfg.sim.switch_config.vacancy_up_pct = 50;
  core::Network net(topo::make_leaf_spine(2, 2, 1), cfg);
  net.add_app<controller::apps::Discovery>();
  auto& intents = net.enable_intents();
  net.start();

  net.host(0).send_icmp_echo(net.host_ip(1), 1);
  net.host(1).send_icmp_echo(net.host_ip(0), 1);
  net.run_for(1.0);

  intent::IntentSpec spec;
  spec.kind = intent::IntentKind::ProtectedPointToPoint;
  spec.src = net.host_ip(0);
  spec.dst = net.host_ip(1);
  spec.importance = 5;
  const intent::IntentId id = intents.submit(spec);
  net.run_for(1.0);
  ASSERT_EQ(intents.state(id), intent::IntentState::Installed);

  // Flood the head-end switch with higher-importance junk until the
  // intent's rule is evicted. The old behavior recompiled on every
  // eviction — with the table still full that reinstall gets evicted
  // again immediately: an infinite compile/evict loop. The intent must
  // instead park as Degraded with NO recompile.
  const controller::Dpid head = net.generated().attachments[0].sw;
  const std::uint64_t recompiles_before = intents.stats().recompiles;
  for (std::uint32_t i = 1; i <= 8; ++i) {
    openflow::FlowMod junk = rule_for(i, 10);
    junk.hard_timeout = 1;
    ASSERT_TRUE(net.sim().flow_mod(head, junk).ok);
  }
  net.run_for(0.5);
  EXPECT_EQ(intents.state(id), intent::IntentState::Degraded);
  EXPECT_GE(intents.stats().degraded, 1u);
  EXPECT_EQ(intents.stats().recompiles, recompiles_before)
      << "eviction must not trigger an immediate recompile";

  // The junk expires (hard_timeout 1s), occupancy recovers past the up
  // threshold, VacancyUp reaches the IntentManager, and the intent heals.
  net.run_for(3.0);
  EXPECT_EQ(intents.state(id), intent::IntentState::Installed);
  // Healing is one recompile (plus at most a couple from topology churn),
  // not a storm.
  EXPECT_LE(intents.stats().recompiles, recompiles_before + 4);
}

// ---- fail modes across a controller-loss + reconnect cycle ----

struct FailModeRun {
  std::size_t lost = 0;
  std::size_t standalone = 0;
  bool fallback_in_table = false;
  std::uint64_t delivered = 0;
  bool recovered_clean = false;
};

FailModeRun run_fail_mode(FailMode mode) {
  core::Network::Config cfg;
  cfg.controller.echo_interval_s = 0.1;
  cfg.controller.echo_miss_limit = 3;
  cfg.controller.reconnect_backoff_initial_s = 0.1;
  cfg.controller.reconnect_backoff_max_s = 0.5;
  cfg.sim.switch_config.fail_mode = mode;
  cfg.sim.switch_config.fail_timeout_s = 0.4;
  core::Network net(topo::make_leaf_spine(1, 2, 2), cfg);
  net.add_app<controller::apps::Discovery>();
  net.add_app<controller::apps::L3Routing>();
  net.start();

  // Host 3 stays silent: it is never discovered, so no proactive route
  // toward it exists anywhere and blackout traffic 1 -> 3 is a genuinely
  // *new* flow the controller-less fabric has never seen.
  net.host(1).send_icmp_echo(net.host_ip(0), 1);
  net.run_for(1.0);
  net.host(1).add_arp_entry(net.host_ip(3), net.host(3).mac());

  FailModeRun out;
  controller::ChannelFaults blackout;
  blackout.loss_prob = 1.0;
  net.controller().set_channel_faults(blackout);
  net.run_for(1.2);

  const openflow::Match empty_match;
  for (const auto dpid : net.generated().switches) {
    const controller::SwitchAgent* agent = net.controller().agent(dpid);
    if (agent && agent->controller_session_lost()) ++out.lost;
    if (agent && agent->standalone_active()) ++out.standalone;
    out.fallback_in_table =
        out.fallback_in_table ||
        net.sim().switch_at(dpid).table(0).contains(empty_match, 1);
  }

  const std::uint64_t before = net.total_udp_received();
  for (int i = 0; i < 3; ++i)
    net.host(1).send_udp(net.host_ip(3), static_cast<std::uint16_t>(5000 + i),
                         6000, 128);
  net.run_for(0.3);
  out.delivered = net.total_udp_received() - before;

  net.controller().clear_channel_faults();
  const double deadline = net.now() + 8.0;
  while (net.now() < deadline) {
    net.run_for(0.25);
    bool all_alive = true;
    std::size_t still_standalone = 0;
    bool fallback_left = false;
    for (const auto dpid : net.generated().switches) {
      all_alive = all_alive && net.controller().switch_alive(dpid);
      const controller::SwitchAgent* agent = net.controller().agent(dpid);
      if (agent && agent->standalone_active()) ++still_standalone;
      fallback_left = fallback_left ||
                      net.sim().switch_at(dpid).table(0).contains(empty_match, 1);
    }
    if (all_alive && still_standalone == 0 && !fallback_left) {
      out.recovered_clean = true;
      break;
    }
  }
  return out;
}

TEST(FailModeCycle, SecureFreezesAndBlackholesNewFlows) {
  const FailModeRun run = run_fail_mode(FailMode::Secure);
  EXPECT_EQ(run.lost, 3u);  // 1 spine + 2 leaves
  EXPECT_EQ(run.standalone, 0u);
  EXPECT_FALSE(run.fallback_in_table);
  EXPECT_EQ(run.delivered, 0u);  // frozen tables: new flow blackholes
  EXPECT_TRUE(run.recovered_clean);
}

TEST(FailModeCycle, StandaloneForwardsNewFlowsAndRevertsOnReconnect) {
  const FailModeRun run = run_fail_mode(FailMode::Standalone);
  EXPECT_EQ(run.lost, 3u);
  EXPECT_EQ(run.standalone, 3u);
  EXPECT_TRUE(run.fallback_in_table);
  EXPECT_GE(run.delivered, 3u);  // NORMAL fallback delivers (dups allowed)
  EXPECT_TRUE(run.recovered_clean);
}

}  // namespace
}  // namespace zen
