#include "controller/flow_rule_store.h"

#include <algorithm>
#include <memory>

#include "obs/obs.h"
#include "util/logging.h"

namespace zen::controller {

namespace {

struct StoreMetrics {
  obs::Counter& repairs;
  obs::Counter& orphans;
  obs::Counter& audits;
  obs::Counter& table_full;
  obs::Counter& degraded;
  obs::Histo& audit_duration;
  static StoreMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static StoreMetrics m{
        reg.counter("zen_rulestore_repairs_total", "",
                    "Missing/divergent intended rules reinstalled by audits"),
        reg.counter("zen_rulestore_orphans_deleted_total", "",
                    "Managed-cookie stray rules deleted by audits"),
        reg.counter("zen_rulestore_audits_total", "",
                    "Flow-state audits started"),
        reg.counter("zen_rulestore_table_full_total", "",
                    "TableFull errors received for store-managed installs"),
        reg.counter("zen_rulestore_rules_degraded_total", "",
                    "Intended rules parked as degraded (evicted or rejected)"),
        reg.histo("zen_rulestore_audit_duration_s", "",
                  "Virtual time from audit start to verdict")};
    return m;
  }
};

bool same_key(const openflow::FlowMod& mod, const openflow::FlowStatsEntry& e) {
  return e.table_id == mod.table_id && e.priority == mod.priority &&
         e.match == mod.match;
}

// Fraction of audits that find nothing to repair: a dirty audit means the
// switch and the store disagreed, i.e. reconciliation had real work to do.
obs::Slo& audit_slo() {
  static obs::Slo& slo = obs::SloMonitor::global().objective(
      obs::SloMonitor::Objective{.name = "audit_clean_rate",
                                 .target = 0.95,
                                 .short_window_s = 10.0,
                                 .long_window_s = 120.0});
  return slo;
}

}  // namespace

FlowRuleStore::IntendedRule* FlowRuleStore::find_rule(
    Dpid dpid, const openflow::FlowMod& mod) {
  const auto sit = switches_.find(dpid);
  if (sit == switches_.end()) return nullptr;
  for (auto& r : sit->second.rules) {
    if (r.mod.table_id == mod.table_id && r.mod.priority == mod.priority &&
        r.mod.match == mod.match)
      return &r;
  }
  return nullptr;
}

bool FlowRuleStore::evict_lowest_importance(Dpid dpid,
                                            const openflow::FlowMod& incoming) {
  auto& rules = switches_[dpid].rules;
  IntendedRule* victim = nullptr;
  for (auto& r : rules) {
    if (r.degraded) continue;
    if (r.mod.table_id != incoming.table_id) continue;
    if (r.mod.importance >= incoming.importance) continue;
    if (r.mod.priority == incoming.priority && r.mod.match == incoming.match)
      continue;  // never sacrifice the rule being installed
    if (!victim || r.mod.importance < victim->mod.importance) victim = &r;
  }
  if (!victim) return false;
  victim->degraded = true;
  ++stats_.rules_degraded;
  StoreMetrics::get().degraded.inc();
  ZEN_LOG(Info) << "rule store: dpid " << dpid
                << " sacrificing importance-" << victim->mod.importance
                << " rule to admit importance-" << incoming.importance;
  openflow::FlowMod del;
  del.command = openflow::FlowModCommand::DeleteStrict;
  del.table_id = victim->mod.table_id;
  del.priority = victim->mod.priority;
  del.match = victim->mod.match;
  controller_.flow_mod(dpid, del, [](const std::optional<openflow::Error>&) {});
  return true;
}

void FlowRuleStore::handle_table_full(
    Dpid dpid, const std::vector<openflow::FlowMod>& mods, CompletionFn done,
    const openflow::Error& err) {
  ++stats_.table_full_rejections;
  StoreMetrics::get().table_full.inc();
  const openflow::FlowMod& front = mods.front();
  obs::FlightRecorder::global().record(obs::FlightEventKind::kTableFull, dpid,
                                       front.table_id, "rulestore");
  // The retry budget is tracked on the first mod: a bundle retries and
  // degrades as a unit, so one representative counter is enough.
  const IntendedRule* rep = find_rule(dpid, front);
  if (rep && rep->table_full_retries < kMaxTableFullRetries) {
    // The switch rejected the install for want of (at worst) one slot per
    // mod: sacrifice up to that many lower-importance rules, then re-send
    // the whole list.
    std::size_t freed = 0;
    while (freed < mods.size() && evict_lowest_importance(dpid, front))
      ++freed;
    if (freed > 0) {
      for (const auto& mod : mods) {
        if (IntendedRule* rule = find_rule(dpid, mod))
          ++rule->table_full_retries;
      }
      auto& tracer = obs::SpanTracer::global();
      tracer.annotate(tracer.current(), "table_full_retry");
      send_install(dpid, mods, std::move(done));
      return;
    }
  }
  // No room and nothing expendable: park the intent as degraded so repeated
  // audits/recompiles don't hammer a full table — a multi-rule path only as
  // a whole — and surface the typed failure to the caller.
  for (const auto& mod : mods) {
    IntendedRule* rule = find_rule(dpid, mod);
    if (!rule || rule->degraded) continue;
    rule->degraded = true;
    ++stats_.rules_degraded;
    StoreMetrics::get().degraded.inc();
    ZEN_LOG(Warn) << "rule store: dpid " << dpid << " table "
                  << int(mod.table_id) << " full; rule degraded (priority "
                  << mod.priority << ")";
  }
  if (done) done(err);
}

openflow::Xid FlowRuleStore::send_install(
    Dpid dpid, std::vector<openflow::FlowMod> mods, CompletionFn done) {
  // Capture the causal span so a TableFull repair ladder re-enters the
  // original trace: the eviction and the retried install show up as
  // sibling spans of the rejected attempt.
  const obs::SpanContext span = obs::SpanTracer::global().current();
  const auto list =
      std::make_shared<const std::vector<openflow::FlowMod>>(std::move(mods));
  CompletionFn on_done = [this, dpid, list, span, done = std::move(done)](
                             const std::optional<openflow::Error>& err) {
    if (err && openflow::is_table_full(*err)) {
      obs::SpanTracer::Scope scope(span);
      handle_table_full(dpid, *list, done, *err);
      return;
    }
    if (done) done(err);
  };
  if (list->size() == 1)
    return controller_.flow_mod(dpid, list->front(), std::move(on_done));
  return controller_.commit_bundle(
      dpid, std::vector<openflow::Message>(list->begin(), list->end()),
      std::move(on_done));
}

openflow::FlowMod FlowRuleStore::record_intent(Dpid dpid,
                                               const openflow::FlowMod& mod) {
  ++stats_.installs;
  if (mod.cookie != 0) managed_cookies_.insert(mod.cookie);
  openflow::FlowMod intended = mod;
  intended.command = openflow::FlowModCommand::Add;
  intended.buffer_id = openflow::kNoBuffer;  // reinstalls can't cite buffers
  if (IntendedRule* existing = find_rule(dpid, intended)) {
    // A fresh install statement resets any degraded parking: the caller
    // explicitly wants this rule again.
    existing->mod = intended;
    existing->degraded = false;
    existing->table_full_retries = 0;
  } else {
    switches_[dpid].rules.push_back(IntendedRule{intended});
  }
  return intended;
}

void FlowRuleStore::install_bundle(Dpid dpid,
                                   std::vector<openflow::FlowMod> mods,
                                   CompletionFn done) {
  if (mods.empty()) {
    if (done)
      controller_.events().schedule_in(
          0, [done = std::move(done)] { done(std::nullopt); });
    return;
  }
  if (mods.size() == 1) {
    install(dpid, mods.front(), std::move(done));
    return;
  }
  for (auto& mod : mods) mod = record_intent(dpid, mod);
  send_install(dpid, std::move(mods), std::move(done));
}

openflow::Xid FlowRuleStore::install(Dpid dpid, const openflow::FlowMod& mod,
                                     CompletionFn done) {
  record_intent(dpid, mod);
  return send_install(dpid, {mod}, std::move(done));
}

openflow::Xid FlowRuleStore::remove(Dpid dpid, const openflow::FlowMod& del,
                                    CompletionFn done) {
  ++stats_.removes;
  const bool strict = del.command == openflow::FlowModCommand::DeleteStrict;
  auto& rules = switches_[dpid].rules;
  std::erase_if(rules, [&](const IntendedRule& r) {
    if (r.mod.table_id != del.table_id) return false;
    if (strict) return r.mod.priority == del.priority && r.mod.match == del.match;
    return r.mod.match.subsumed_by(del.match);
  });
  return controller_.flow_mod(dpid, del, std::move(done));
}

void FlowRuleStore::on_flow_removed(Dpid dpid,
                                    const openflow::FlowRemoved& msg) {
  if (msg.reason != openflow::FlowRemovedReason::Eviction) return;
  const auto sit = switches_.find(dpid);
  if (sit == switches_.end()) return;
  for (auto& r : sit->second.rules) {
    if (r.mod.table_id != msg.table_id || r.mod.priority != msg.priority ||
        !(r.mod.match == msg.match))
      continue;
    if (!r.degraded) {
      r.degraded = true;
      ++stats_.rules_degraded;
      StoreMetrics::get().degraded.inc();
      ZEN_LOG(Warn) << "rule store: dpid " << dpid
                    << " managed rule evicted by switch; parked as degraded";
    }
    return;
  }
}

std::size_t FlowRuleStore::clear_degraded(Dpid dpid) {
  const auto sit = switches_.find(dpid);
  if (sit == switches_.end()) return 0;
  std::size_t cleared = 0;
  for (auto& r : sit->second.rules) {
    if (!r.degraded) continue;
    r.degraded = false;
    r.table_full_retries = 0;
    ++cleared;
  }
  return cleared;
}

std::size_t FlowRuleStore::degraded_rules(Dpid dpid) const noexcept {
  const auto sit = switches_.find(dpid);
  if (sit == switches_.end()) return 0;
  std::size_t n = 0;
  for (const auto& r : sit->second.rules) n += r.degraded ? 1 : 0;
  return n;
}

openflow::Xid FlowRuleStore::add_group(Dpid dpid,
                                       const openflow::GroupMod& mod,
                                       CompletionFn done) {
  openflow::GroupMod intended = mod;
  intended.command = openflow::GroupModCommand::Add;
  auto& groups = switches_[dpid].groups;
  const auto it = std::find_if(
      groups.begin(), groups.end(),
      [&](const openflow::GroupMod& g) { return g.group_id == mod.group_id; });
  if (it == groups.end()) groups.push_back(std::move(intended));
  else *it = std::move(intended);
  return controller_.group_mod(dpid, mod, std::move(done));
}

openflow::Xid FlowRuleStore::remove_group(Dpid dpid, std::uint32_t group_id,
                                          CompletionFn done) {
  auto& groups = switches_[dpid].groups;
  std::erase_if(groups, [&](const openflow::GroupMod& g) {
    return g.group_id == group_id;
  });
  openflow::GroupMod del;
  del.command = openflow::GroupModCommand::Delete;
  del.group_id = group_id;
  return controller_.group_mod(dpid, del, std::move(done));
}

void FlowRuleStore::forget(Dpid dpid) { switches_.erase(dpid); }

std::size_t FlowRuleStore::intended_rules(Dpid dpid) const noexcept {
  const auto it = switches_.find(dpid);
  return it == switches_.end() ? 0 : it->second.rules.size();
}

std::size_t FlowRuleStore::intended_groups(Dpid dpid) const noexcept {
  const auto it = switches_.find(dpid);
  return it == switches_.end() ? 0 : it->second.groups.size();
}

void FlowRuleStore::audit(Dpid dpid, AuditFn done) {
  auto [it, inserted] = audits_.try_emplace(dpid);
  if (done) it->second.done.push_back(std::move(done));
  if (!inserted) return;  // already running; callback piggybacks
  ++stats_.audits;
  StoreMetrics::get().audits.inc();
  it->second.report.dpid = dpid;
  it->second.started_s = controller_.now();
  run_round(dpid);
}

void FlowRuleStore::audit_all(
    std::function<void(std::vector<AuditReport>)> done) {
  std::vector<Dpid> dpids;
  for (const auto& [dpid, state] : switches_) dpids.push_back(dpid);
  std::sort(dpids.begin(), dpids.end());
  if (dpids.empty()) {
    if (done) done({});
    return;
  }
  auto reports = std::make_shared<std::vector<AuditReport>>();
  auto remaining = std::make_shared<std::size_t>(dpids.size());
  auto cb = std::make_shared<std::function<void(std::vector<AuditReport>)>>(
      std::move(done));
  for (const Dpid dpid : dpids) {
    audit(dpid, [reports, remaining, cb](const AuditReport& report) {
      reports->push_back(report);
      if (--*remaining == 0 && *cb) (*cb)(std::move(*reports));
    });
  }
}

void FlowRuleStore::run_round(Dpid dpid) {
  const auto it = audits_.find(dpid);
  if (it == audits_.end()) return;
  Audit& a = it->second;
  if (!controller_.switch_alive(dpid) ||
      a.report.rounds >= kMaxAuditRounds) {
    finish(dpid, false);
    return;
  }
  ++a.report.rounds;
  const int serial = ++a.round_serial;

  // Re-assert intended groups up front: flow repairs may reference them,
  // and a crash wiped them along with the rules. Re-adding a group that
  // still exists errors harmlessly.
  for (const auto& gm : switches_[dpid].groups) controller_.group_mod(dpid, gm);

  // Default request: every table, wildcard match — the full actual state.
  controller_.request_flow_stats(
      dpid, openflow::FlowStatsRequest{},
      [this, dpid, serial](const openflow::FlowStatsReply* reply) {
        // A null reply means the switch died mid-request; the next
        // round's alive check (after the round timeout) settles the audit.
        if (!reply) return;
        const auto it = audits_.find(dpid);
        if (it == audits_.end() || it->second.round_serial != serial) return;
        reconcile(dpid, *reply);
      });
  // The stats exchange itself can be lost on a faulty channel: retry the
  // round if no reply claimed this serial in time.
  controller_.events().schedule_in(kRoundTimeoutS,
                                   [this, dpid, serial] {
                                     const auto it = audits_.find(dpid);
                                     if (it == audits_.end() ||
                                         it->second.round_serial != serial)
                                       return;
                                     run_round(dpid);
                                   });
}

void FlowRuleStore::reconcile(Dpid dpid,
                              const openflow::FlowStatsReply& reply) {
  Audit& a = audits_.at(dpid);
  ++a.round_serial;  // cancel this round's retry timer
  const auto& intended = switches_[dpid].rules;

  // Missing or divergent: an intended rule with no actual twin (same key,
  // same cookie, same instructions). Reinstall — Add overwrites in place.
  // Degraded rules are skipped: reinstalling what the switch just evicted
  // (or rejected TableFull) would recreate the very pressure that parked
  // them; clear_degraded() is the explicit path back.
  std::size_t missing = 0;
  for (const auto& rule : intended) {
    if (rule.degraded) continue;
    const auto& mod = rule.mod;
    const bool present = std::any_of(
        reply.entries.begin(), reply.entries.end(),
        [&](const openflow::FlowStatsEntry& e) {
          return same_key(mod, e) && e.cookie == mod.cookie &&
                 e.instructions == mod.instructions;
        });
    if (present) continue;
    ++missing;
    ++stats_.repairs_installed;
    StoreMetrics::get().repairs.inc();
    send_install(dpid, {mod}, [](const std::optional<openflow::Error>&) {});
  }

  // Orphans: actual rules carrying a cookie this store manages but whose
  // key is no longer intended here. Cookie-0 rules belong to apps outside
  // the store and are never touched. A degraded rule still counts as
  // wanted — if the switch somehow holds it, deleting it would only flap.
  std::size_t orphans = 0;
  for (const auto& e : reply.entries) {
    if (e.cookie == 0 || !managed_cookies_.contains(e.cookie)) continue;
    const bool wanted = std::any_of(
        intended.begin(), intended.end(),
        [&](const IntendedRule& rule) { return same_key(rule.mod, e); });
    if (wanted) continue;
    ++orphans;
    ++stats_.orphans_deleted;
    StoreMetrics::get().orphans.inc();
    openflow::FlowMod del;
    del.command = openflow::FlowModCommand::DeleteStrict;
    del.table_id = e.table_id;
    del.priority = e.priority;
    del.match = e.match;
    controller_.flow_mod(dpid, del,
                         [](const std::optional<openflow::Error>&) {});
  }

  a.report.repaired += missing;
  a.report.orphans += orphans;
  if (missing == 0 && orphans == 0) {
    finish(dpid, true);
    return;
  }
  ZEN_LOG(Info) << "rule store: dpid " << dpid << " round "
                << a.report.rounds << ": reinstalled " << missing
                << ", deleted " << orphans << " orphans";
  // Let the (tracked, retried) repairs land, then re-read.
  controller_.events().schedule_in(
      kSettleS, [this, dpid, serial = a.round_serial] {
        const auto it = audits_.find(dpid);
        if (it == audits_.end() || it->second.round_serial != serial) return;
        run_round(dpid);
      });
}

void FlowRuleStore::finish(Dpid dpid, bool converged) {
  auto node = audits_.extract(dpid);
  if (node.empty()) return;
  Audit& a = node.mapped();
  a.report.degraded = degraded_rules(dpid);
  a.report.converged = converged;
  a.report.duration_s = controller_.now() - a.started_s;
  if (converged) ++stats_.audits_converged;
  StoreMetrics::get().audit_duration.record(a.report.duration_s);
  const bool clean =
      converged && a.report.repaired == 0 && a.report.orphans == 0;
  audit_slo().record(clean);
  if (!clean) {
    obs::FlightRecorder::global().record(
        obs::FlightEventKind::kAuditMismatch, dpid,
        (std::uint64_t(std::min<std::size_t>(a.report.repaired, 0xffff))
         << 16) |
            std::min<std::size_t>(a.report.orphans, 0xffff),
        converged ? "converged" : "gave_up");
  }
  ZEN_LOG(Info) << "rule store: dpid " << dpid << " audit "
                << (converged ? "converged" : "gave up") << " after "
                << a.report.rounds << " round(s), repaired "
                << a.report.repaired << ", orphans " << a.report.orphans;
  for (auto& fn : a.done)
    if (fn) fn(a.report);
}

}  // namespace zen::controller
