// FlowRuleStore: cookie-keyed record of intended flow state per switch,
// and the reconciliation engine that makes switches match it.
//
// Apps that route their installs/removes through the store (IntentManager,
// TeInstaller) get two things on top of the transactional send:
//
//  1. A durable statement of intent, keyed by (table, priority, match)
//     with the owning cookie, that survives switch crashes.
//  2. audit(): read the switch's actual rules via flow-stats and drive
//     them to the intended set — missing or wrong-actioned rules are
//     reinstalled, rules carrying a managed cookie that are no longer
//     intended ("orphans") are strictly deleted — looping until intended
//     == actual or the round budget runs out. The controller triggers an
//     audit automatically when a switch reconnects after a crash.
//
// Every install — lone, bundled, or an audit repair — goes out through one
// TableFull ladder (send_install): a full table makes the store sacrifice
// its own lower-importance rules and retry, and parks the intent degraded
// once nothing more can give.
//
// Rules with cookie 0 are invisible to the store: table-miss entries, ARP
// punts and other app plumbing are never treated as orphans.
#pragma once

#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "controller/controller.h"

namespace zen::controller {

struct AuditReport {
  Dpid dpid = 0;
  std::size_t repaired = 0;  // intended rules found missing and reinstalled
  std::size_t orphans = 0;   // managed-cookie strays found and deleted
  std::size_t degraded = 0;  // intended rules parked as degraded (not repaired)
  int rounds = 0;            // flow-stats rounds used
  bool converged = false;    // intended == actual when the audit finished
  double duration_s = 0;     // virtual time from audit start to verdict
};

class FlowRuleStore {
 public:
  struct Stats {
    std::uint64_t installs = 0;
    std::uint64_t removes = 0;
    std::uint64_t repairs_installed = 0;
    std::uint64_t orphans_deleted = 0;
    std::uint64_t audits = 0;
    std::uint64_t audits_converged = 0;
    std::uint64_t table_full_rejections = 0;  // TableFull errors seen
    std::uint64_t rules_degraded = 0;         // rules parked as degraded
  };

  // TableFull repair: how many times an install is retried after the store
  // sacrifices one of its own lower-importance rules to make room.
  static constexpr int kMaxTableFullRetries = 2;
  // Flow-stats rounds an audit may use before it gives up unconverged.
  static constexpr int kMaxAuditRounds = 8;
  // A round's flow-stats exchange is retried after this long (the
  // request or reply can be lost on a faulty channel).
  static constexpr double kRoundTimeoutS = 0.25;
  // Settle time between sending repairs and re-reading the switch.
  static constexpr double kSettleS = 0.05;

  explicit FlowRuleStore(Controller& controller) : controller_(controller) {}

  // Records the rule as intended on `dpid` and sends it transactionally.
  // Add and Modify upsert the intended entry keyed by (table, priority,
  // match); the mod's cookie becomes a managed cookie.
  openflow::Xid install(Dpid dpid, const openflow::FlowMod& mod,
                        CompletionFn done = nullptr);
  // Records every mod as intended and commits them through a southbound
  // bundle: the switch applies all of them or none. `done` fires once with
  // the bundle verdict. A TableFull rejection of any member runs install()'s
  // evict-retry-then-degrade ladder over the whole bundle: the retry
  // re-commits every member and a final failure parks every member as
  // degraded — a multi-rule path is only intent-complete as a unit. A
  // single-element bundle degenerates to install().
  void install_bundle(Dpid dpid, std::vector<openflow::FlowMod> mods,
                      CompletionFn done = nullptr);
  // Drops matching intended entries and sends the delete. Strict deletes
  // drop the exact (table, priority, match) entry; plain Delete drops
  // every intended entry in the table subsumed by the mod's match.
  openflow::Xid remove(Dpid dpid, const openflow::FlowMod& del,
                       CompletionFn done = nullptr);
  // Intended groups are re-asserted blindly at the start of every audit
  // round (a re-add of a live group fails harmlessly).
  openflow::Xid add_group(Dpid dpid, const openflow::GroupMod& mod,
                          CompletionFn done = nullptr);
  openflow::Xid remove_group(Dpid dpid, std::uint32_t group_id,
                             CompletionFn done = nullptr);

  using AuditFn = std::function<void(const AuditReport&)>;
  // Reconciles one switch (no-op audit converges in one round). `done`
  // fires exactly once. Concurrent audits of the same switch coalesce:
  // the later call's callback piggybacks on the running audit.
  void audit(Dpid dpid, AuditFn done = nullptr);
  // Audits every switch the store holds intent for.
  void audit_all(std::function<void(std::vector<AuditReport>)> done = nullptr);

  // Drops all intended state for a switch (decommissioning). Does not
  // touch the switch.
  void forget(Dpid dpid);

  // Fired by the controller for every FlowRemoved, before app dispatch.
  // Eviction removals park the matching intended rule as degraded: audits
  // stop reinstalling it, so the controller cannot recreate the pressure
  // that evicted it (the recompile-storm failure mode).
  void on_flow_removed(Dpid dpid, const openflow::FlowRemoved& msg);

  // Un-parks every degraded rule on `dpid` (pressure relieved — typically
  // on VacancyUp); the next audit reinstalls them. Returns how many.
  std::size_t clear_degraded(Dpid dpid);
  std::size_t degraded_rules(Dpid dpid) const noexcept;

  std::size_t intended_rules(Dpid dpid) const noexcept;
  std::size_t intended_groups(Dpid dpid) const noexcept;
  const Stats& stats() const noexcept { return stats_; }

 private:
  struct IntendedRule {
    openflow::FlowMod mod;  // normalized to command=Add
    // Degraded: intent the switch cannot currently hold (evicted or
    // rejected TableFull after retries). Audits skip reinstalling it but
    // also never delete it as an orphan, so state neither flaps nor leaks.
    bool degraded = false;
    int table_full_retries = 0;
  };
  struct SwitchState {
    std::vector<IntendedRule> rules;
    std::vector<openflow::GroupMod> groups;  // normalized to command=Add
  };

  struct Audit {
    AuditReport report;
    std::vector<AuditFn> done;
    int round_serial = 0;  // guards against late stats replies / timeouts
    double started_s = 0;
  };

  void run_round(Dpid dpid);
  void reconcile(Dpid dpid, const openflow::FlowStatsReply& reply);
  void finish(Dpid dpid, bool converged);

  // The TableFull ladder, one for installs and bundles. A list of one
  // goes out as a FlowMod, a longer one as a bundle. A TableFull verdict
  // sacrifices up to one rule per mod, each less important than the first
  // mod, and re-sends the whole list; once retries or victims run out,
  // every mod is parked degraded.
  openflow::Xid send_install(Dpid dpid, std::vector<openflow::FlowMod> mods,
                             CompletionFn done);
  void handle_table_full(Dpid dpid, const std::vector<openflow::FlowMod>& mods,
                         CompletionFn done, const openflow::Error& err);
  // Upserts `mod` as intended on `dpid` (un-parking a degraded entry) and
  // returns the normalized Add it is recorded as.
  openflow::FlowMod record_intent(Dpid dpid, const openflow::FlowMod& mod);
  // Sacrifices the lowest-importance non-degraded intended rule in the
  // incoming mod's table (importance strictly below the incoming one):
  // marks it degraded and deletes it from the switch. False if none.
  bool evict_lowest_importance(Dpid dpid, const openflow::FlowMod& incoming);
  IntendedRule* find_rule(Dpid dpid, const openflow::FlowMod& mod);

  Controller& controller_;
  std::unordered_map<Dpid, SwitchState> switches_;
  std::unordered_map<Dpid, Audit> audits_;  // at most one per switch
  std::unordered_set<std::uint64_t> managed_cookies_;
  Stats stats_;
};

}  // namespace zen::controller
