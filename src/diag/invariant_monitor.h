// InvariantMonitor: live verification that the dataplane still implements
// the declared intents (the VeriFlow idea, applied continuously).
//
// On every observable delta — topology-epoch move or any switch's
// rule-store version move — the monitor re-traces one representative
// packet per installed intent through the real switch pipelines (dry-run,
// zero side effects, via PacketTracer) and checks three invariants:
//
//   blackhole   connectivity intents must deliver to the destination host
//   loop        no trace may revisit a switch on its own forwarding chain
//               (hop-budget exhaustion counts as a loop)
//   divergence  the traced switch sequence must equal the intent's
//               installed path (backup path accepted while a Protected
//               intent is failed over); Ban intents must NOT deliver
//
// Violations surface everywhere an operator might look: zen_invariant_*
// metrics, an "invariant_clean" SLO objective, kInvariantViolation /
// kInvariantClear flight-recorder events, and a Diagnostics section with
// the full report (including the offending traces' text).
//
// As a controller::App it re-checks automatically a settle-delay after
// link/switch/flow events (letting the intent framework converge first);
// maybe_check() additionally catches out-of-band rule changes (e.g. a test
// or operator poking flow_mod directly) by comparing the delta signature.
// The monitor is pull-based over public state, so unlike the explain
// narration it stays fully functional under ZEN_OBS_DISABLED.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "diag/packet_tracer.h"
#include "intent/intent_manager.h"
#include "sim/network.h"

namespace zen::obs {
class Slo;
}

namespace zen::diag {

class InvariantMonitor : public controller::App {
 public:
  // Hop budget per trace; exhausting it is reported as a loop.
  static constexpr int kMaxHops = 64;
  // Delay between a controller event and the re-check, so the intent
  // framework's own recompile + flow mods land first.
  static constexpr double kSettleDelayS = 0.05;

  enum class ViolationKind : std::uint8_t {
    kBlackhole = 0,
    kLoop,
    kDivergence,
  };
  static const char* kind_name(ViolationKind kind) noexcept;

  struct Violation {
    ViolationKind kind = ViolationKind::kBlackhole;
    intent::IntentId intent = 0;
    net::Ipv4Address src;
    net::Ipv4Address dst;
    std::uint64_t dpid = 0;  // loop switch, or last switch before the hole
    std::string note;
    PathTrace trace;  // the full evidence
  };

  struct Report {
    double t_s = 0;
    std::uint64_t epoch = 0;            // NetworkView topology epoch
    std::uint64_t rules_signature = 0;  // sum of switch rule versions
    std::size_t intents_checked = 0;
    std::size_t traces = 0;
    std::vector<Violation> violations;
    bool clean() const noexcept { return violations.empty(); }
  };

  struct Stats {
    std::uint64_t checks = 0;
    std::uint64_t traces = 0;
    std::uint64_t violations_seen = 0;  // cumulative across checks
    std::uint64_t clears = 0;           // violated -> clean transitions
  };

  InvariantMonitor(sim::SimNetwork& net, intent::IntentManager& intents);
  ~InvariantMonitor() override;

  std::string name() const override { return "invariant_monitor"; }
  void init(controller::Controller& controller) override;

  // Re-trace every installed intent now and publish the report.
  const Report& check();
  // check() only if the topology epoch or any rule version moved since the
  // last check. Returns true if a check ran.
  bool maybe_check();

  const Report& last_report() const noexcept { return report_; }
  const Stats& stats() const noexcept { return stats_; }
  PacketTracer& tracer() noexcept { return tracer_; }
  std::string report_json() const;

  // ---- App events: schedule a settle-delayed re-check ----
  void on_switch_up(controller::Dpid,
                    const openflow::FeaturesReply&) override {
    schedule_check();
  }
  void on_switch_down(controller::Dpid) override { schedule_check(); }
  void on_link_event(const controller::LinkEvent&) override {
    schedule_check();
  }
  void on_flow_removed(controller::Dpid,
                       const openflow::FlowRemoved&) override {
    schedule_check();
  }
  void on_table_status(controller::Dpid,
                       const openflow::TableStatus&) override {
    schedule_check();
  }

 private:
  void schedule_check();
  std::uint64_t rules_signature() const;
  void verify_connectivity(Report& report, intent::IntentId id,
                           const intent::IntentSpec& spec,
                           net::Ipv4Address src, net::Ipv4Address dst,
                           bool check_path);
  void verify_ban(Report& report, intent::IntentId id,
                  const intent::IntentSpec& spec);
  // Builds the representative probe frame, honoring the spec's l4/dscp
  // constraints. Returns false if the intent can't be probed with UDP.
  bool build_probe(const intent::IntentSpec& spec, net::Ipv4Address src,
                   net::Ipv4Address dst, topo::NodeId src_host,
                   topo::NodeId dst_host, net::Bytes& frame) const;
  topo::NodeId host_for_ip(net::Ipv4Address ip) const;
  void publish(Report& report);

  sim::SimNetwork& net_;
  intent::IntentManager& intents_;
  PacketTracer tracer_;
  Report report_;
  Stats stats_;
  obs::Slo* slo_ = nullptr;
  std::uint64_t last_epoch_ = 0;
  std::uint64_t last_rules_ = 0;
  bool checked_once_ = false;
  bool pending_ = false;
  std::uint64_t diag_token_invariants_ = 0;
  std::uint64_t diag_token_explain_ = 0;
};

}  // namespace zen::diag
