#include "diag/invariant_monitor.h"

#include <algorithm>
#include <utility>

#include "net/headers.h"
#include "net/packet.h"
#include "obs/diagnostics.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "util/strings.h"

namespace zen::diag {

namespace {

// All series are registered in the constructor (not lazily on first
// violation) so the exported name set is deterministic: a healthy network
// still shows zen_invariant_violations_total{kind="loop"} 0.
struct MonitorMetrics {
  obs::Counter& checks;
  obs::Counter& traces;
  obs::Counter& blackholes;
  obs::Counter& loops;
  obs::Counter& divergences;
  obs::Gauge& active;

  static MonitorMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static MonitorMetrics m{
        reg.counter("zen_invariant_checks_total", "",
                    "Invariant-monitor sweeps over the installed intents"),
        reg.counter("zen_invariant_traces_total", "",
                    "Representative packets traced by the invariant monitor"),
        reg.counter("zen_invariant_violations_total", "kind=\"blackhole\"",
                    "Invariant violations observed, by kind"),
        reg.counter("zen_invariant_violations_total", "kind=\"loop\""),
        reg.counter("zen_invariant_violations_total", "kind=\"divergence\""),
        reg.gauge("zen_invariant_active_violations", "",
                  "Violations present in the latest invariant report"),
    };
    return m;
  }

  obs::Counter& by_kind(InvariantMonitor::ViolationKind kind) {
    switch (kind) {
      case InvariantMonitor::ViolationKind::kBlackhole: return blackholes;
      case InvariantMonitor::ViolationKind::kLoop: return loops;
      case InvariantMonitor::ViolationKind::kDivergence: return divergences;
    }
    return blackholes;
  }
};

std::string path_text(const std::vector<topo::NodeId>& path) {
  std::string out = "[";
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i) out += " ";
    out += util::format("%llu", (unsigned long long)path[i]);
  }
  out += "]";
  return out;
}

}  // namespace

const char* InvariantMonitor::kind_name(ViolationKind kind) noexcept {
  switch (kind) {
    case ViolationKind::kBlackhole: return "blackhole";
    case ViolationKind::kLoop: return "loop";
    case ViolationKind::kDivergence: return "divergence";
  }
  return "unknown";
}

InvariantMonitor::InvariantMonitor(sim::SimNetwork& net,
                                   intent::IntentManager& intents)
    : net_(net), intents_(intents), tracer_(net) {
  MonitorMetrics::get();
  obs::SloMonitor::Objective objective;
  objective.name = "invariant_clean";
  objective.target = 0.999;
  slo_ = &obs::SloMonitor::global().objective(objective);
}

InvariantMonitor::~InvariantMonitor() {
  if (diag_token_invariants_ != 0) {
    obs::Diagnostics::global().remove_provider(diag_token_invariants_);
  }
  if (diag_token_explain_ != 0) {
    obs::Diagnostics::global().remove_provider(diag_token_explain_);
  }
}

void InvariantMonitor::init(controller::Controller& controller) {
  controller::App::init(controller);
  diag_token_invariants_ = obs::Diagnostics::global().add_provider(
      "invariants", [this] { return report_json(); });
  diag_token_explain_ = obs::Diagnostics::global().add_provider(
      "explain", [this] { return tracer_.stats_json(); });
}

void InvariantMonitor::schedule_check() {
  if (pending_) return;
  pending_ = true;
  net_.events().schedule_in(kSettleDelayS, [this] {
    pending_ = false;
    maybe_check();
  });
}

std::uint64_t InvariantMonitor::rules_signature() const {
  // Order-independent (iteration order of the switch map is arbitrary) but
  // thoroughly mixed, so concurrent version bumps on different switches
  // can't cancel each other out.
  const auto mix = [](std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  };
  std::uint64_t sig = 0;
  for (const auto& [id, sw] : net_.switches()) {
    sig += mix(id * 0x9e3779b97f4a7c15ULL + sw->rule_version());
  }
  return sig;
}

bool InvariantMonitor::maybe_check() {
  const std::uint64_t epoch =
      controller_ != nullptr ? controller_->view().topology_epoch() : 0;
  const std::uint64_t rules = rules_signature();
  if (checked_once_ && epoch == last_epoch_ && rules == last_rules_)
    return false;
  check();
  return true;
}

topo::NodeId InvariantMonitor::host_for_ip(net::Ipv4Address ip) const {
  for (const topo::HostAttachment& att : net_.generated().attachments) {
    if (sim::host_ip(att.host) == ip) return att.host;
  }
  return 0;
}

bool InvariantMonitor::build_probe(const intent::IntentSpec& spec,
                                   net::Ipv4Address src, net::Ipv4Address dst,
                                   topo::NodeId src_host,
                                   topo::NodeId dst_host,
                                   net::Bytes& frame) const {
  const net::FlowMask& mask = spec.extra_match.mask();
  const net::FlowKey& want = spec.extra_match.value();
  if (mask.ip_proto != 0 && want.ip_proto != net::IpProto::kUdp)
    return false;  // can't synthesize a representative packet
  const std::uint16_t sport = mask.l4_src != 0 ? want.l4_src : 4321;
  const std::uint16_t dport = mask.l4_dst != 0 ? want.l4_dst : 4321;
  const std::uint8_t dscp = mask.ip_dscp != 0 ? want.ip_dscp : 0;
  static constexpr std::uint8_t kPayload[8] = {'z', 'e', 'n', '-', 'i', 'n',
                                               'v', '!'};
  frame = net::build_ipv4_udp(sim::host_mac(src_host), sim::host_mac(dst_host),
                              src, dst, sport, dport, kPayload, dscp);
  return true;
}

void InvariantMonitor::verify_connectivity(Report& report, intent::IntentId id,
                                           const intent::IntentSpec& spec,
                                           net::Ipv4Address src,
                                           net::Ipv4Address dst,
                                           bool check_path) {
  const topo::NodeId src_host = host_for_ip(src);
  const topo::NodeId dst_host = host_for_ip(dst);
  if (src_host == 0 || dst_host == 0) return;  // hosts unknown: nothing to say
  net::Bytes frame;
  if (!build_probe(spec, src, dst, src_host, dst_host, frame)) return;

  PathTrace trace = tracer_.trace_from_host(
      src_host, std::span<const std::uint8_t>(frame.data(), frame.size()),
      kMaxHops);
  ++report.traces;

  if (trace.verdict == PathVerdict::kLoop ||
      trace.verdict == PathVerdict::kMaxHops) {
    Violation v;
    v.kind = ViolationKind::kLoop;
    v.intent = id;
    v.src = src;
    v.dst = dst;
    v.dpid = trace.loop_dpid != 0
                 ? trace.loop_dpid
                 : (trace.hops.empty() ? 0 : trace.hops.back().dpid);
    v.note = util::format("forwarding loop, path %s",
                          path_text(trace.switch_path).c_str());
    v.trace = std::move(trace);
    report.violations.push_back(std::move(v));
    return;
  }
  if (!trace.delivered_to(dst_host)) {
    Violation v;
    v.kind = ViolationKind::kBlackhole;
    v.intent = id;
    v.src = src;
    v.dst = dst;
    v.dpid = trace.hops.empty() ? 0 : trace.hops.back().dpid;
    v.note = util::format("packet %s after %zu hop(s), path %s",
                          to_string(trace.verdict), trace.hops.size(),
                          path_text(trace.switch_path).c_str());
    v.trace = std::move(trace);
    report.violations.push_back(std::move(v));
    return;
  }
  if (check_path) {
    const std::vector<topo::NodeId> expected = intents_.installed_path(id);
    const std::vector<topo::NodeId> backup = intents_.backup_path(id);
    const bool matches_primary =
        expected.empty() || trace.switch_path == expected;
    const bool matches_backup = !backup.empty() && trace.switch_path == backup;
    if (!matches_primary && !matches_backup) {
      Violation v;
      v.kind = ViolationKind::kDivergence;
      v.intent = id;
      v.src = src;
      v.dst = dst;
      v.note = util::format("took %s, intent installed %s",
                            path_text(trace.switch_path).c_str(),
                            path_text(expected).c_str());
      v.trace = std::move(trace);
      report.violations.push_back(std::move(v));
    }
  }
}

void InvariantMonitor::verify_ban(Report& report, intent::IntentId id,
                                  const intent::IntentSpec& spec) {
  const topo::NodeId src_host = host_for_ip(spec.src);
  const topo::NodeId dst_host = host_for_ip(spec.dst);
  if (src_host == 0 || dst_host == 0) return;
  net::Bytes frame;
  if (!build_probe(spec, spec.src, spec.dst, src_host, dst_host, frame))
    return;
  PathTrace trace = tracer_.trace_from_host(
      src_host, std::span<const std::uint8_t>(frame.data(), frame.size()),
      kMaxHops);
  ++report.traces;
  if (trace.delivered_to(dst_host)) {
    Violation v;
    v.kind = ViolationKind::kDivergence;
    v.intent = id;
    v.src = spec.src;
    v.dst = spec.dst;
    v.note = util::format("banned traffic delivered via %s",
                          path_text(trace.switch_path).c_str());
    v.trace = std::move(trace);
    report.violations.push_back(std::move(v));
  }
  // A drop is the intended outcome; a loop on banned traffic still burns
  // bandwidth, so report it.
  if (trace.verdict == PathVerdict::kLoop ||
      trace.verdict == PathVerdict::kMaxHops) {
    Violation v;
    v.kind = ViolationKind::kLoop;
    v.intent = id;
    v.src = spec.src;
    v.dst = spec.dst;
    v.dpid = trace.loop_dpid;
    v.note = "banned traffic loops instead of dropping";
    report.violations.push_back(std::move(v));
  }
}

const InvariantMonitor::Report& InvariantMonitor::check() {
  Report report;
  report.t_s = net_.now();
  report.epoch =
      controller_ != nullptr ? controller_->view().topology_epoch() : 0;
  report.rules_signature = rules_signature();

  for (const intent::IntentId id : intents_.intent_ids()) {
    if (intents_.state(id) != intent::IntentState::Installed) continue;
    const intent::IntentSpec* spec = intents_.spec(id);
    if (spec == nullptr) continue;
    ++report.intents_checked;
    switch (spec->kind) {
      case intent::IntentKind::Ban:
        verify_ban(report, id, *spec);
        break;
      case intent::IntentKind::HostToHost:
        verify_connectivity(report, id, *spec, spec->src, spec->dst, true);
        verify_connectivity(report, id, *spec, spec->dst, spec->src, false);
        break;
      default:
        verify_connectivity(report, id, *spec, spec->src, spec->dst, true);
        break;
    }
  }
  publish(report);
  last_epoch_ = report.epoch;
  last_rules_ = report.rules_signature;
  checked_once_ = true;
  report_ = std::move(report);
  return report_;
}

void InvariantMonitor::publish(Report& report) {
  MonitorMetrics& metrics = MonitorMetrics::get();
  ++stats_.checks;
  stats_.traces += report.traces;
  stats_.violations_seen += report.violations.size();
  metrics.checks.inc();
  metrics.traces.inc(report.traces);
  metrics.active.set(static_cast<double>(report.violations.size()));
  for (const Violation& v : report.violations) {
    metrics.by_kind(v.kind).inc();
    obs::FlightRecorder::global().record(
        obs::FlightEventKind::kInvariantViolation, v.dpid, v.intent,
        kind_name(v.kind));
  }
  if (slo_ != nullptr && report.traces > 0) {
    const std::size_t bad =
        std::min(report.violations.size(), report.traces);
    for (std::size_t i = 0; i < report.traces; ++i)
      slo_->record(i >= bad);
  }
  if (report.violations.empty() && !report_.violations.empty()) {
    ++stats_.clears;
    obs::FlightRecorder::global().record(obs::FlightEventKind::kInvariantClear,
                                         report_.violations.size(),
                                         report.epoch);
  }
}

std::string InvariantMonitor::report_json() const {
  std::string out = util::format(
      "{\"t\":%.6f,\"epoch\":%llu,\"rules_signature\":%llu,"
      "\"intents_checked\":%zu,\"traces\":%zu,\"checks\":%llu,"
      "\"clean\":%s,\"violations\":[",
      report_.t_s, (unsigned long long)report_.epoch,
      (unsigned long long)report_.rules_signature, report_.intents_checked,
      report_.traces, (unsigned long long)stats_.checks,
      report_.clean() ? "true" : "false");
  for (std::size_t i = 0; i < report_.violations.size(); ++i) {
    const Violation& v = report_.violations[i];
    if (i) out += ",";
    out += util::format(
        "{\"kind\":\"%s\",\"intent\":%llu,\"src\":\"%s\",\"dst\":\"%s\","
        "\"dpid\":%llu,\"note\":\"%s\",\"trace\":%s}",
        kind_name(v.kind), (unsigned long long)v.intent,
        v.src.to_string().c_str(), v.dst.to_string().c_str(),
        (unsigned long long)v.dpid, v.note.c_str(),
        v.trace.to_json().c_str());
  }
  out += "]}";
  return out;
}

}  // namespace zen::diag
