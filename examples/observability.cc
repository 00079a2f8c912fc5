// Observability: the diagnosis layer end to end — span traces, flight
// recorder, SLO health — over a clean control loop and then a fault storm.
//
//   $ ./observability
//
// Phase 1 puts the control loop under the microscope: a transactional
// learning-switch edge network where every flow setup is one causal trace
// (packet-in -> dispatch -> app -> flow_mod -> channel -> apply ->
// barrier ack). The phase gates the exit code: every trace must balance
// its span accounting (no propagation edge may lose a span) and the
// richest trace must carry the full >= 5-span ladder.
//
// Phase 2 runs a seeded fault storm (link flaps, a switch reboot, a lossy
// duplicating channel) against a leaf-spine fabric carrying intents, then
// prints the SLO health table (multi-window burn rates) and the five
// slowest traces the storm produced.
//
// Artifacts:
//   trace.json       Chrome trace_event JSON (chrome://tracing, Perfetto);
//                    timestamps are virtual seconds
//   flightrec.json   flight-recorder ring: faults, rejects, role changes,
//                    SLO transitions (also dumped on crash — see
//                    arm_crash_dump)
//   diagnostics.json one-call control-loop snapshot (tables, rule store,
//                    intents, path engine, SLOs, metrics)
//   metrics.prom     Prometheus text exposition of every series
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/zen.h"

using namespace zen;

namespace {

const char* slo_state_name(obs::SloMonitor::State s) {
  switch (s) {
    case obs::SloMonitor::State::kOk: return "ok";
    case obs::SloMonitor::State::kSlowBurn: return "SLOW BURN";
    case obs::SloMonitor::State::kFastBurn: return "FAST BURN";
  }
  return "?";
}

}  // namespace

int main() {
  obs::TraceRecorder::global().set_enabled(true);
  obs::FlightRecorder::global().arm_crash_dump("flightrec.json");

  // ---- phase 1: the control loop under the microscope ----
  // Transactional installs so each flow setup runs the full ladder:
  // punt -> dispatch -> app -> flow_mod -> channel -> apply -> barrier ack.
  std::printf("phase 1: traced flow setups on a transactional edge\n");
  {
    core::Network edge = core::Network::linear(3, 2);
    controller::apps::LearningSwitch::Options opts;
    opts.transactional = true;
    edge.add_app<controller::apps::LearningSwitch>(opts);
    edge.start();
    const std::size_t hosts = edge.host_count();
    for (int round = 0; round < 2; ++round) {
      for (std::size_t i = 0; i < hosts; ++i)
        edge.host(i).send_udp(edge.host_ip((i + 1) % hosts), 4000, 4001, 64);
      edge.run_for(1.0);
    }
    edge.run_for(2.0);
  }

  // Gate on phase 1's traces before the storm muddies the water: a storm
  // legitimately abandons traces (punts whose answer the channel ate), but
  // on a healthy network every trace must balance its span accounting.
  auto& tracer = obs::SpanTracer::global();
  const auto clean_traces = tracer.finished();
  int clean_max_spans = 0;
  std::size_t clean_incomplete = 0;
  for (const auto& t : clean_traces) {
    clean_max_spans = std::max(clean_max_spans, t.spans_started);
    if (!t.complete || t.spans_started != t.spans_ended) {
      ++clean_incomplete;
      std::printf("  INCOMPLETE trace %llu (%s): %d spans started, %d ended\n",
                  static_cast<unsigned long long>(t.trace_id), t.name.c_str(),
                  t.spans_started, t.spans_ended);
    }
  }
  const bool spans_ok = !clean_traces.empty() && clean_incomplete == 0 &&
                        clean_max_spans >= 5 && tracer.open_traces() == 0;
  std::printf("  %zu traces, all spans balanced: %s, deepest ladder %d spans "
              "(need >= 5), %zu still open\n",
              clean_traces.size(), clean_incomplete == 0 ? "yes" : "NO",
              clean_max_spans, tracer.open_traces());

  // ---- phase 2: fault storm against an intent-carrying fabric ----
  std::printf("\nphase 2: fault storm (seeded, deterministic)\n");
  core::Network::Config cfg;
  cfg.controller.echo_interval_s = 0.1;
  cfg.controller.echo_miss_limit = 3;
  cfg.controller.handshake_timeout_s = 0.2;
  cfg.controller.reconnect_backoff_initial_s = 0.1;
  cfg.controller.reconnect_backoff_max_s = 0.8;
  cfg.controller.completion_timeout_s = 0.05;
  core::Network net(topo::make_leaf_spine(2, 3, 2), cfg);
  net.add_app<controller::apps::Discovery>();
  net.add_app<controller::apps::L3Routing>();
  auto& intents = net.enable_intents();
  net.start();

  const std::vector<std::pair<std::size_t, std::size_t>> pairs = {
      {0, 3}, {1, 4}, {2, 5}};
  for (const auto& [a, b] : pairs) {
    net.host(a).send_icmp_echo(net.host_ip(b), 1);
    net.host(b).send_icmp_echo(net.host_ip(a), 1);
  }
  net.run_for(1.0);
  for (const auto& [a, b] : pairs) {
    net.host(a).add_arp_entry(net.host_ip(b), net.host(b).mac());
    net.host(b).add_arp_entry(net.host_ip(a), net.host(a).mac());
  }
  for (const auto& [a, b] : pairs) {
    intent::IntentSpec spec;
    spec.kind = intent::IntentKind::HostToHost;
    spec.src = net.host_ip(a);
    spec.dst = net.host_ip(b);
    intents.submit(spec);
  }
  net.run_for(1.0);

  sim::FaultInjector::Options fault_options;
  fault_options.seed = 7;
  fault_options.start_s = net.now() + 0.2;
  fault_options.duration_s = 3.0;
  fault_options.link_flaps = 3;
  fault_options.switch_reboots = 1;
  sim::FaultInjector injector(net.sim(), fault_options);
  injector.arm();

  controller::ChannelFaults channel_faults;
  channel_faults.loss_prob = 0.05;
  channel_faults.duplicate_prob = 0.05;
  channel_faults.extra_delay_max_s = 2e-3;
  channel_faults.seed = 7;
  net.controller().set_channel_faults(channel_faults);

  // Steady traffic through the storm so packet-delivery and flow-setup
  // SLIs see the faults as they land.
  const double storm_end = injector.storm_end_s();
  for (double t = net.now(); t < storm_end + 1.0; t += 0.05) {
    net.sim().events().schedule_at(t, [&net, &pairs] {
      for (const auto& [a, b] : pairs)
        net.host(a).send_udp(net.host_ip(b), 9000, 9001, 256);
    });
  }
  net.run_until(storm_end + 1.0);
  net.controller().clear_channel_faults();
  net.run_for(8.0);  // heal: reconnects, audits, intent recompiles

  // ---- SLO health table ----
  std::printf("\nSLO health (multi-window burn rates):\n");
  std::printf("  %-20s %-10s %9s %9s %10s %8s\n", "objective", "state",
              "burn(s)", "burn(l)", "good", "bad");
  for (const auto& st : obs::SloMonitor::global().evaluate()) {
    std::printf("  %-20s %-10s %9.2f %9.2f %10llu %8llu\n", st.name.c_str(),
                slo_state_name(st.state), st.short_burn, st.long_burn,
                static_cast<unsigned long long>(st.good),
                static_cast<unsigned long long>(st.bad));
  }

  // ---- flight-recorder digest ----
  const auto events = obs::FlightRecorder::global().events();
  std::printf("\nflight recorder: %zu events", events.size());
#ifndef ZEN_OBS_DISABLED
  std::map<std::string, std::size_t> by_kind;
  for (const auto& event : events) ++by_kind[obs::to_string(event.kind)];
  for (const auto& [kind, n] : by_kind) std::printf("  %s=%zu", kind.c_str(), n);
#endif
  std::printf("\n");

  // ---- five slowest traces ----
  std::printf("\nslowest traces (virtual ms, spans started/ended):\n");
#ifndef ZEN_OBS_DISABLED
  auto all_traces = tracer.finished();
  std::sort(all_traces.begin(), all_traces.end(),
            [](const auto& x, const auto& y) {
              return x.end_s - x.start_s > y.end_s - y.start_s;
            });
  for (std::size_t i = 0; i < all_traces.size() && i < 5; ++i) {
    const auto& t = all_traces[i];
    std::printf("  #%zu %-12s %8.3f ms  %d/%d%s\n", i + 1, t.name.c_str(),
                (t.end_s - t.start_s) * 1e3, t.spans_started, t.spans_ended,
                t.complete ? "" : "  (abandoned/incomplete)");
  }
#endif
  std::printf("  (%llu traces abandoned during the storm — punts whose "
              "answer the lossy channel ate)\n",
              static_cast<unsigned long long>(tracer.abandoned_traces()));

  // ---- artifacts ----
  auto& registry = obs::MetricsRegistry::global();
  const std::string prom = registry.render_prometheus();
  if (std::FILE* f = std::fopen("metrics.prom", "w")) {
    std::fwrite(prom.data(), 1, prom.size(), f);
    std::fclose(f);
  }
  const bool trace_ok =
      obs::TraceRecorder::global().write_chrome_json("trace.json");
  const bool flight_ok =
      obs::FlightRecorder::global().write_json("flightrec.json");
  const bool diag_ok = obs::Diagnostics::global().write("diagnostics.json");
  std::printf("\nartifacts: trace.json (%zu events)%s, flightrec.json%s, "
              "diagnostics.json%s, metrics.prom (%zu series)\n",
              obs::TraceRecorder::global().size(),
              trace_ok ? "" : " FAILED", flight_ok ? "" : " FAILED",
              diag_ok ? "" : " FAILED", registry.snapshot().series.size());

#ifndef ZEN_OBS_DISABLED
  const bool ok = spans_ok && trace_ok && flight_ok && diag_ok &&
                  !events.empty();
#else
  // Compiled-out build: no spans or flight events exist by design; the
  // demo only checks the artifact paths still work.
  (void)spans_ok;
  const bool ok = trace_ok && flight_ok && diag_ok;
#endif
  std::printf("\n%s\n", ok ? "OBSERVABILITY DEMO OK"
                           : "OBSERVABILITY DEMO FAILED");
  return ok ? 0 : 1;
}
