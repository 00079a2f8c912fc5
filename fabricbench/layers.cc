#include "layers.h"

#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "openflow/wire.h"
#include "util/epoch.h"

namespace fabricbench {

using namespace zen;

namespace {

// The traced run offers at most this many ticks; everything it records
// (segments, southbound messages) is replayed offline.
constexpr std::size_t kMaxTracedTicks = 4000;
constexpr std::size_t kMaxAppCalls = 4000;
constexpr std::size_t kSelfcheckTicks = 300;
constexpr std::size_t kQueueOps = 50000;
// Workers of the sharded-engine companion run of fabric_new_flows.
constexpr unsigned kEngineWorkers = 2;

// Wall times of the benchmark's own calls into one layer function.
struct Samples {
  std::vector<double> ns;
  void add(double v) { ns.push_back(v); }
  double p50() const { return quantile(ns, 0.5); }
  double p99() const { return quantile(ns, 0.99); }
  double avg() const { return mean(ns); }
};

struct PacketInRecord {
  double at = 0;
  topo::NodeId dpid = 0;
  openflow::PacketIn pin;
};

struct WalkStats {
  Samples parse, key, probe, classifier, ingress_hit, ingress_miss, actions,
      host_rx, flow_mod_apply;
  std::vector<PacketInRecord> packet_ins;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

net::Bytes build_frame(const topo::GeneratedTopo& gen, double at,
                       const Send& s) {
  // The payload SimHost::send_tcp would build: timestamp magic + send time.
  net::Bytes payload(std::max<std::size_t>(s.payload, 12), 0);
  std::memcpy(payload.data(), "ZENT", 4);
  const auto ns = static_cast<std::uint64_t>(at * 1e9);
  for (int i = 0; i < 8; ++i)
    payload[static_cast<std::size_t>(4 + i)] =
        static_cast<std::uint8_t>(ns >> (56 - 8 * i));
  const topo::NodeId src = gen.hosts[s.src];
  const topo::NodeId dst = gen.hosts[s.dst];
  return net::build_ipv4_tcp(sim::host_mac(src), sim::host_mac(dst),
                             sim::host_ip(src), sim::host_ip(dst),
                             net::TcpSpec{s.sport, kDport, s.seq, 0,
                                          net::TcpHeader::kAck},
                             payload);
}

// Replays the recorded southbound stream into shadow switches (same ports
// and SwitchConfig as the real ones) in virtual-time order with the
// recorded segments, and walks every segment hop by hop through
// Switch::ingress along the topology, timing each stage the benchmark can
// call on its own. Everything recorded is replayed, to rebuild the shadow
// state, but only what was sent from `timed_start` on is sampled: set-up and
// warm-up are not the steady state the timed ticks measure.
WalkStats replay_and_walk(core::Network& net,
                          const std::vector<std::pair<double, Send>>& sends,
                          const std::vector<TraceHooks::Mod>& mods,
                          double timed_start) {
  WalkStats w;
  const topo::GeneratedTopo& gen = net.generated();
  const topo::Topology& topology = gen.topo;

  std::unordered_map<topo::NodeId, std::unique_ptr<dataplane::Switch>> shadow;
  for (const auto& [id, real] : net.sim().switches()) {
    auto sw = std::make_unique<dataplane::Switch>(id, real->config());
    for (const auto& port : real->ports()) sw->add_port(port);
    shadow.emplace(id, std::move(sw));
  }
  double clock = 0;
  std::unordered_map<topo::NodeId, std::unique_ptr<sim::SimHost>> hosts;
  for (const topo::NodeId id : gen.hosts) {
    auto host = std::make_unique<sim::SimHost>(id, sim::host_mac(id),
                                               sim::host_ip(id));
    host->bind([](net::Bytes) {}, [&clock] { return clock; });
    hosts.emplace(id, std::move(host));
  }
  std::unordered_map<topo::NodeId, topo::HostAttachment> attachment;
  for (const auto& a : gen.attachments) attachment.emplace(a.host, a);

  const auto apply = [&](const TraceHooks::Mod& m) {
    const auto it = shadow.find(m.dpid);
    if (it == shadow.end()) return;
    const auto t0 = Clock::now();
    if (const auto* fm = std::get_if<openflow::FlowMod>(&m.msg)) {
      it->second->flow_mod(*fm, m.at);
    } else if (const auto* gm = std::get_if<openflow::GroupMod>(&m.msg)) {
      it->second->group_mod(*gm);
    } else {
      return;
    }
    const double ns = ns_since(t0);
    if (m.at >= timed_start) w.flow_mod_apply.add(ns);
  };

  struct Hop {
    topo::NodeId node = 0;
    std::uint32_t port = 0;
    net::Bytes frame;
  };
  std::vector<Hop> work;
  std::size_t next_mod = 0;
  double next_sweep = 1.0;  // SimNetwork's expiry sweep period
  for (const auto& [at, s] : sends) {
    while (next_mod < mods.size() && mods[next_mod].at <= at)
      apply(mods[next_mod++]);
    for (; next_sweep <= at; next_sweep += 1.0)
      for (auto& [id, sw] : shadow) (void)sw->expire_flows(next_sweep);
    clock = at;
    const bool sampled = at >= timed_start;

    const topo::HostAttachment& a = attachment.at(gen.hosts[s.src]);
    work.push_back(Hop{a.sw, a.sw_port, build_frame(gen, at, s)});
    for (std::size_t hops = 0; !work.empty() && hops < 64; ++hops) {
      Hop h = std::move(work.back());
      work.pop_back();
      if (topo::is_host_id(h.node)) {
        const auto t0 = Clock::now();
        hosts.at(h.node)->deliver(h.frame);
        if (sampled) w.host_rx.add(ns_since(t0));
        continue;
      }
      dataplane::Switch& sw = *shadow.at(h.node);
      // Ingress first, as the real run meets the frame; the stage calls
      // that follow read the same data warm, so they are lower bounds and
      // the actions residual an upper bound.
      const std::uint64_t misses_before = sw.cache().misses();
      auto t0 = Clock::now();
      dataplane::ForwardResult r = sw.ingress(at, h.port, h.frame);
      const double ingress_ns = ns_since(t0);
      const bool hit = sw.cache().misses() == misses_before;
      if (r.packet_in)
        w.packet_ins.push_back(PacketInRecord{at, h.node, *r.packet_in});
      for (auto& egress : r.outputs) {
        const topo::Link* link = topology.link_at(h.node, egress.port);
        if (!link) continue;
        const topo::NodeId next = link->other(h.node);
        work.push_back(Hop{next, link->port_at(next), std::move(egress.frame)});
      }
      if (!sampled) continue;
      (hit ? w.ingress_hit : w.ingress_miss).add(ingress_ns);

      t0 = Clock::now();
      const auto parsed = net::parse_packet(h.frame);
      const double parse_ns = ns_since(t0);
      if (!parsed.ok()) continue;
      t0 = Clock::now();
      const net::FlowKey key = parsed.value().flow_key(h.port);
      const double key_ns = ns_since(t0);
      t0 = Clock::now();
      if (sw.cache().concurrent()) {
        util::EpochReclaimer::Guard guard(util::EpochReclaimer::global());
        (void)sw.cache().find(key, sw.rule_version(), guard);
      } else {
        (void)sw.cache().find(key, sw.rule_version());
      }
      const double probe_ns = ns_since(t0);
      t0 = Clock::now();
      const dataplane::FlowEntryPtr best = sw.table(0).find_best(key);
      const double classifier_ns = ns_since(t0);

      w.parse.add(parse_ns);
      w.key.add(key_ns);
      w.probe.add(probe_ns);
      w.classifier.add(classifier_ns);
      // Actions: what ingress spent beyond the stages timed on their own
      // (the classifier runs only on a miss).
      w.actions.add(ingress_ns - parse_ns - key_ns - probe_ns -
                    (hit ? 0 : classifier_ns));
    }
    work.clear();
  }
  // Fresh-tuple workloads never hit the megaflow cache. Offering the last
  // frames a second time, at their first switch, gives every workload a
  // sample of what a hit costs on its own steady-state tables.
  for (std::size_t i = sends.size() - std::min<std::size_t>(sends.size(), 256);
       i < sends.size(); ++i) {
    const auto& [at, s] = sends[i];
    const topo::HostAttachment& a = attachment.at(gen.hosts[s.src]);
    dataplane::Switch& sw = *shadow.at(a.sw);
    const net::Bytes frame = build_frame(gen, at, s);
    const std::uint64_t misses_before = sw.cache().misses();
    const auto t0 = Clock::now();
    const dataplane::ForwardResult r = sw.ingress(at, a.sw_port, frame);
    const double ingress_ns = ns_since(t0);
    (sw.cache().misses() == misses_before ? w.ingress_hit : w.ingress_miss)
        .add(ingress_ns);
  }
  while (next_mod < mods.size()) apply(mods[next_mod++]);
  return w;
}

}  // namespace

TracedReport run_traced(const WorkloadSpec& spec, std::uint64_t seed,
                        double seconds) {
  TracedReport out;

  // 1. Untraced: counts and the wall time the model is checked against.
  PhaseResult u;
  {
    Fabric fabric(spec, seed);
    fabric.setup();
    u = fabric.run(seconds / 2);
  }
  out.attempted = u.offered;
  out.failed = u.failed;
  out.failures = u.failures;

  // 1b. Fresh-tuple traffic also runs on the sharded engine with concurrent
  // lookups, for as many ticks as the traced run: the only run of
  // sim/engine, epoch reclamation and the concurrent cache and table. Its
  // rate next to the inline run's is the keep-or-delete figure for the
  // concurrent mode.
  PhaseResult e;
  if (spec.fresh_tuples) {
    WorkloadSpec sharded = spec;
    sharded.engine_workers = kEngineWorkers;
    Fabric fabric(sharded, seed);
    fabric.setup();
    e = fabric.run(0, std::min(u.ticks, kMaxTracedTicks));
    out.attempted += e.offered;
    out.failed += e.failed;
    for (const auto& f : e.failures) out.failures.push_back("engine: " + f);
  }

  // 2. Traced: same seed, event-by-event stepping, everything recorded.
  std::vector<double> step_ns, send_ns;
  std::vector<std::pair<double, Send>> sends;
  std::vector<TraceHooks::Mod> mods;
  step_ns.reserve(1 << 20);
  Fabric traced(spec, seed,
                TraceHooks{.step_ns = &step_ns,
                           .send_ns = &send_ns,
                           .sends = &sends,
                           .mods = &mods});
  traced.setup();
  const PhaseResult t = traced.run(0, std::min(u.ticks, kMaxTracedTicks));
  out.attempted += t.offered;
  out.failed += t.failed;
  for (const auto& f : t.failures) out.failures.push_back("traced: " + f);
  core::Network& net = traced.network();
  net.controller().set_southbound_tap(nullptr);
  const double timed_start = traced.timed_start();

  // 3a. Shadow dataplane replay.
  WalkStats w = replay_and_walk(net, sends, mods, timed_start);

  // 3b. Wire codec: every tapped mod and every replayed PacketIn.
  Samples encode, decode, pin_encode, pin_decode, mod_decode;
  double setup_bytes = 0;
  {
    openflow::WireArena arena;
    openflow::Xid xid = 1;
    const auto codec = [&](const openflow::Message& msg, bool is_pin,
                           bool timed) {
      auto t0 = Clock::now();
      const auto frame = arena.append(msg, xid++);
      const double enc = ns_since(t0);
      t0 = Clock::now();
      const auto view = openflow::parse_frame(frame);
      const bool ok = view.ok() && openflow::decode_frame(view.value()).ok();
      const double dec = ns_since(t0);
      if (!ok) out.failures.push_back("codec round trip failed");
      encode.add(enc);
      decode.add(dec);
      if (is_pin) pin_encode.add(enc);
      (is_pin ? pin_decode : mod_decode).add(dec);
      if (timed) setup_bytes += static_cast<double>(frame.size());
      if (arena.size() > (1u << 20)) arena.clear();
    };
    for (const auto& m : mods) codec(m.msg, false, m.at >= timed_start);
    for (const auto& p : w.packet_ins)
      codec(openflow::Message{p.pin}, true, p.at >= timed_start);
  }

  // 3c. Controller app and path engine, on the traced network (its run is
  // over, so nothing measured depends on it any more).
  Samples app, path;
  {
    controller::NetworkView& view = net.controller().view();
    std::vector<const PacketInRecord*> picks;
    for (const auto& p : w.packet_ins)
      if (p.at >= timed_start && picks.size() < kMaxAppCalls) picks.push_back(&p);
    for (const auto& p : w.packet_ins)
      if (p.at < timed_start && picks.size() < kMaxAppCalls) picks.push_back(&p);
    for (const PacketInRecord* p : picks) {
      const auto parsed = net::parse_packet(p->pin.data);
      const controller::PacketInEvent event{
          p->dpid, &p->pin, parsed.ok() ? &parsed.value() : nullptr};
      auto t0 = Clock::now();
      traced.app().on_packet_in(event);
      app.add(ns_since(t0));
      if (!parsed.ok() || !parsed.value().ipv4) continue;
      const controller::HostInfo* dst =
          view.host_by_ip(parsed.value().ipv4->dst);
      if (!dst || dst->dpid == p->dpid) continue;
      t0 = Clock::now();
      const topo::Path hops = view.path_engine().shortest_path(p->dpid, dst->dpid);
      path.add(ns_since(t0));
      if (hops.empty()) out.failures.push_back("no path for a replayed punt");
    }
  }

  // 3d. Event queue push + pop at the depth the untraced run reached, each
  // event carrying what a frame delivery carries: a frame and a
  // ForwardResult (the frames are built outside the timed loop).
  double queue_op_ns = 0;
  {
    sim::EventQueue queue;
    for (std::size_t i = 0; i < u.counts.queue_pending_max; ++i)
      queue.schedule_at(1e9 + static_cast<double>(i), [] {});
    std::vector<net::Bytes> frames(kQueueOps, net::Bytes(200, 0));
    double at = 0;
    const auto t0 = Clock::now();
    for (net::Bytes& frame : frames) {
      at += 1e-9;
      queue.schedule_sharded_at(
          at, 1,
          [f = std::move(frame), result = dataplane::ForwardResult{}](
              sim::EventQueue::Phase) mutable { result.in_port = f[0]; });
      queue.step();
    }
    queue_op_ns = ns_since(t0) / static_cast<double>(kQueueOps);
  }

  // Counts from the untraced run.
  const LayerCounts& c = u.counts;
  const double pkts = static_cast<double>(u.timed_offered);
  const double setups = static_cast<double>(u.setups);
  const double hit_ratio = ratio(static_cast<double>(c.megaflow_hits),
                                 static_cast<double>(c.megaflow_hits + c.megaflow_misses));
  const double hops_per_pkt = ratio(static_cast<double>(c.switch_packets), pkts);
  const double events_per_pkt = ratio(static_cast<double>(c.events), pkts);
  const double pins_per_setup = ratio(static_cast<double>(c.packet_ins), setups);
  const double mods_per_setup =
      ratio(static_cast<double>(c.flow_mods + c.group_mods), setups);

  // Sum-check: per-layer self times (means) per delivered packet and per
  // flow setup, against the untraced wall time.
  const double miss_share = 1 - hit_ratio;
  const double ingress_mix =
      hit_ratio * w.ingress_hit.avg() + miss_share * w.ingress_miss.avg();
  struct Row {
    const char* layer;
    double ns;
  };
  const std::vector<Row> per_pkt = {
      {"sim host tx (send_tcp)", mean(send_ns)},
      {"net parse", hops_per_pkt * w.parse.avg()},
      {"net flow key", hops_per_pkt * w.key.avg()},
      {"dataplane megaflow probe", hops_per_pkt * w.probe.avg()},
      {"dataplane classifier (misses)",
       hops_per_pkt * miss_share * w.classifier.avg()},
      {"dataplane actions", hops_per_pkt * (ingress_mix - w.parse.avg() -
                                            w.key.avg() - w.probe.avg() -
                                            miss_share * w.classifier.avg())},
      {"sim host rx (deliver)", w.host_rx.avg()},
      {"sim event queue", events_per_pkt * queue_op_ns},
  };
  const std::vector<Row> per_setup = {
      {"openflow packet-in encode+decode",
       pins_per_setup * (pin_encode.avg() + pin_decode.avg())},
      {"controller app (incl. its sends)", pins_per_setup * app.avg()},
      {"openflow mod decode", mods_per_setup * mod_decode.avg()},
      {"dataplane flow/group mod apply", mods_per_setup * w.flow_mod_apply.avg()},
  };
  double model_pkt = 0, model_setup = 0;
  for (const Row& r : per_pkt) model_pkt += r.ns;
  for (const Row& r : per_setup) model_setup += r.ns;
  const double model_total = pkts * model_pkt + setups * model_setup;
  const double unattributed = 1 - ratio(model_total, u.wall_ns);
  const auto pps = [](const PhaseResult& r) {
    return ratio(static_cast<double>(r.timed_offered), r.wall_ns * 1e-9);
  };
  const double trace_overhead = ratio(pps(u), pps(t)) - 1;

  char line[160];
  std::string& table = out.table;
  std::snprintf(line, sizeof line,
                "sum-check (%s): %.0f pkts, %.0f setups, %zu ticks untraced\n",
                spec.name, pkts, setups, u.ticks);
  table += line;
  for (const Row& r : per_pkt) {
    std::snprintf(line, sizeof line, "  per pkt   %-34s %10.1f ns\n", r.layer, r.ns);
    table += line;
  }
  std::snprintf(line, sizeof line, "  per pkt   %-34s %10.1f ns  (wall %.1f ns)\n",
                "modelled total", model_pkt, ratio(u.wall_ns, pkts));
  table += line;
  if (setups > 0) {
    for (const Row& r : per_setup) {
      std::snprintf(line, sizeof line, "  per setup %-34s %10.1f ns\n", r.layer, r.ns);
      table += line;
    }
    std::snprintf(line, sizeof line,
                  "  per setup %-34s %10.1f ns  (wall %.1f ns)\n",
                  "modelled total", model_setup, ratio(u.wall_ns, setups));
    table += line;
  }
  std::snprintf(line, sizeof line,
                "  unattributed_frac %.4f  trace_overhead_frac %.4f\n",
                unattributed, trace_overhead);
  table += line;

  const double wall_s = u.wall_ns * 1e-9;
  out.metrics = {
      {"net.parse_ns", w.parse.p50(), "ns"},
      {"net.flow_key_ns", w.key.p50(), "ns"},
      {"dataplane.ingress_hit_ns_p50", w.ingress_hit.p50(), "ns"},
      {"dataplane.ingress_hit_ns_p99", w.ingress_hit.p99(), "ns"},
      {"dataplane.ingress_miss_ns_p50", w.ingress_miss.p50(), "ns"},
      {"dataplane.ingress_miss_ns_p99", w.ingress_miss.p99(), "ns"},
      {"dataplane.megaflow_probe_ns", w.probe.p50(), "ns"},
      {"dataplane.classifier_ns", w.classifier.p50(), "ns"},
      {"dataplane.actions_ns", w.actions.p50(), "ns"},
      {"dataplane.megaflow_hit_ratio", hit_ratio, "ratio"},
      {"dataplane.megaflow_evictions_per_kpkt",
       ratio(1000.0 * static_cast<double>(c.megaflow_evictions), pkts), "count"},
      {"dataplane.hops_per_pkt", hops_per_pkt, "count"},
      {"dataplane.mask_groups", c.mask_groups, "count"},
      {"dataplane.flow_mod_apply_ns", w.flow_mod_apply.p50(), "ns"},
      {"dataplane.rules", static_cast<double>(c.rules), "count"},
      {"sim.events_per_pkt", events_per_pkt, "count"},
      {"sim.event_ns_p50", quantile(step_ns, 0.5), "ns"},
      {"sim.event_ns_p99", quantile(step_ns, 0.99), "ns"},
      {"sim.queue_pending_max", static_cast<double>(c.queue_pending_max), "count"},
      {"sim.queue_op_ns", queue_op_ns, "ns"},
      {"sim.host_tx_ns", quantile(send_ns, 0.5), "ns"},
      {"sim.host_rx_ns", w.host_rx.p50(), "ns"},
      {"sim.link_drops", static_cast<double>(c.link_drops), "count"},
      {"sim.engine.parallel_event_frac",
       ratio(static_cast<double>(e.counts.parallel_events),
             static_cast<double>(e.counts.events)),
       "ratio"},
      {"sim.engine.slice_width",
       ratio(static_cast<double>(e.counts.parallel_events),
             static_cast<double>(e.counts.parallel_slices)),
       "count"},
      {"sim.engine.tasks_per_batch",
       ratio(static_cast<double>(e.counts.engine_tasks),
             static_cast<double>(e.counts.engine_batches)),
       "count"},
      {"sim.engine.pps_ratio", e.ticks > 0 ? ratio(pps(e), pps(u)) : 0, "ratio"},
      {"openflow.encode_ns", encode.p50(), "ns"},
      {"openflow.decode_ns", decode.p50(), "ns"},
      {"openflow.bytes_per_setup", ratio(setup_bytes, static_cast<double>(t.setups)),
       "bytes"},
      {"controller.app_ns", app.p50(), "ns"},
      {"controller.packet_ins_per_setup", pins_per_setup, "count"},
      {"controller.flow_mods_per_setup",
       ratio(static_cast<double>(c.flow_mods), setups), "count"},
      {"controller.flushes_per_setup",
       ratio(static_cast<double>(c.flushes), setups), "count"},
      {"controller.batch_frames_p50", c.batch_frames_p50, "count"},
      {"controller.retransmits", static_cast<double>(c.retransmits), "count"},
      {"controller.setups_per_s", ratio(setups, wall_s), "1/s"},
      {"topo.shortest_path_ns", path.p50(), "ns"},
      {"topo.spf_runs_per_setup", ratio(static_cast<double>(c.spf_runs), setups),
       "count"},
      {"topo.path_engine_hit_ratio",
       ratio(static_cast<double>(c.path_hits),
             static_cast<double>(c.path_hits + c.path_misses)),
       "ratio"},
      {"tick_us_p99", quantile(u.tick_ns, 0.99) / 1e3, "us"},
      {"sumcheck.wall_ns_per_pkt", ratio(u.wall_ns, pkts), "ns"},
      {"sumcheck.model_ns_per_pkt", model_pkt, "ns"},
      {"unattributed_frac", unattributed, "ratio"},
      {"trace_overhead_frac", trace_overhead, "ratio"},
  };
  return out;
}

std::vector<std::string> determinism_selfcheck(const WorkloadSpec& spec,
                                               std::uint64_t seed) {
  std::vector<std::string> failures;
  struct Print {
    std::vector<std::uint64_t> counts;
    std::vector<double> first_pkt_us;
  };
  const auto run_once = [&](std::uint64_t s) {
    Fabric fabric(spec, s);
    fabric.setup();
    const PhaseResult r = fabric.run(0, kSelfcheckTicks);
    for (const auto& f : r.failures) failures.push_back("selfcheck run: " + f);
    const LayerCounts& c = r.counts;
    return Print{{c.events, c.switch_packets, c.packet_ins, c.flow_mods,
                  c.spf_runs, r.offered, r.delivered},
                 r.first_pkt_us};
  };
  const Print a = run_once(seed);
  const Print b = run_once(seed);
  if (a.counts != b.counts)
    failures.push_back("layer counts differ between two runs on one seed");
  if (a.first_pkt_us != b.first_pkt_us)
    failures.push_back("first-packet latencies differ between two runs on one seed");

  const std::size_t hosts = kFatTreeK * kFatTreeK * kFatTreeK / 4;
  Generator g1(spec, seed, hosts), g2(spec, seed + 1, hosts);
  std::vector<Send> s1, s2;
  for (int i = 0; i < 16; ++i) {
    g1.next_tick(s1);
    g2.next_tick(s2);
  }
  const auto same = [](const Send& x, const Send& y) {
    return x.src == y.src && x.dst == y.dst && x.sport == y.sport &&
           x.payload == y.payload && x.seq == y.seq;
  };
  if (std::equal(s1.begin(), s1.end(), s2.begin(), s2.end(), same))
    failures.push_back("seed + 1 generated the same input stream");
  return failures;
}

}  // namespace fabricbench
