#include "fabric.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace fabricbench {

using namespace zen;

namespace {

const WorkloadSpec kWorkloads[] = {
    {.name = "fabric_warm",
     .pkts_per_tick = 32,
     .warm_set = 2048,
     .latency_samples = 2048},
    // Below the library's 65536 megaflow entries: filling 20 default-size
    // caches until every one evicts takes over 20000 warm-up ticks (9 s of
    // wall time per set-up) and 360 MB.
    {.name = "fabric_new_flows",
     .fresh_tuples = true,
     .cache_capacity = 4096,
     .pkts_per_tick = 32,
     .latency_samples = 20000},
    {.name = "reactive_churn",
     .reactive = true,
     .new_flows_per_tick = 2,
     .flow_packets = 8,
     .latency_samples = 4000},
};

// SimHost stamps every UDP/TCP payload it builds with a 4-byte magic and
// the virtual send time in big-endian nanoseconds (sim/host.cc).
std::optional<double> payload_sent_s(std::span<const std::uint8_t> payload) {
  if (payload.size() < 12 || std::memcmp(payload.data(), "ZENT", 4) != 0)
    return std::nullopt;
  std::uint64_t ns = 0;
  for (int i = 0; i < 8; ++i) ns = (ns << 8) | payload[4 + i];
  return static_cast<double>(ns) * 1e-9;
}

std::uint64_t counter_value(const obs::MetricsRegistry::Snapshot& snap,
                            std::string_view name) {
  const auto* s = snap.find(name);
  return s ? static_cast<std::uint64_t>(s->value) : 0;
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const WorkloadSpec& w : kWorkloads) out.emplace_back(w.name);
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// ---------------------------------------------------------------- Generator

Generator::Generator(const WorkloadSpec& spec, std::uint64_t seed,
                     std::size_t hosts)
    : spec_(spec),
      rng_(seed * 0x9e3779b97f4a7c15ULL + 0x5eed),
      hosts_(hosts),
      fresh_next_(hosts * hosts, kFreshSportBase) {
  if (spec_.warm_set == 0) return;
  std::vector<std::uint32_t> warm_next(hosts * hosts, kWarmSportBase);
  for (std::size_t i = 0; i < spec_.warm_set; ++i) {
    Send s;
    s.src = static_cast<std::uint16_t>(i % hosts_);
    s.dst = static_cast<std::uint16_t>(
        (s.src + 1 + rng_.next_below(hosts_ - 1)) % hosts_);
    s.sport = static_cast<std::uint16_t>(warm_next[pair_index(s.src, s.dst)]++);
    s.payload = random_payload();
    warm_.push_back(s);
  }
}

void Generator::guard(bool ok, const char* what) {
  if (!ok && guard_error_.empty()) guard_error_ = what;
}

std::uint16_t Generator::random_payload() {
  return static_cast<std::uint16_t>(64 + rng_.next_below(193));  // 64..256
}

std::uint16_t Generator::next_fresh_sport(std::size_t src, std::size_t dst) {
  std::uint32_t& next = fresh_next_[pair_index(src, dst)];
  // Guard: per-pair source ports only ever grow from a base above every
  // priming/warm-set port, so a tuple can never repeat.
  guard(next >= kFreshSportBase && next <= 0xffff,
        "fresh 5-tuple space exhausted: a tuple would repeat");
  return static_cast<std::uint16_t>(next++);
}

std::vector<Send> Generator::priming() {
  std::vector<Send> out;
  for (std::size_t src = 0; src < hosts_; ++src)
    for (std::size_t dst = 0; dst < hosts_; ++dst)
      if (src != dst)
        out.push_back(Send{static_cast<std::uint16_t>(src),
                           static_cast<std::uint16_t>(dst), kPrimeSport,
                           random_payload(), 0});
  return out;
}

void Generator::next_tick(std::vector<Send>& out, bool open_new) {
  if (spec_.reactive) {
    for (ActiveFlow& f : active_) {
      out.push_back(f.next);
      ++f.next.seq;
      --f.remaining;
    }
    std::erase_if(active_, [](const ActiveFlow& f) { return f.remaining == 0; });
    if (!open_new) return;
    for (std::size_t i = 0; i < spec_.new_flows_per_tick; ++i) {
      Send s;
      s.src = static_cast<std::uint16_t>(rng_.next_below(hosts_));
      s.dst = static_cast<std::uint16_t>(
          (s.src + 1 + rng_.next_below(hosts_ - 1)) % hosts_);
      s.sport = next_fresh_sport(s.src, s.dst);
      s.payload = random_payload();
      out.push_back(s);
      ++flows_opened_;
      if (spec_.flow_packets > 1) {
        Send next = s;
        next.seq = 1;
        active_.push_back(ActiveFlow{next, spec_.flow_packets - 1});
      }
    }
    return;
  }
  if (!open_new) return;
  for (std::size_t i = 0; i < spec_.pkts_per_tick; ++i) {
    if (spec_.fresh_tuples) {
      Send s;
      s.src = static_cast<std::uint16_t>(i % hosts_);
      s.dst = static_cast<std::uint16_t>(
          (s.src + 1 + rng_.next_below(hosts_ - 1)) % hosts_);
      s.sport = next_fresh_sport(s.src, s.dst);
      s.payload = random_payload();
      out.push_back(s);
    } else {
      // Every tuple comes from the warmed set by construction. A tuple can
      // be drawn twice in one tick, so seq numbers the segments: each
      // (tuple, seq) is sent once and its arrival can be checked.
      Send s = warm_[rng_.next_below(warm_.size())];
      s.seq = ++warm_seq_;
      out.push_back(s);
    }
  }
}

// ---------------------------------------------------------------- Fabric

Fabric::Fabric(const WorkloadSpec& spec, std::uint64_t seed, TraceHooks hooks)
    : spec_(spec),
      hooks_(hooks),
      gen_(spec, seed, kFatTreeK * kFatTreeK * kFatTreeK / 4) {}

Fabric::~Fabric() = default;

double Fabric::setup() {
  const auto t0 = Clock::now();
  in_setup_ = true;
  lap_start_ = t0;
  setup_laps_ns_.clear();
  core::Network::Config config;
  if (spec_.cache_capacity > 0)
    config.sim.switch_config.cache_capacity = spec_.cache_capacity;
  if (spec_.engine_workers > 1) {
    config.sim.engine_workers = spec_.engine_workers;
    config.sim.switch_config.concurrent_lookup = true;
  }
  net_ = std::make_unique<core::Network>(topo::make_fat_tree(kFatTreeK), config);
  controller::apps::Discovery::Options disc;
  disc.stop_after_s = 2.0;
  net_->add_app<controller::apps::Discovery>(disc);
  if (spec_.reactive) {
    controller::apps::ReactiveForwarding::Options opts;
    opts.match_l4 = true;
    opts.idle_timeout_s = kIdleTimeoutS;
    app_ = &net_->add_app<controller::apps::ReactiveForwarding>(opts);
  } else {
    controller::apps::L3Routing::Options opts;
    opts.use_ecmp_groups = true;
    app_ = &net_->add_app<controller::apps::L3Routing>(opts);
  }
  if (hooks_.mods) {
    net_->controller().set_southbound_tap(
        [this](controller::Dpid dpid, const openflow::Message& msg) {
          hooks_.mods->push_back(TraceHooks::Mod{net_->now(), dpid, msg});
        });
  }
  for (std::size_t i = 0; i < net_->host_count(); ++i) {
    sim::SimHost& host = net_->host(i);
    hosts_.push_back(&host);
    host_of_ip_.emplace(host.ip().value(), i);
    host.set_tcp_sink(kDport, [this, i](const net::ParsedPacket& p,
                                        std::span<const std::uint8_t> payload) {
      on_segment(i, p, payload);
    });
  }
  net_->start();
  lap();

  // Resolve ARP and teach the controller every host, then check it worked:
  // later inputs rely on it.
  // Priming runs in 10 ms steps of virtual time, so that no set-up step
  // (setup_laps_ns) is long enough to span a change in background load.
  offer(gen_.priming(), false);
  const double primed_at = net_->now() + 0.5;
  for (int step = 1; step <= 50; ++step) {
    net_->run_until(step < 50 ? primed_at - 0.5 + step * 0.01 : primed_at);
    lap();
  }
  primed_ = true;
  for (std::size_t s = 0; s < hosts_.size(); ++s)
    for (std::size_t d = 0; d < hosts_.size(); ++d)
      if (s != d && !hosts_[s]->knows(hosts_[d]->ip()))
        setup_error_ = "ARP not resolved after priming";
  tick_origin_ = net_->now();
  tick_ = 0;
  if (setup_error_.empty()) {
    const bool steady = warm_up();
    if (!steady && setup_error_.empty())
      setup_error_ = "warm-up did not reach steady state";
  }
  lap();
  in_setup_ = false;
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void Fabric::lap() {
  if (!in_setup_) return;
  const auto now = Clock::now();
  setup_laps_ns_.push_back(
      std::chrono::duration<double, std::nano>(now - lap_start_).count());
  lap_start_ = now;
}

bool Fabric::caches_evicting() {
  for (const auto& [id, sw] : net_->sim().switches())
    if (sw->cache().evictions() == 0) return false;
  return true;
}

std::uint64_t Fabric::total_rules() {
  std::uint64_t rules = 0;
  for (const auto& [id, sw] : net_->sim().switches())
    for (std::uint8_t t = 0; t < sw->table_count(); ++t)
      rules += sw->table(t).size();
  return rules;
}

void Fabric::untimed_tick(bool open_new) {
  scratch_.clear();
  gen_.next_tick(scratch_, open_new);
  offer(scratch_, false);
  advance_to(tick_end(++tick_), false);
}

bool Fabric::warm_up() {
  bool steady = false;
  if (spec_.warm_set > 0) {
    // Prime the established set: each tuple's first packet installs its
    // megaflow entries. These are the workload's new flows, so their
    // first-packet latency is sampled here.
    sample_latency_ = true;
    const auto& warm = gen_.warm_set();
    for (std::size_t i = 0; i < warm.size(); i += spec_.pkts_per_tick) {
      scratch_.assign(warm.begin() + static_cast<std::ptrdiff_t>(i),
                      warm.begin() + static_cast<std::ptrdiff_t>(std::min(
                                         warm.size(), i + spec_.pkts_per_tick)));
      offer(scratch_, false);
      advance_to(tick_end(++tick_), false);
    }
    steady = true;
  } else if (spec_.fresh_tuples) {
    // Steady state: every switch's megaflow cache is full and evicting.
    for (int i = 0; i < 20000 && !steady; ++i) {
      untimed_tick(true);
      steady = caches_evicting();
    }
  } else {
    // Steady state: installs roughly equal idle expiries. Sample the rule
    // count once per expiry-sweep period so samples share a sweep phase.
    std::uint64_t prev = 0;
    for (int i = 1; i <= 12000 && !steady; ++i) {
      untimed_tick(true);
      if (i % 1000 != 0) continue;
      const std::uint64_t rules = total_rules();
      steady = i >= 3000 && rules > 0 &&
               std::fabs(static_cast<double>(rules) - static_cast<double>(prev)) <=
                   0.1 * static_cast<double>(rules);
      prev = rules;
    }
  }
  drain();
  sample_latency_ = false;
  return steady;
}

void Fabric::drain() {
  while (gen_.flows_pending()) untimed_tick(false);
  tick_ += 50;
  advance_to(tick_end(tick_), false);
}

void Fabric::offer(const std::vector<Send>& sends, bool timed) {
  const double now = net_->now();
  for (const Send& s : sends) {
    if (hooks_.sends) hooks_.sends->emplace_back(now, s);
    if (track_segments_)
      ++in_flight_[segment_key(s.src, s.dst, s.sport, s.seq)].sent;
    // Guard (reactive_churn): a new flow's pair is ARP-warm, so its first
    // packet measures a flow setup and not an ARP resolution.
    if (spec_.reactive && primed_ && s.seq == 0 && setup_error_.empty() &&
        !hosts_[s.src]->knows(hosts_[s.dst]->ip()))
      setup_error_ = "input guard: reactive flow opened on an ARP-cold pair";
    const net::TcpSpec tcp{s.sport, kDport, s.seq, 0, net::TcpHeader::kAck};
    const net::Ipv4Address dst = hosts_[s.dst]->ip();
    if (timed && hooks_.send_ns) {
      const auto t0 = Clock::now();
      hosts_[s.src]->send_tcp(dst, tcp, s.payload);
      hooks_.send_ns->push_back(ns_since(t0));
    } else {
      hosts_[s.src]->send_tcp(dst, tcp, s.payload);
    }
    ++sent_;
  }
}

void Fabric::advance_to(double t, bool timed) {
  if (!timed || !hooks_.step_ns) {
    net_->run_until(t);
    lap();
    return;
  }
  // Traced: step the queue one dispatch unit at a time up to a sentinel
  // event at the tick boundary, timing each step.
  bool reached = false;
  sim::EventQueue& events = net_->sim().events();
  events.schedule_at(t, [&reached] { reached = true; });
  while (!reached) {
    const auto t0 = Clock::now();
    events.step();
    const double ns = ns_since(t0);
    if (!reached) hooks_.step_ns->push_back(ns);
  }
}

void Fabric::on_segment(std::size_t dst, const net::ParsedPacket& p,
                        std::span<const std::uint8_t> payload) {
  ++delivered_;
  const std::uint32_t seq = p.tcp->seq;
  if (sample_latency_ && seq == 0 &&
      first_pkt_us_.size() < spec_.latency_samples) {
    if (const auto sent = payload_sent_s(payload))
      first_pkt_us_.push_back((net_->now() - *sent) * 1e6);
  }
  if (!track_segments_) return;
  // An arrival from an unknown sender lands on a key no segment has, so it
  // stays behind and fails the check.
  const auto src = host_of_ip_.find(p.ipv4->src.value());
  const std::uint64_t key =
      src == host_of_ip_.end()
          ? ~std::uint64_t{0}
          : segment_key(src->second, dst, p.tcp->src_port, seq);
  SegmentState& s = in_flight_[key];
  ++s.received;
  if (s.sent == 1 && s.received == 1) in_flight_.erase(key);
}

LayerCounts Fabric::read_counts(const obs::MetricsRegistry::Snapshot& snap) {
  LayerCounts c;
  c.events = counter_value(snap, "zen_sim_events_total");
  c.parallel_events = counter_value(snap, "zen_sim_parallel_events_total");
  c.parallel_slices = counter_value(snap, "zen_sim_parallel_slices_total");
  c.engine_tasks = counter_value(snap, "zen_engine_tasks_total");
  c.engine_batches = counter_value(snap, "zen_engine_worker_batches_total");
  c.switch_packets = counter_value(snap, "zen_dataplane_packets_total");
  c.flushes = counter_value(snap, "zen_controller_channel_flushes_total");
  if (const auto* h = snap.find("zen_controller_channel_batch_frames"))
    c.batch_frames_p50 = h->hist.percentile(0.5);
  for (const auto& [id, sw] : net_->sim().switches()) {
    const auto& cache = sw->cache();
    c.megaflow_hits += cache.hits();
    c.megaflow_misses += cache.misses();
    c.megaflow_evictions += cache.evictions();
    c.mask_groups += static_cast<double>(sw->table(0).mask_group_count());
  }
  c.mask_groups /= static_cast<double>(net_->sim().switches().size());
  c.rules = total_rules();
  c.link_drops = net_->sim().total_link_drops();
  const auto& cs = net_->controller().stats();
  c.packet_ins = cs.packet_ins;
  c.flow_mods = cs.flow_mods_sent;
  c.group_mods = cs.group_mods_sent;
  c.errors = cs.errors_received;
  c.retransmits = cs.retransmits;
  c.completions_failed = cs.completions_failed;
  const auto& ps = net_->controller().view().path_engine().stats();
  c.spf_runs = ps.spf_runs;
  c.path_hits = ps.hits;
  c.path_misses = ps.misses;
  return c;
}

PhaseResult Fabric::run(double wall_budget_s, std::size_t fixed_ticks) {
  PhaseResult r;
  auto& reg = obs::MetricsRegistry::global();
  // Registry series read below are deltas over the timed ticks: flush the
  // shard slots into the counters, then zero them.
  (void)reg.snapshot();
  reg.reset_values();
  const LayerCounts base = read_counts(reg.snapshot());
  const std::uint64_t setups_before = gen_.flows_opened();
  sent_ = 0;
  delivered_ = 0;
  // fabric_warm opens no flows here; its sample is the warm-set priming.
  sample_latency_ = spec_.fresh_tuples || spec_.reactive;
  if (sample_latency_) first_pkt_us_.clear();
  track_segments_ = true;
  timed_start_ = net_->now();

  std::uint64_t pending_max = 0;
  const auto phase_start = Clock::now();
  for (;;) {
    scratch_.clear();
    gen_.next_tick(scratch_);
    const auto t0 = Clock::now();
    offer(scratch_, true);
    advance_to(tick_end(++tick_), true);
    const double tick_ns = ns_since(t0);
    r.wall_ns += tick_ns;
    r.tick_ns.push_back(tick_ns);
    pending_max = std::max<std::uint64_t>(pending_max,
                                          net_->sim().events().pending());
    ++r.ticks;
    if (fixed_ticks > 0 ? r.ticks >= fixed_ticks
                        : std::chrono::duration<double>(Clock::now() -
                                                        phase_start)
                                  .count() >= wall_budget_s)
      break;
  }
  r.timed_offered = sent_;
  r.setups = gen_.flows_opened() - setups_before;

  const LayerCounts end = read_counts(reg.snapshot());
  LayerCounts& d = r.counts;
  d = end;  // registry values are already deltas; levels are end values
  d.megaflow_hits = end.megaflow_hits - base.megaflow_hits;
  d.megaflow_misses = end.megaflow_misses - base.megaflow_misses;
  d.megaflow_evictions = end.megaflow_evictions - base.megaflow_evictions;
  d.link_drops = end.link_drops - base.link_drops;
  d.packet_ins = end.packet_ins - base.packet_ins;
  d.flow_mods = end.flow_mods - base.flow_mods;
  d.group_mods = end.group_mods - base.group_mods;
  d.errors = end.errors - base.errors;
  d.retransmits = end.retransmits - base.retransmits;
  d.completions_failed = end.completions_failed - base.completions_failed;
  d.spf_runs = end.spf_runs - base.spf_runs;
  d.path_hits = end.path_hits - base.path_hits;
  d.path_misses = end.path_misses - base.path_misses;
  d.queue_pending_max = pending_max;

  drain();
  sample_latency_ = false;
  r.first_pkt_us = first_pkt_us_;

  // Output checks over the timed ticks and their drain.
  const LayerCounts after = read_counts(reg.snapshot());
  r.offered = sent_;
  r.delivered = delivered_;
  if (!in_flight_.empty()) {
    r.failed += in_flight_.size();
    r.failures.push_back(std::to_string(in_flight_.size()) +
                         " segments not delivered exactly once (delivered " +
                         std::to_string(r.delivered) + " of " +
                         std::to_string(r.offered) + ")");
  }
  const auto check_zero = [&r](std::uint64_t n, const char* what) {
    if (n == 0) return;
    r.failed += n;
    r.failures.push_back(std::to_string(n) + " " + what);
  };
  check_zero(after.link_drops - base.link_drops, "link drops");
  check_zero(after.errors - base.errors, "controller errors");
  check_zero(after.retransmits - base.retransmits, "controller retransmits");
  check_zero(after.completions_failed - base.completions_failed,
             "failed completions");
  if (!gen_.guard_error().empty()) r.failures.push_back(gen_.guard_error());
  if (!setup_error_.empty()) r.failures.push_back(setup_error_);
  track_segments_ = false;
  in_flight_.clear();
  return r;
}

}  // namespace fabricbench
