// fabricbench: seeded fabric workloads driven through core::Network.
//
// The driver owns every input: a Generator turns (workload, seed) into the
// TCP segments the hosts send, tick by tick, and a Fabric offers them to a
// simulated fat-tree in fixed virtual-time ticks (an open loop: each tick
// offers the same amount whatever the previous one cost). Wall time spent
// inside the program during a tick is the cost being measured.
//
// Traffic is TCP so that every arrival reaches the benchmark through
// SimHost's TCP sink (UDP arrivals are only counted by the host stack); the
// fabric forwards both alike, on IPv4 destination or on the 5-tuple.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/zen.h"

namespace fabricbench {

using Clock = std::chrono::steady_clock;

inline double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

struct WorkloadSpec {
  const char* name = "";
  // ReactiveForwarding (per-5-tuple rules, idle timeouts) instead of
  // proactive L3Routing with ECMP select groups.
  bool reactive = false;
  // Every packet opens a 5-tuple never sent before (fabric_new_flows).
  bool fresh_tuples = false;
  // Megaflow entries per switch; 0 keeps the library default (65536).
  std::size_t cache_capacity = 0;
  // > 1: sharded packet engine with this many workers + concurrent lookups
  // (set only on the engine companion run of fabric_new_flows, see layers.h).
  unsigned engine_workers = 0;
  // fabric_*: segments offered per tick, spread evenly over the hosts.
  std::size_t pkts_per_tick = 0;
  // fabric_warm: size of the established 5-tuple set.
  std::size_t warm_set = 0;
  // reactive_churn: flows opened per tick, and segments per flow (one per
  // tick, the first of which triggers the flow setup).
  std::size_t new_flows_per_tick = 0;
  std::size_t flow_packets = 0;
  // First-packet latencies kept for setup_virt_us_*: a fixed count, so the
  // sample (and hence the metric) is a deterministic function of the seed.
  std::size_t latency_samples = 0;
};

const WorkloadSpec* find_workload(std::string_view name);
std::vector<std::string> workload_names();

// Fixed workload parameters (printed with every result).
inline constexpr std::size_t kFatTreeK = 4;
inline constexpr double kTickS = 1e-3;
inline constexpr std::uint16_t kIdleTimeoutS = 1;
inline constexpr std::uint16_t kDport = 5001;
inline constexpr std::uint16_t kPrimeSport = 1000;
inline constexpr std::uint16_t kWarmSportBase = 2000;
inline constexpr std::uint16_t kFreshSportBase = 10000;

// One segment the generator offers.
struct Send {
  std::uint16_t src = 0;  // host indices
  std::uint16_t dst = 0;
  std::uint16_t sport = 0;
  std::uint16_t payload = 0;
  // 0 = first segment of its flow; fabric_warm numbers its timed segments.
  std::uint32_t seq = 0;
};

// Turns (workload, seed) into segments. Input guards live here: they check
// properties of what is generated, never the program's response, and a
// violation is a benchmark bug that fails the run.
class Generator {
 public:
  Generator(const WorkloadSpec& spec, std::uint64_t seed, std::size_t hosts);

  // One segment per ordered host pair: resolves ARP everywhere and lets the
  // controller learn every host.
  std::vector<Send> priming();
  // fabric_warm: the established set, each tuple once (its first packet).
  const std::vector<Send>& warm_set() const noexcept { return warm_; }
  // Appends the segments of the next tick. With `open_new` false, only
  // segments of already-open reactive flows are produced (drain).
  void next_tick(std::vector<Send>& out, bool open_new = true);
  // Reactive flows opened so far (each one is a flow setup).
  std::uint64_t flows_opened() const noexcept { return flows_opened_; }
  bool flows_pending() const noexcept { return !active_.empty(); }
  // First input-guard violation, empty while every input was valid.
  const std::string& guard_error() const noexcept { return guard_error_; }

 private:
  struct ActiveFlow {
    Send next;
    std::size_t remaining = 0;
  };
  std::uint16_t random_payload();
  std::size_t pair_index(std::size_t src, std::size_t dst) const noexcept {
    return src * hosts_ + dst;
  }
  std::uint16_t next_fresh_sport(std::size_t src, std::size_t dst);
  void guard(bool ok, const char* what);

  const WorkloadSpec& spec_;
  zen::util::Rng rng_;
  std::size_t hosts_;
  std::vector<std::uint32_t> fresh_next_;  // per pair: next fresh sport
  std::vector<Send> warm_;
  std::vector<ActiveFlow> active_;
  std::uint32_t warm_seq_ = 0;  // last seq of a fabric_warm timed segment
  std::uint64_t flows_opened_ = 0;
  std::string guard_error_;
};

// Counters read from outside over one phase (deltas unless noted).
struct LayerCounts {
  std::uint64_t events = 0;
  std::uint64_t parallel_events = 0;
  std::uint64_t parallel_slices = 0;
  std::uint64_t engine_tasks = 0;
  std::uint64_t engine_batches = 0;
  std::uint64_t switch_packets = 0;  // switch ingress calls (hops)
  std::uint64_t megaflow_hits = 0;
  std::uint64_t megaflow_misses = 0;
  std::uint64_t megaflow_evictions = 0;
  std::uint64_t link_drops = 0;
  std::uint64_t packet_ins = 0;
  std::uint64_t flow_mods = 0;
  std::uint64_t group_mods = 0;
  std::uint64_t errors = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t completions_failed = 0;
  std::uint64_t flushes = 0;
  double batch_frames_p50 = 0;
  std::uint64_t spf_runs = 0;
  std::uint64_t path_hits = 0;
  std::uint64_t path_misses = 0;
  // Levels at the end of the phase, not deltas.
  std::uint64_t rules = 0;
  double mask_groups = 0;
  std::uint64_t queue_pending_max = 0;
};

// What one timed phase measured.
struct PhaseResult {
  std::size_t ticks = 0;
  double wall_ns = 0;  // wall time of all timed ticks
  std::vector<double> tick_ns;  // wall time of each timed tick
  std::uint64_t offered = 0;    // segments sent (timed ticks + drain)
  std::uint64_t delivered = 0;
  std::uint64_t timed_offered = 0;  // segments sent in timed ticks
  std::uint64_t setups = 0;         // reactive flows opened in timed ticks
  std::uint64_t failed = 0;  // segments not delivered exactly once, drops, errors
  std::vector<std::string> failures;
  std::vector<double> first_pkt_us;  // first-packet latency sample
  LayerCounts counts;
};

// Hooks the traced run installs; all null in an untraced run.
struct TraceHooks {
  // Wall time of each EventQueue::step() in the timed ticks.
  std::vector<double>* step_ns = nullptr;
  // Wall time of each SimHost::send_tcp() in the timed ticks.
  std::vector<double>* send_ns = nullptr;
  // Every segment offered (setup and timed ticks), with its virtual send time.
  std::vector<std::pair<double, Send>>* sends = nullptr;
  // Every FlowMod/GroupMod from network construction on, with the virtual
  // time the controller sent it.
  struct Mod {
    double at = 0;
    zen::topo::NodeId dpid = 0;
    zen::openflow::Message msg;
  };
  std::vector<Mod>* mods = nullptr;
};

class Fabric {
 public:
  Fabric(const WorkloadSpec& spec, std::uint64_t seed, TraceHooks hooks = {});
  ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // Builds the network, connects, discovers, installs routes and warms up
  // to the workload's steady state. Returns the wall time in seconds.
  // Failures (ARP not warm, no plateau) land in setup_error().
  double setup();
  const std::string& setup_error() const noexcept { return setup_error_; }
  // Wall time of each step of the last setup(), in order: construction,
  // priming, each warm-up tick. For one seed every set-up does the same
  // steps, so step i of two set-ups is the same work.
  const std::vector<double>& setup_laps_ns() const noexcept {
    return setup_laps_ns_;
  }

  // Runs timed ticks until `wall_budget_s` of wall time has passed (when
  // > 0) or exactly `fixed_ticks` ticks, then drains and checks outputs.
  PhaseResult run(double wall_budget_s, std::size_t fixed_ticks = 0);

  zen::core::Network& network() { return *net_; }
  // The forwarding app (L3Routing or ReactiveForwarding).
  zen::controller::App& app() { return *app_; }
  // Virtual time of the first timed tick of the last run().
  double timed_start() const noexcept { return timed_start_; }

 private:
  struct SegmentState {
    std::uint32_t sent = 0;
    std::uint32_t received = 0;
  };
  void offer(const std::vector<Send>& sends, bool timed);
  void advance_to(double t, bool timed);
  void on_segment(std::size_t dst, const zen::net::ParsedPacket& p,
                  std::span<const std::uint8_t> payload);
  // (src, dst, sport, seq) names one segment: the generator never sends the
  // same four twice. Host indices fit in 8 bits (16 hosts).
  static std::uint64_t segment_key(std::size_t src, std::size_t dst,
                                   std::uint16_t sport,
                                   std::uint32_t seq) noexcept {
    return (std::uint64_t{src} << 56) | (std::uint64_t{dst} << 48) |
           (std::uint64_t{sport} << 32) | seq;
  }
  double tick_end(std::uint64_t tick) const noexcept {
    return tick_origin_ + static_cast<double>(tick) * kTickS;
  }
  // Closes a set-up step (no-op outside setup()).
  void lap();
  // Offers one tick outside the timed phase.
  void untimed_tick(bool open_new);
  // Offers ticks (untimed) until the workload's steady state holds.
  bool warm_up();
  bool caches_evicting();
  std::uint64_t total_rules();
  void drain();
  LayerCounts read_counts(const zen::obs::MetricsRegistry::Snapshot& snap);

  const WorkloadSpec& spec_;
  TraceHooks hooks_;
  Generator gen_;
  std::unique_ptr<zen::core::Network> net_;
  zen::controller::App* app_ = nullptr;
  std::vector<zen::sim::SimHost*> hosts_;
  std::unordered_map<std::uint32_t, std::size_t> host_of_ip_;
  std::vector<Send> scratch_;

  // Arrival accounting.
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  bool sample_latency_ = false;
  std::vector<double> first_pkt_us_;
  // Segments in flight in a timed phase, by segment_key(); an entry leaves
  // once its one segment has arrived once, so what is left at the end was
  // lost, duplicated or never sent.
  bool track_segments_ = false;
  std::unordered_map<std::uint64_t, SegmentState> in_flight_;

  bool primed_ = false;
  bool in_setup_ = false;
  Clock::time_point lap_start_;
  std::vector<double> setup_laps_ns_;
  double tick_origin_ = 0;
  std::uint64_t tick_ = 0;
  double timed_start_ = 0;
  std::string setup_error_;
};

// Exact quantile of a sample (linear interpolation between order
// statistics); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

}  // namespace fabricbench
