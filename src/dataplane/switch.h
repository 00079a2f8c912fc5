// Switch: the software forwarding plane (Open vSwitch analog).
//
// A Switch owns a multi-table pipeline, a group table, a meter table, a
// megaflow cache and a set of ports. It exposes a *typed* control surface
// (flow_mod, group_mod, stats, ...) — the wire-protocol agent that speaks
// the southbound channel lives in the controller module and translates
// messages to these calls. This keeps dataplane semantics testable without
// any protocol plumbing.
//
// Time is explicit: every packet- or rule-touching call takes `now`
// (seconds on the caller's clock — virtual under simulation).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dataplane/explain.h"
#include "dataplane/flow_table.h"
#include "dataplane/group_table.h"
#include "dataplane/megaflow_cache.h"
#include "dataplane/meter_table.h"
#include "dataplane/packet_rewrite.h"
#include "obs/shard_stats.h"
#include "openflow/table_status.h"
#include "openflow/wire.h"
#include "util/token_bucket.h"

namespace zen::telemetry {
class SwitchTelemetry;
}

namespace zen::obs {
class Gauge;
}

namespace zen::dataplane {

enum class MissBehavior : std::uint8_t { Drop, PacketIn };

// What the switch does about forwarding when its controller session dies
// (OVS fail-mode analog). The dataplane only carries the knob; the
// switch-side agent (controller::SwitchAgent) detects the silence and
// installs/removes the standalone fallback rule.
enum class FailMode : std::uint8_t {
  Secure,      // freeze: keep the installed tables, punt nothing new
  Standalone,  // install a low-priority NORMAL-forwarding fallback rule
               // until the controller returns
};

struct SwitchConfig {
  std::uint8_t n_tables = 4;
  std::size_t cache_capacity = 65536;
  bool cache_enabled = true;
  // What a table-0 miss does when no table-miss entry is installed.
  MissBehavior default_miss = MissBehavior::PacketIn;
  std::size_t packet_buffer_slots = 256;
  // miss_send_len: how many bytes of the frame ride inside a PacketIn.
  std::uint16_t packet_in_bytes = 128;
  // Controller-protection: max PacketIns per second the switch will emit
  // (0 = unlimited). Excess punts are dropped and counted.
  double packet_in_rate_pps = 0;
  // Per-table rule capacity (0 = unlimited). FlowMod Adds beyond it fail
  // with TableFull — the hardware-table constraint SWAN-class systems
  // engineer around.
  std::size_t table_capacity = 0;
  // What a full table does with an incoming Add (meaningless when
  // table_capacity == 0). Victims leave as FlowRemoved/Eviction.
  EvictionPolicy eviction = EvictionPolicy::Off;
  // OVS-style vacancy events: a TableStatus fires when a table's free
  // space falls to <= vacancy_down_pct percent of capacity, and again when
  // it recovers to >= vacancy_up_pct. Both 0 = disabled; keep
  // down < up for hysteresis.
  std::uint8_t vacancy_down_pct = 0;
  std::uint8_t vacancy_up_pct = 0;
  // Controller-loss behavior, acted on by the switch-side agent after
  // fail_timeout_s of controller silence (0 disables detection entirely).
  FailMode fail_mode = FailMode::Secure;
  double fail_timeout_s = 0;
  // Selects the megaflow cache layout: cache_ways lock-free ways
  // (epoch-reclaimed on version bumps) instead of the classic map. Flow
  // tables have one layout: under the sharded packet engine a switch has
  // one owner per slice and flow_mods apply between slices. Off by
  // default: the classic cache is faster single-threaded and its eviction
  // behavior is the documented one.
  bool concurrent_lookup = false;
  std::size_t cache_ways = 4;
};

struct Egress {
  std::uint32_t port = 0;
  // Queue the frame was directed to by a preceding SetQueue action.
  // Convention: 0 = best-effort (default), >= 1 = priority class.
  std::uint32_t queue_id = 0;
  net::Bytes frame;
};

struct ForwardResult {
  std::vector<Egress> outputs;
  std::optional<openflow::PacketIn> packet_in;
  // True if the packet was dropped (no match with Drop behavior, meter
  // exceeded, TTL expired, or malformed).
  bool dropped = false;
  // Port the packet arrived on (0 for controller-originated PacketOuts);
  // the sim threads this into per-hop telemetry records.
  std::uint32_t in_port = 0;
};

struct ModStatus {
  bool ok = true;
  openflow::ErrorType error_type = openflow::ErrorType::BadRequest;
  std::uint16_t error_code = 0;
};

class Switch {
 public:
  Switch(std::uint64_t datapath_id, SwitchConfig config = {});

  std::uint64_t datapath_id() const noexcept { return dpid_; }

  // ---- ports ----
  void add_port(const openflow::PortDesc& desc);
  // Returns the new PortStatus event if the port exists and state changed.
  std::optional<openflow::PortStatus> set_port_link(std::uint32_t port_no,
                                                    bool up);
  const openflow::PortDesc* port(std::uint32_t port_no) const noexcept;
  std::vector<openflow::PortDesc> ports() const;

  // ---- dataplane ----
  ForwardResult ingress(double now, std::uint32_t in_port,
                        std::span<const std::uint8_t> frame);

  // Dry-run pipeline walk (ofproto/trace analog): returns the exact
  // ForwardResult ingress() would produce for this frame right now, with
  // zero observable side effects — no rule/port/cache counters, no meter
  // tokens consumed, no megaflow insert, no PacketIn buffered or rate-
  // limited, no NORMAL-mode learning. When `trace` is non-null (and
  // observability is compiled in) every decision is appended to it as an
  // ExplainStep. The megaflow cache is probed read-only for the trace, but
  // the verdict always comes from a full pipeline walk so the explanation
  // covers the classifier even for cached flows.
  ForwardResult explain(double now, std::uint32_t in_port,
                        std::span<const std::uint8_t> frame,
                        ExplainTrace* trace = nullptr);

  // Executes a PacketOut's action list on its payload (or buffered packet).
  ForwardResult packet_out(double now, const openflow::PacketOut& msg);

  // Attaches per-switch telemetry (sampling + flow export). Not owned;
  // nullptr (the default) disables the hook entirely. The sim wires this
  // when SimOptions.telemetry.enabled is set.
  void set_telemetry(telemetry::SwitchTelemetry* telemetry) noexcept {
    telemetry_ = telemetry;
  }
  telemetry::SwitchTelemetry* telemetry() const noexcept { return telemetry_; }

  // ---- control surface ----
  ModStatus flow_mod(const openflow::FlowMod& mod, double now,
                     std::vector<openflow::FlowRemoved>* removed = nullptr);
  ModStatus group_mod(const openflow::GroupMod& mod);
  ModStatus meter_mod(const openflow::MeterMod& mod);

  // Applies a bundle's members (FlowMod / GroupMod / MeterMod) in order,
  // all-or-nothing: when any member fails, every earlier member's effect
  // is rolled back and the failing member's own status is returned, so
  // the caller sees exactly the error a lone mod would have produced.
  // FlowRemoved events (evictions, deletes) reach `removed` only when the
  // whole bundle commits.
  ModStatus commit_bundle(std::span<const openflow::Message> members,
                          double now,
                          std::vector<openflow::FlowRemoved>* removed = nullptr);

  openflow::FeaturesReply features() const;
  openflow::FlowStatsReply flow_stats(const openflow::FlowStatsRequest& req,
                                      double now) const;
  openflow::PortStatsReply port_stats(const openflow::PortStatsRequest& req) const;
  openflow::TableStatsReply table_stats() const;

  // Removes timed-out entries across all tables; returns FlowRemoved events
  // for entries flagged kFlagSendFlowRemoved.
  std::vector<openflow::FlowRemoved> expire_flows(double now);

  // Drains vacancy events accumulated since the last call (fired when a
  // mod/expiry/eviction moved a table's occupancy across a configured
  // threshold). The sim wraps them into Experimenter messages northbound.
  std::vector<openflow::TableStatus> take_table_status();

  // Crash/reboot semantics: wipes all forwarding state (flow/group/meter
  // tables, megaflow cache, packet buffers) and forgets controller roles and
  // the master-election epoch, as a power-cycled switch would. Ports and
  // their cumulative stats survive (they model physical hardware).
  void reset();

  // ---- controller roles (multi-controller redundancy) ----
  // Applies a role request from connection `conn_id`. Master requests carry
  // a generation id; a stale generation (less than the largest seen) is
  // refused (returns nullopt). Granting Master demotes the previous master
  // to Slave (OF 1.3 semantics). Returns the granted role.
  std::optional<openflow::ControllerRole> set_controller_role(
      std::uint64_t conn_id, openflow::ControllerRole role,
      std::uint64_t generation_id);
  // Role of a connection (Equal when never set).
  openflow::ControllerRole controller_role(std::uint64_t conn_id) const;

  // ---- introspection ----
  FlowTable& table(std::uint8_t id) { return tables_[id]; }
  const FlowTable& table(std::uint8_t id) const { return tables_[id]; }
  std::uint8_t table_count() const noexcept {
    return static_cast<std::uint8_t>(tables_.size());
  }
  // Monotonic power-cycle counter: starts at 1, bumped by every reset().
  // Carried in FeaturesReply/EchoReply so the controller can spot a
  // crash/reboot cycle even when it fit inside the heartbeat window.
  std::uint64_t boot_count() const noexcept { return boot_count_; }
  const MegaflowCache& cache() const noexcept { return cache_; }
  const SwitchConfig& config() const noexcept { return config_; }
  std::uint64_t packet_in_suppressed() const noexcept {
    return packet_in_suppressed_;
  }
  std::uint64_t flow_evictions() const noexcept { return flow_evictions_; }
  // Frames dropped by the NORMAL-action flood deduper (loop suppression).
  std::uint64_t storm_suppressed() const noexcept { return storm_suppressed_; }
  MegaflowCache& cache() noexcept { return cache_; }
  GroupTable& groups() noexcept { return groups_; }
  std::uint64_t rule_version() const noexcept { return version_; }

 private:
  struct PortState {
    openflow::PortDesc desc;
    openflow::PortStatsEntry stats;
  };

  struct PipelineContext {
    double now = 0;
    std::uint32_t in_port = 0;
    std::uint32_t queue_id = 0;  // set by SetQueue, applies to later outputs
    MutablePacket* pkt = nullptr;
    ForwardResult* result = nullptr;
    CachedVerdict verdict;  // built as we go; inserted on cacheable misses
    bool dropped = false;
    // Dry-run mode (Switch::explain): forward decisions are computed but
    // nothing observable changes — stats, meters, caches, buffers and
    // learned state are all left untouched.
    bool dry_run = false;
    // Step recorder; empty no-op type under ZEN_OBS_DISABLED.
    ExplainProbe probe;
  };

  void run_pipeline(PipelineContext& ctx);
  void execute_normal(PipelineContext& ctx);
  // Re-evaluates one table's vacancy state after an occupancy change and
  // queues a TableStatus when a threshold was crossed.
  void check_vacancy(std::uint8_t table_id);
  void update_occupancy_gauge();
  void execute_action_list(PipelineContext& ctx,
                           const openflow::ActionList& actions, int depth);
  void execute_output(PipelineContext& ctx, std::uint32_t port,
                      std::uint16_t max_len, std::uint8_t table_id,
                      std::uint64_t cookie, bool is_miss);
  void emit_to_port(PipelineContext& ctx, std::uint32_t port_no);
  void make_packet_in(PipelineContext& ctx, openflow::PacketInReason reason,
                      std::uint8_t table_id, std::uint64_t cookie,
                      std::uint16_t max_len);
  std::uint32_t buffer_packet(const net::Bytes& frame);

  std::uint64_t dpid_;
  SwitchConfig config_;
  // Per-switch hot-path counters (packets, megaflow hit/miss/evict): the
  // ingress path bumps private cacheline-aligned slots; the registry
  // drains them into the shared global counters at snapshot time. Behind a
  // unique_ptr so its address — which the megaflow cache holds — survives
  // Switch moves.
  std::unique_ptr<obs::ShardStats> shard_;
  std::vector<FlowTable> tables_;
  GroupTable groups_;
  MeterTable meters_;
  MegaflowCache cache_;
  std::map<std::uint32_t, PortState> ports_;
  // Bumped on every rule-affecting change; versions the megaflow cache.
  std::uint64_t version_ = 1;
  std::uint64_t boot_count_ = 1;

  // PacketIn buffer ring.
  std::vector<net::Bytes> buffered_;
  std::uint32_t next_buffer_id_ = 0;

  // PacketIn rate limiting (controller protection).
  std::optional<util::TokenBucket> packet_in_bucket_;
  std::uint64_t packet_in_suppressed_ = 0;
  std::uint64_t flow_evictions_ = 0;

  // Vacancy-event state: true while a table sits below its down threshold
  // (the event fired and no VacancyUp has cleared it yet).
  std::vector<bool> vacancy_down_;
  std::vector<openflow::TableStatus> pending_table_status_;
  // Per-dpid occupancy gauge (table 0; null until first registered).
  obs::Gauge* occupancy_gauge_ = nullptr;

  // NORMAL-action state: a self-learned L2 FIB (src MAC -> ingress port)
  // plus a window of recently flooded frame hashes so a fabric of
  // standalone switches with physical loops cannot broadcast-storm.
  std::unordered_map<std::uint64_t, std::uint32_t> normal_fib_;
  std::unordered_map<std::uint64_t, double> flood_recent_;
  std::uint64_t storm_suppressed_ = 0;

  // Telemetry hook (not owned; may be null).
  telemetry::SwitchTelemetry* telemetry_ = nullptr;

  // Controller-connection roles.
  std::map<std::uint64_t, openflow::ControllerRole> roles_;
  std::uint64_t last_generation_ = 0;
  bool generation_seen_ = false;
};

}  // namespace zen::dataplane
