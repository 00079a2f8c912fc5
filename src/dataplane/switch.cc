#include "dataplane/switch.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "net/telemetry.h"
#include "obs/obs.h"
#include "telemetry/switch_telemetry.h"
#include "util/logging.h"
#include "util/strings.h"

namespace zen::dataplane {

namespace {
constexpr int kMaxActionDepth = 4;  // bounds group recursion

struct SwitchMetrics {
  obs::Counter& packets;
  obs::Counter& packet_ins;
  obs::Counter& packet_ins_suppressed;
  obs::Counter& flow_evictions;
  obs::Counter& table_status_events;
  obs::Histo& lookup_ns;
  static SwitchMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static SwitchMetrics m{
        reg.counter("zen_dataplane_packets_total", "",
                    "Frames entering switch ingress pipelines"),
        reg.counter("zen_dataplane_packet_ins_total", "",
                    "PacketIn punts emitted to the controller"),
        reg.counter("zen_dataplane_packet_ins_suppressed_total", "",
                    "PacketIns dropped by the switch rate limiter"),
        reg.counter("zen_dataplane_flow_evictions_total", "",
                    "Flow entries evicted from bounded tables to make room"),
        reg.counter("zen_dataplane_table_status_events_total", "",
                    "Vacancy threshold crossings announced via TableStatus"),
        reg.histo("zen_dataplane_lookup_latency_ns", "",
                  "Wall-clock cost of a slow-path pipeline traversal")};
    return m;
  }
};

// FNV-1a over a frame, used to recognize recently flooded frames.
std::uint64_t frame_hash(std::span<const std::uint8_t> frame) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : frame) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

// NORMAL-action flood dedup: a frame this switch flooded within the window
// is a loop echo, not a retransmission (fabric round trips are sub-ms;
// host-level retries are far apart).
constexpr double kFloodDedupWindowS = 0.05;
constexpr std::size_t kFloodTableMax = 4096;

// Field-level diff between two flow keys, for rewrite explain steps.
std::string flow_key_diff(const net::FlowKey& a, const net::FlowKey& b) {
  std::string out;
  const auto add = [&](const std::string& piece) {
    if (!out.empty()) out += ", ";
    out += piece;
  };
  if (a.eth_src != b.eth_src)
    add(util::format("eth_src %012llx->%012llx",
                     static_cast<unsigned long long>(a.eth_src),
                     static_cast<unsigned long long>(b.eth_src)));
  if (a.eth_dst != b.eth_dst)
    add(util::format("eth_dst %012llx->%012llx",
                     static_cast<unsigned long long>(a.eth_dst),
                     static_cast<unsigned long long>(b.eth_dst)));
  if (a.vlan_vid != b.vlan_vid)
    add(util::format("vlan %u->%u", a.vlan_vid, b.vlan_vid));
  if (a.ipv4_src != b.ipv4_src)
    add(util::format("ipv4_src %s->%s",
                     net::Ipv4Address{a.ipv4_src}.to_string().c_str(),
                     net::Ipv4Address{b.ipv4_src}.to_string().c_str()));
  if (a.ipv4_dst != b.ipv4_dst)
    add(util::format("ipv4_dst %s->%s",
                     net::Ipv4Address{a.ipv4_dst}.to_string().c_str(),
                     net::Ipv4Address{b.ipv4_dst}.to_string().c_str()));
  if (a.ip_dscp != b.ip_dscp)
    add(util::format("dscp %u->%u", a.ip_dscp, b.ip_dscp));
  if (a.l4_src != b.l4_src)
    add(util::format("l4_src %u->%u", a.l4_src, b.l4_src));
  if (a.l4_dst != b.l4_dst)
    add(util::format("l4_dst %u->%u", a.l4_dst, b.l4_dst));
  return out;
}

// ShardStats slot layout for a Switch's per-instance hot-path counters.
constexpr std::size_t kSlotPackets = 0;
constexpr std::size_t kSlotCacheHits = 1;
constexpr std::size_t kSlotCacheMisses = 2;
constexpr std::size_t kSlotCacheEvictions = 3;

// PacketIn buffer ring (FeaturesReply n_buffers).
constexpr std::size_t kPacketBufferSlots = 256;
// miss_send_len: bytes of the frame a table miss with no table-miss entry
// punts (a rule's CONTROLLER output carries its own max_len).
constexpr std::uint16_t kMissSendLen = 128;

// The one FlowRemoved builder, for eviction, delete and expiry alike:
// appends the event when the entry asked for one.
void report_removed(std::vector<openflow::FlowRemoved>* out,
                    const FlowEntry& entry, std::uint8_t table_id,
                    openflow::FlowRemovedReason reason) {
  if (!out || (entry.flags & openflow::kFlagSendFlowRemoved) == 0) return;
  openflow::FlowRemoved& fr = out->emplace_back();
  fr.cookie = entry.cookie;
  fr.priority = entry.priority;
  fr.reason = reason;
  fr.table_id = table_id;
  fr.packet_count = entry.packet_count;
  fr.byte_count = entry.byte_count;
  fr.match = entry.match;
}
}

Switch::Switch(std::uint64_t datapath_id, SwitchConfig config)
    : dpid_(datapath_id),
      config_(config),
      cache_(config.cache_capacity, config.cache_enabled),
      buffered_(kPacketBufferSlots) {
  if (config_.n_tables == 0) config_.n_tables = 1;
  if (config_.packet_in_rate_pps > 0) {
    // Burst of ~100 ms worth of punts, at least 1.
    packet_in_bucket_.emplace(config_.packet_in_rate_pps,
                              std::max(1.0, config_.packet_in_rate_pps / 10));
  }
  tables_.reserve(config_.n_tables);
  for (std::uint8_t i = 0; i < config_.n_tables; ++i) {
    tables_.emplace_back();
    tables_.back().set_capacity(config_.table_capacity, config_.eviction);
  }
  if (config_.concurrent_lookup)
    cache_.enable_concurrent(config_.cache_ways);
  vacancy_down_.assign(config_.n_tables, false);
  shard_ = std::make_unique<obs::ShardStats>();
  shard_->bind(kSlotPackets, SwitchMetrics::get().packets);
  {
    auto& reg = obs::MetricsRegistry::global();
    shard_->bind(kSlotCacheHits,
                 reg.counter("zen_dataplane_megaflow_hits_total", "",
                             "Megaflow cache hits (fast-path forwards)"));
    shard_->bind(kSlotCacheMisses,
                 reg.counter("zen_dataplane_megaflow_misses_total", "",
                             "Megaflow cache misses (full pipeline traversals)"));
    shard_->bind(kSlotCacheEvictions,
                 reg.counter("zen_dataplane_megaflow_evictions_total", "",
                             "Megaflow entries evicted at capacity"));
  }
  cache_.bind_shard(shard_.get(), kSlotCacheHits, kSlotCacheMisses,
                    kSlotCacheEvictions);
  occupancy_gauge_ = &obs::MetricsRegistry::global().gauge(
      "zen_dataplane_table_occupancy",
      "dpid=\"" + std::to_string(dpid_) + "\"",
      "Flow entries installed in table 0, per switch");
}

void Switch::update_occupancy_gauge() {
  occupancy_gauge_->set(static_cast<double>(tables_[0].size()));
}

void Switch::check_vacancy(std::uint8_t table_id) {
  const std::size_t capacity = config_.table_capacity;
  if (capacity == 0 ||
      (config_.vacancy_down_pct == 0 && config_.vacancy_up_pct == 0))
    return;
  const std::size_t used = tables_[table_id].size();
  const std::size_t free = capacity > used ? capacity - used : 0;
  const double free_pct = 100.0 * static_cast<double>(free) /
                          static_cast<double>(capacity);

  const bool was_down = vacancy_down_[table_id];
  std::optional<openflow::VacancyReason> fired;
  if (!was_down && free_pct <= config_.vacancy_down_pct) {
    vacancy_down_[table_id] = true;
    fired = openflow::VacancyReason::VacancyDown;
  } else if (was_down && free_pct >= config_.vacancy_up_pct) {
    vacancy_down_[table_id] = false;
    fired = openflow::VacancyReason::VacancyUp;
  }
  if (!fired) return;

  openflow::TableStatus status;
  status.table_id = table_id;
  status.reason = *fired;
  status.active_count = static_cast<std::uint32_t>(used);
  status.max_entries = static_cast<std::uint32_t>(capacity);
  status.vacancy_down_pct = config_.vacancy_down_pct;
  status.vacancy_up_pct = config_.vacancy_up_pct;
  pending_table_status_.push_back(status);
  SwitchMetrics::get().table_status_events.inc();
  obs::FlightRecorder::global().record(
      obs::FlightEventKind::kVacancyChange, dpid_,
      *fired == openflow::VacancyReason::VacancyDown ? 1 : 0);
  ZEN_LOG(Info) << "switch " << dpid_ << ": table " << int(table_id) << " "
                << openflow::to_string(*fired) << " (" << used << "/"
                << capacity << ")";
}

std::vector<openflow::TableStatus> Switch::take_table_status() {
  return std::exchange(pending_table_status_, {});
}

void Switch::add_port(const openflow::PortDesc& desc) {
  PortState state;
  state.desc = desc;
  state.stats.port_no = desc.port_no;
  ports_[desc.port_no] = std::move(state);
}

std::optional<openflow::PortStatus> Switch::set_port_link(std::uint32_t port_no,
                                                          bool up) {
  const auto it = ports_.find(port_no);
  if (it == ports_.end() || it->second.desc.link_up == up) return std::nullopt;
  it->second.desc.link_up = up;
  // Port state changes do not alter rules, but flood sets change; a version
  // bump keeps cached flood verdicts from using a dead port.
  ++version_;
  openflow::PortStatus status;
  status.reason = openflow::PortReason::Modify;
  status.desc = it->second.desc;
  return status;
}

const openflow::PortDesc* Switch::port(std::uint32_t port_no) const noexcept {
  const auto it = ports_.find(port_no);
  return it == ports_.end() ? nullptr : &it->second.desc;
}

std::vector<openflow::PortDesc> Switch::ports() const {
  std::vector<openflow::PortDesc> out;
  out.reserve(ports_.size());
  for (const auto& [no, state] : ports_) out.push_back(state.desc);
  return out;
}

bool Switch::credit_and_meter(PipelineContext& ctx, FlowEntry& entry,
                              std::uint8_t table_id) {
  const std::size_t bytes = ctx.pkt->wire_size();
  if (!ctx.dry_run) {
    entry.packet_count++;
    entry.byte_count += bytes;
    entry.last_used_at = ctx.now;
  }
  // A missing meter passes, so with none installed there is nothing to
  // charge; skipping the scan keeps a hit off the entry's instruction
  // memory. Explain still narrates each MeterInstruction.
  if (meters_.size() == 0 && !ctx.probe.active()) return true;
  for (const auto& ins : entry.instructions) {
    const auto* meter = std::get_if<openflow::MeterInstruction>(&ins);
    if (!meter) continue;
    const bool allowed =
        ctx.dry_run ? meters_.would_allow(meter->meter_id, bytes, ctx.now)
                    : meters_.allow(meter->meter_id, bytes, ctx.now);
    if (ctx.probe.active()) {
      ExplainStep s;
      s.kind = ExplainStepKind::kMeter;
      s.table_id = table_id;
      s.meter_id = meter->meter_id;
      s.allowed = allowed;
      const double rate = meters_.rate_bytes_per_s(meter->meter_id);
      if (rate > 0)
        s.detail = util::format("band rate %.0f bytes/s", rate);
      else
        s.detail = "no such meter (pass)";
      ctx.probe.add(std::move(s));
    }
    if (!allowed) return false;
  }
  return true;
}

void Switch::transmit(PipelineContext& ctx, std::uint32_t port_no,
                      std::uint32_t queue_id) {
  const auto it = ports_.find(port_no);
  const char* lost = nullptr;
  if (it == ports_.end()) {
    lost = "no such port (frame discarded)";
  } else if (!it->second.desc.link_up) {
    if (!ctx.dry_run) ++it->second.stats.tx_dropped;
    lost = "link down (tx_dropped)";
  } else {
    if (!ctx.dry_run) {
      ++it->second.stats.tx_packets;
      it->second.stats.tx_bytes += ctx.pkt->wire_size();
    }
    ctx.result->outputs.push_back(
        Egress{port_no, queue_id, ctx.pkt->serialize()});
  }
  if (ctx.probe.active()) {
    ExplainStep s;
    s.kind = ExplainStepKind::kOutput;
    s.port = port_no;
    s.queue_id = queue_id;
    if (lost) s.detail = lost;
    ctx.probe.add(std::move(s));
  }
}

void Switch::punt(PipelineContext& ctx, const CachedVerdict& verdict) {
  // A dry run reports the punt without admission, counters or buffering.
  if (!ctx.dry_run) {
    if (packet_in_bucket_ && !packet_in_bucket_->try_consume(1.0, ctx.now)) {
      ++packet_in_suppressed_;
      SwitchMetrics::get().packet_ins_suppressed.inc();
      return;
    }
    SwitchMetrics::get().packet_ins.inc();
    ZEN_TRACE_INSTANT("packet_in", "dataplane");
  }
  net::Bytes frame = ctx.pkt->serialize();
  openflow::PacketIn& pin = ctx.result->packet_in.emplace();
  pin.reason = verdict.miss ? openflow::PacketInReason::NoMatch
                            : openflow::PacketInReason::Action;
  pin.table_id = verdict.controller_table;
  pin.cookie = verdict.controller_cookie;
  pin.in_port = ctx.in_port;
  pin.total_len = static_cast<std::uint16_t>(frame.size());
  const std::size_t n =
      std::min<std::size_t>(verdict.controller_max_len, frame.size());
  pin.data.assign(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(n));
  if (ctx.dry_run) {
    pin.buffer_id = openflow::kNoBuffer;
  } else {
    pin.buffer_id = next_buffer_id_;
    buffered_[next_buffer_id_ % buffered_.size()] = std::move(frame);
    next_buffer_id_ = (next_buffer_id_ + 1) % 0x7fffffff;
  }
  if (ctx.probe.active()) {
    ExplainStep s;
    s.kind = ExplainStepKind::kPacketIn;
    s.table_id = verdict.controller_table;
    s.detail = verdict.miss ? "reason=no_match" : "reason=action";
    if (packet_in_bucket_ && packet_in_bucket_->peek_available(ctx.now) < 1.0)
      s.detail += " (would be rate-limited right now)";
    ctx.probe.add(std::move(s));
  }
}

void Switch::emit_to_port(PipelineContext& ctx, std::uint32_t port_no) {
  ctx.verdict.out_ports.push_back({port_no, ctx.queue_id});
  transmit(ctx, port_no, ctx.queue_id);
}

void Switch::flood(PipelineContext& ctx, bool include_in_port) {
  for (const auto& [no, state] : ports_) {
    if ((include_in_port || no != ctx.in_port) && state.desc.link_up)
      emit_to_port(ctx, no);
  }
}

void Switch::execute_normal(PipelineContext& ctx) {
  // NORMAL: behave as a self-learning L2 switch — the standalone fail-mode
  // data path. Learned state lives outside the flow tables, and the
  // verdict is time-dependent (learning, dedup), so never cache it.
  ctx.verdict.cacheable = false;
  const net::FlowKey key = ctx.pkt->flow_key(ctx.in_port);
  if (!ctx.dry_run) normal_fib_[key.eth_src] = ctx.in_port;

  if (const auto it = normal_fib_.find(key.eth_dst);
      it != normal_fib_.end() && it->second != ctx.in_port) {
    emit_to_port(ctx, it->second);
    return;
  }

  // Unknown/broadcast destination: flood — but drop frames this switch
  // already flooded inside the dedup window. A looped fabric of standalone
  // switches would otherwise amplify every broadcast forever. Dry-run
  // reports the flood set without dedup-window writes (the dedup verdict
  // is time-dependent, so the trace shows the steady-state flood behavior
  // instead).
  if (!ctx.dry_run) {
    const std::uint64_t h = frame_hash(ctx.pkt->serialize());
    const auto [it, inserted] = flood_recent_.try_emplace(h, ctx.now);
    if (!inserted) {
      if (ctx.now - it->second < kFloodDedupWindowS) {
        ++storm_suppressed_;
        return;
      }
      it->second = ctx.now;
    }
    if (flood_recent_.size() > kFloodTableMax) {
      std::erase_if(flood_recent_, [&](const auto& kv) {
        return ctx.now - kv.second >= kFloodDedupWindowS;
      });
    }
  }
  flood(ctx, /*include_in_port=*/false);
}

void Switch::execute_output(PipelineContext& ctx, std::uint32_t port,
                            std::uint16_t max_len, std::uint8_t table_id,
                            std::uint64_t cookie, bool is_miss) {
  using openflow::Ports;
  switch (port) {
    case Ports::kController:
      // One punt per packet, admitted or suppressed once. A hit replays
      // the admission too, so a suppressed punt's verdict is cacheable.
      if (ctx.verdict.to_controller) break;
      ctx.verdict.to_controller = true;
      ctx.verdict.controller_table = table_id;
      ctx.verdict.controller_cookie = cookie;
      ctx.verdict.controller_max_len = max_len;
      ctx.verdict.miss = is_miss;
      punt(ctx, ctx.verdict);
      break;
    case Ports::kFlood:
      flood(ctx, /*include_in_port=*/false);
      break;
    case Ports::kAll:
      flood(ctx, /*include_in_port=*/true);
      break;
    case Ports::kInPort:
      emit_to_port(ctx, ctx.in_port);
      break;
    case Ports::kNormal:
      execute_normal(ctx);
      break;
    case Ports::kTable:
      // Only meaningful from PacketOut; handled there. Ignore here.
      break;
    default:
      emit_to_port(ctx, port);
      break;
  }
}

void Switch::execute_action_list(PipelineContext& ctx,
                                 const openflow::ActionList& actions,
                                 int depth) {
  if (depth > kMaxActionDepth) return;
  for (const auto& action : actions) {
    if (ctx.dropped) return;
    if (const auto* out = std::get_if<openflow::OutputAction>(&action)) {
      execute_output(ctx, out->port, out->max_len, 0, 0, false);
    } else if (const auto* grp = std::get_if<openflow::GroupAction>(&action)) {
      const Group* group = groups_.find(grp->group_id);
      if (!group) {
        if (ctx.probe.active()) {
          ExplainStep s;
          s.kind = ExplainStepKind::kGroup;
          s.group_id = grp->group_id;
          s.detail = "group not found (action ignored)";
          ctx.probe.add(std::move(s));
        }
        continue;
      }
      if (group->type == openflow::GroupType::All) {
        if (ctx.probe.active()) {
          ExplainStep s;
          s.kind = ExplainStepKind::kGroup;
          s.group_id = grp->group_id;
          s.detail = util::format("type=all (%zu buckets replicated)",
                                  group->buckets.size());
          ctx.probe.add(std::move(s));
        }
        for (const auto& bucket : group->buckets)
          execute_action_list(ctx, bucket.actions, depth + 1);
      } else {
        const auto key = ctx.pkt->flow_key(ctx.in_port);
        const GroupTable::PortLiveFn port_live = [this](std::uint32_t port) {
          const auto it = ports_.find(port);
          return it != ports_.end() && it->second.desc.link_up;
        };
        GroupTable::SelectExplain sel;
        const auto* bucket =
            groups_.select_bucket(*group, key, port_live,
                                  ctx.probe.active() ? &sel : nullptr);
        if (ctx.probe.active()) {
          ExplainStep s;
          s.kind = ExplainStepKind::kGroup;
          s.group_id = grp->group_id;
          s.bucket = sel.bucket_index;
          s.hash_point = sel.hash_point;
          s.total_weight = sel.total_weight;
          switch (group->type) {
            case openflow::GroupType::Select:
              s.detail = "type=select (hash inputs: flow key)";
              break;
            case openflow::GroupType::FastFailover:
              s.detail = util::format("type=fast_failover (%d dead skipped)",
                                      sel.dead_skipped);
              break;
            default:
              s.detail = "type=indirect";
              break;
          }
          if (!bucket) s.detail += "; no live bucket (drop)";
          ctx.probe.add(std::move(s));
        }
        // Select-group choice is key-deterministic, so cacheable.
        // FastFailover verdicts depend on port liveness; the version bump
        // in set_port_link already invalidates cached verdicts on change.
        if (bucket) execute_action_list(ctx, bucket->actions, depth + 1);
      }
    } else if (const auto* sq = std::get_if<openflow::SetQueueAction>(&action)) {
      // Applies to every subsequent output of this packet; the simulator's
      // link model maps queue >= 1 to the strict-priority class.
      ctx.queue_id = sq->queue_id;
      if (ctx.probe.active()) {
        ExplainStep s;
        s.kind = ExplainStepKind::kRewrite;
        s.detail = util::format("set_queue %u (applies to later outputs)",
                                sq->queue_id);
        ctx.probe.add(std::move(s));
      }
    } else {
      const net::FlowKey before =
          ctx.probe.active() ? ctx.pkt->flow_key(ctx.in_port) : net::FlowKey{};
      if (!ctx.pkt->apply(action)) {
        ctx.dropped = true;
        ctx.result->dropped = true;
        ctx.verdict.cacheable = false;
        if (ctx.probe.active()) {
          ExplainStep s;
          s.kind = ExplainStepKind::kDrop;
          s.detail = "action " + openflow::to_string(action) +
                     " cannot apply to this packet";
          ctx.probe.add(std::move(s));
        }
        return;
      }
      // A hit replays the frame as it arrived, so a rewritten packet's
      // verdict is never cached.
      ctx.verdict.cacheable = false;
      if (ctx.probe.active()) {
        ExplainStep s;
        s.kind = ExplainStepKind::kRewrite;
        s.detail = openflow::to_string(action);
        const std::string diff =
            flow_key_diff(before, ctx.pkt->flow_key(ctx.in_port));
        if (!diff.empty()) s.detail += " [" + diff + "]";
        ctx.probe.add(std::move(s));
      }
    }
  }
}

void Switch::run_pipeline(PipelineContext& ctx) {
  openflow::ActionList action_set;  // write-actions accumulate here

  std::uint8_t table_id = 0;
  for (;;) {
    if (table_id >= tables_.size()) break;
    FlowTable& table = tables_[table_id];
    const net::FlowKey key = ctx.pkt->flow_key(ctx.in_port);
    // Dry-run probes the same search core without perturbing the
    // per-table lookup/match counters.
    FlowTable::LookupExplain lookup_explain;
    FlowEntryPtr entry =
        ctx.dry_run ? table.find_best(key, ctx.probe.active()
                                               ? &lookup_explain
                                               : nullptr)
                    : table.lookup(key);
    if (ctx.probe.active()) {
      ExplainStep s;
      s.kind = entry ? ExplainStepKind::kTableMatch
                     : ExplainStepKind::kTableMiss;
      s.table_id = table_id;
      for (const auto& m : lookup_explain.masks)
        s.masks.push_back({m.fields, m.max_priority, m.hit, m.pruned});
      if (entry) {
        s.priority = entry->priority;
        s.cookie = entry->cookie;
        s.importance = entry->importance;
        s.detail = "match={" + entry->match.to_string() + "} instructions=" +
                   openflow::to_string(entry->instructions);
      }
      ctx.probe.add(std::move(s));
    }

    if (!entry) {
      if (table_id == 0 && config_.default_miss == MissBehavior::PacketIn) {
        execute_output(ctx, openflow::Ports::kController, kMissSendLen,
                       table_id, 0, /*is_miss=*/true);
      } else {
        ctx.result->dropped = ctx.result->outputs.empty() && !ctx.result->packet_in;
      }
      break;
    }

    // Credit the entry and charge its meters ahead of its other
    // instructions (the OpenFlow 1.3 order): the walk a hit replays over
    // verdict.credited. The replay runs every meter before any output, so
    // a meter behind an earlier table's output or punt is not cached.
    if (!ctx.dry_run) ctx.verdict.credited.push_back(entry);
    const auto is_meter = [](const openflow::Instruction& ins) {
      return std::holds_alternative<openflow::MeterInstruction>(ins);
    };
    if ((!ctx.verdict.out_ports.empty() || ctx.verdict.to_controller) &&
        std::any_of(entry->instructions.begin(), entry->instructions.end(),
                    is_meter))
      ctx.verdict.cacheable = false;
    if (!credit_and_meter(ctx, *entry, table_id)) {
      ctx.dropped = true;
      ctx.result->dropped = true;
      return;
    }

    const bool is_miss_entry =
        entry->priority == 0 && entry->match.field_count() == 0;

    std::optional<std::uint8_t> goto_table;
    for (const auto& ins : entry->instructions) {
      if (ctx.dropped) break;
      if (const auto* apply = std::get_if<openflow::ApplyActions>(&ins)) {
        // Table-miss entries that punt to the controller use reason NoMatch.
        if (is_miss_entry && apply->actions.size() == 1) {
          if (const auto* out =
                  std::get_if<openflow::OutputAction>(&apply->actions[0]);
              out && out->port == openflow::Ports::kController) {
            execute_output(ctx, out->port, out->max_len, table_id,
                           entry->cookie, /*is_miss=*/true);
            continue;
          }
        }
        execute_action_list(ctx, apply->actions, 0);
      } else if (const auto* write = std::get_if<openflow::WriteActions>(&ins)) {
        // Merge: later writes of the same action type replace earlier ones.
        for (const auto& a : write->actions) {
          const auto same_kind = [&](const openflow::Action& b) {
            return a.index() == b.index();
          };
          const auto it =
              std::find_if(action_set.begin(), action_set.end(), same_kind);
          if (it != action_set.end()) *it = a;
          else action_set.push_back(a);
        }
      } else if (std::get_if<openflow::ClearActions>(&ins)) {
        action_set.clear();
      } else if (const auto* go = std::get_if<openflow::GotoTable>(&ins)) {
        goto_table = go->table_id;
      }
    }

    if (ctx.dropped) return;
    if (!goto_table || *goto_table <= table_id) break;  // goto must increase
    table_id = *goto_table;
  }

  // Pipeline end: execute the accumulated action set (outputs last).
  if (!ctx.dropped && !action_set.empty()) {
    // Order: rewrites first, then group, then outputs (OF 1.3 ordering).
    openflow::ActionList ordered;
    for (const auto& a : action_set)
      if (!std::get_if<openflow::OutputAction>(&a) &&
          !std::get_if<openflow::GroupAction>(&a))
        ordered.push_back(a);
    for (const auto& a : action_set)
      if (std::get_if<openflow::GroupAction>(&a)) ordered.push_back(a);
    for (const auto& a : action_set)
      if (std::get_if<openflow::OutputAction>(&a)) ordered.push_back(a);
    execute_action_list(ctx, ordered, 0);
  }

  if (ctx.result->outputs.empty() && !ctx.result->packet_in)
    ctx.result->dropped = true;
}

ForwardResult Switch::ingress(double now, std::uint32_t in_port,
                              std::span<const std::uint8_t> frame) {
  ForwardResult result;
  result.in_port = in_port;
  shard_->bump(kSlotPackets);

  const auto port_it = ports_.find(in_port);
  if (port_it == ports_.end() || !port_it->second.desc.link_up) {
    result.dropped = true;
    return result;
  }
  ++port_it->second.stats.rx_packets;
  port_it->second.stats.rx_bytes += frame.size();

  MutablePacket pkt(frame);
  if (!pkt.ok()) {
    ++port_it->second.stats.rx_dropped;
    result.dropped = true;
    return result;
  }

  const net::FlowKey key = pkt.flow_key(in_port);

  // Telemetry sampling decision — taken here, after the key is computed and
  // before the cache branch, so it covers fast and slow paths alike. When
  // the flow is sampled, every forwarded copy gets a telemetry trailer for
  // the sim fabric to stamp hop records into.
  const bool telemetry_stamp =
      telemetry_ != nullptr &&
      telemetry_->on_packet(static_cast<std::uint64_t>(now * 1e9), in_port,
                            key, frame.size());

  // Fast path: megaflow cache. Concurrent mode pins an epoch guard so the
  // verdict pointer stays valid even if a racing version bump retires the
  // table it lives in; classic mode takes the plain map probe.
  std::optional<util::EpochReclaimer::Guard> epoch_guard;
  const CachedVerdict* cached = nullptr;
  if (cache_.concurrent()) {
    epoch_guard.emplace(util::EpochReclaimer::global());
    cached = cache_.find(key, version_, *epoch_guard);
  } else {
    cached = cache_.find(key, version_);
  }

  PipelineContext ctx;
  ctx.now = now;
  ctx.in_port = in_port;
  ctx.pkt = &pkt;
  ctx.result = &result;
  if (cached) {
    // A hit replays the verdict through the pipeline's outcome code. A
    // meter drop stops the walk before any output, as in the pipeline.
    if (std::all_of(cached->credited.begin(), cached->credited.end(),
                    [&](const FlowEntryPtr& entry) {
                      return credit_and_meter(ctx, *entry);
                    })) {
      for (const auto& [out_port, queue_id] : cached->out_ports)
        transmit(ctx, out_port, queue_id);
      if (cached->to_controller) punt(ctx, *cached);
    }
  } else {
    // Slow path: full pipeline.
    {
      obs::ScopedTimerNs timer(SwitchMetrics::get().lookup_ns);
      ZEN_TRACE_SCOPE("pipeline", "dataplane");
      run_pipeline(ctx);
    }
    if (!ctx.dropped) cache_.insert(key, std::move(ctx.verdict), version_);
  }

  // Hit or miss: a frame that produced nothing is an rx drop, and every
  // copy of a sampled flow carries the telemetry trailer.
  if (result.outputs.empty() && !result.packet_in) {
    result.dropped = true;
    ++port_it->second.stats.rx_dropped;
  }
  if (telemetry_stamp)
    for (Egress& egress : result.outputs)
      net::append_telemetry_trailer(egress.frame);
  return result;
}

ForwardResult Switch::explain(double now, std::uint32_t in_port,
                              std::span<const std::uint8_t> frame,
                              ExplainTrace* trace) {
  ForwardResult result;
  result.in_port = in_port;
  if (trace) {
    trace->dpid = dpid_;
    trace->in_port = in_port;
  }

  PipelineContext ctx;
  ctx.now = now;
  ctx.in_port = in_port;
  ctx.result = &result;
  ctx.dry_run = true;
  ctx.probe.attach(trace);

  const auto port_it = ports_.find(in_port);
  if (port_it == ports_.end() || !port_it->second.desc.link_up) {
    result.dropped = true;
    if (ctx.probe.active()) {
      ExplainStep s;
      s.kind = ExplainStepKind::kDrop;
      s.detail = port_it == ports_.end() ? "ingress port does not exist"
                                         : "ingress port link down";
      ctx.probe.add(std::move(s));
    }
    return result;
  }

  MutablePacket pkt(frame);
  if (!pkt.ok()) {
    result.dropped = true;
    if (ctx.probe.active()) {
      ExplainStep s;
      s.kind = ExplainStepKind::kDrop;
      s.detail = "unparseable frame";
      ctx.probe.add(std::move(s));
    }
    return result;
  }
  ctx.pkt = &pkt;

  // Read-only cache probe for the narrative; the verdict below always
  // comes from a full (dry-run) pipeline walk so the trace explains the
  // classifier decisions even for flows the fast path would shortcut.
  const net::FlowKey key = pkt.flow_key(in_port);
  const std::size_t megaflow_step = trace ? trace->steps.size() : 0;
  if (ctx.probe.active()) {
    ExplainStep s;
    s.kind = ExplainStepKind::kMegaflow;
    s.cache_hit = cache_.peek(key, version_) != nullptr;
    s.detail = !cache_.enabled()
                   ? "cache disabled"
                   : (s.cache_hit ? "fast path would forward from cache"
                                  : "slow path runs the full pipeline");
    ctx.probe.add(std::move(s));
  }

  run_pipeline(ctx);

  if (trace && megaflow_step < trace->steps.size() &&
      trace->steps[megaflow_step].kind == ExplainStepKind::kMegaflow &&
      !trace->steps[megaflow_step].cache_hit && cache_.enabled()) {
    // The cache is exact-match: the "megaflow mask" a miss would install is
    // the full flow key, and only cacheable verdicts are inserted.
    trace->steps[megaflow_step].detail +=
        ctx.verdict.cacheable && !ctx.dropped
            ? "; miss would install an exact-match (full flow key) verdict"
            : "; verdict not cacheable (no megaflow would be installed)";
  }

  if (result.dropped && result.outputs.empty() && !result.packet_in &&
      ctx.probe.active()) {
    if (trace->steps.empty() ||
        trace->steps.back().kind != ExplainStepKind::kDrop) {
      ExplainStep s;
      s.kind = ExplainStepKind::kDrop;
      s.detail = "pipeline produced no output";
      ctx.probe.add(std::move(s));
    }
  }
  return result;
}

ForwardResult Switch::packet_out(double now, const openflow::PacketOut& msg) {
  ForwardResult result;

  net::Bytes frame;
  if (msg.buffer_id != openflow::kNoBuffer) {
    frame = buffered_[msg.buffer_id % buffered_.size()];
  } else {
    frame = msg.data;
  }
  if (frame.empty()) {
    result.dropped = true;
    return result;
  }

  MutablePacket pkt(frame);
  if (!pkt.ok()) {
    result.dropped = true;
    return result;
  }

  PipelineContext ctx;
  ctx.now = now;
  ctx.in_port = msg.in_port;
  ctx.pkt = &pkt;
  ctx.result = &result;
  ctx.verdict.cacheable = false;  // packet-outs are one-shot

  for (const auto& action : msg.actions) {
    if (const auto* out = std::get_if<openflow::OutputAction>(&action);
        out && out->port == openflow::Ports::kTable) {
      run_pipeline(ctx);
    } else {
      execute_action_list(ctx, {action}, 0);
    }
    if (ctx.dropped) break;
  }
  if (result.outputs.empty() && !result.packet_in) result.dropped = true;
  return result;
}

ModStatus Switch::flow_mod(const openflow::FlowMod& mod, double now,
                           std::vector<openflow::FlowRemoved>* removed) {
  using openflow::FlowModCommand;

  if (mod.table_id >= tables_.size() &&
      !(mod.table_id == openflow::kTableAll &&
        (mod.command == FlowModCommand::Delete ||
         mod.command == FlowModCommand::DeleteStrict))) {
    return {false, openflow::ErrorType::FlowModFailed,
            openflow::flow_mod_failed_code::kBadTableId};
  }
  ++version_;

  switch (mod.command) {
    case FlowModCommand::Add: {
      FlowTable& table = tables_[mod.table_id];
      // Capacity gates true inserts only: an Add that replaces an existing
      // (match, priority) entry swaps in place and needs no free slot.
      if (table.full() && !table.contains(mod.match, mod.priority)) {
        FlowEntryPtr victim = table.evict(mod.importance);
        if (!victim) {
          return {false, openflow::ErrorType::FlowModFailed,
                  openflow::flow_mod_failed_code::kTableFull};
        }
        ++flow_evictions_;
        SwitchMetrics::get().flow_evictions.inc();
        ZEN_TRACE_INSTANT("flow_evicted", "dataplane");
        obs::FlightRecorder::global().record(obs::FlightEventKind::kFlowEvicted,
                                             dpid_, mod.table_id);
        report_removed(removed, *victim, mod.table_id,
                       openflow::FlowRemovedReason::Eviction);
      }
      FlowEntry entry;
      entry.match = mod.match;
      entry.priority = mod.priority;
      entry.instructions = mod.instructions;
      entry.cookie = mod.cookie;
      entry.idle_timeout = mod.idle_timeout;
      entry.hard_timeout = mod.hard_timeout;
      entry.flags = mod.flags;
      entry.importance = mod.importance;
      table.add(std::move(entry), now);
      check_vacancy(mod.table_id);
      update_occupancy_gauge();
      return {};
    }
    case FlowModCommand::Modify:
    case FlowModCommand::ModifyStrict: {
      tables_[mod.table_id].modify(mod.match, mod.priority, mod.instructions,
                                   mod.command == FlowModCommand::ModifyStrict);
      return {};
    }
    case FlowModCommand::Delete:
    case FlowModCommand::DeleteStrict: {
      const bool strict = mod.command == FlowModCommand::DeleteStrict;
      const bool all = mod.table_id == openflow::kTableAll;
      const std::size_t first = all ? 0 : mod.table_id;
      const std::size_t last = all ? tables_.size() : first + 1;
      for (std::size_t i = first; i < last; ++i) {
        const auto id = static_cast<std::uint8_t>(i);
        for (const auto& victim : tables_[i].remove(mod.match, mod.priority,
                                                    strict, mod.out_port))
          report_removed(removed, *victim, id,
                         openflow::FlowRemovedReason::Delete);
        check_vacancy(id);
      }
      update_occupancy_gauge();
      return {};
    }
  }
  return {false, openflow::ErrorType::FlowModFailed, 0};
}

ModStatus Switch::group_mod(const openflow::GroupMod& mod) {
  ++version_;
  if (!groups_.apply(mod))
    return {false, openflow::ErrorType::GroupModFailed, 0};
  return {};
}

ModStatus Switch::meter_mod(const openflow::MeterMod& mod) {
  ++version_;
  if (!meters_.apply(mod))
    return {false, openflow::ErrorType::MeterModFailed, 0};
  return {};
}

ModStatus Switch::commit_bundle(std::span<const openflow::Message> members,
                                double now,
                                std::vector<openflow::FlowRemoved>* removed) {
  // Snapshot every piece of state a member can touch. Flow tables need a
  // deep clone (the live tables mutate entries through shared_ptrs);
  // group/meter tables are plain value types. The commit runs
  // synchronously — no packet forwards mid-bundle — so an exact restore
  // is a correct rollback.
  std::vector<FlowTable> tables_snap;
  tables_snap.reserve(tables_.size());
  for (const FlowTable& table : tables_) tables_snap.push_back(table.clone());
  GroupTable groups_snap = groups_;
  MeterTable meters_snap = meters_;
  std::vector<bool> vacancy_snap = vacancy_down_;
  std::vector<openflow::TableStatus> pending_status_snap =
      pending_table_status_;
  const std::uint64_t version_snap = version_;
  const std::uint64_t evictions_snap = flow_evictions_;

  std::vector<openflow::FlowRemoved> staged;
  for (const openflow::Message& member : members) {
    ModStatus status;
    if (const auto* fm = std::get_if<openflow::FlowMod>(&member)) {
      status = flow_mod(*fm, now, &staged);
    } else if (const auto* gm = std::get_if<openflow::GroupMod>(&member)) {
      status = group_mod(*gm);
    } else if (const auto* mm = std::get_if<openflow::MeterMod>(&member)) {
      status = meter_mod(*mm);
    } else {
      status = {false, openflow::ErrorType::BundleFailed,
                openflow::bundle_failed_code::kBadMember};
    }
    if (status.ok) continue;

    // Roll back wholesale. Global eviction *metrics* bumped by rolled-back
    // members stay bumped (cumulative observability, not rule state); the
    // per-switch eviction counter is restored because audits read it as
    // state. The version lands on a value never exposed to the cache, so
    // megaflow entries can never alias across the rollback.
    tables_ = std::move(tables_snap);
    groups_ = std::move(groups_snap);
    meters_ = std::move(meters_snap);
    vacancy_down_ = std::move(vacancy_snap);
    pending_table_status_ = std::move(pending_status_snap);
    flow_evictions_ = evictions_snap;
    version_ = version_snap + 1;
    update_occupancy_gauge();
    obs::FlightRecorder::global().record(obs::FlightEventKind::kBundleRollback,
                                         dpid_, members.size());
    return status;
  }
  if (removed)
    removed->insert(removed->end(), std::make_move_iterator(staged.begin()),
                    std::make_move_iterator(staged.end()));
  return {};
}

std::optional<openflow::ControllerRole> Switch::set_controller_role(
    std::uint64_t conn_id, openflow::ControllerRole role,
    std::uint64_t generation_id) {
  using openflow::ControllerRole;
  if (role == ControllerRole::Master || role == ControllerRole::Slave) {
    // Generation check guards against stale masters re-asserting themselves.
    if (generation_seen_ && generation_id < last_generation_)
      return std::nullopt;
    generation_seen_ = true;
    last_generation_ = generation_id;
  }
  if (role == ControllerRole::Master) {
    for (auto& [other, other_role] : roles_) {
      if (other != conn_id && other_role == ControllerRole::Master)
        other_role = ControllerRole::Slave;
    }
  }
  const bool changed =
      !roles_.contains(conn_id) || roles_[conn_id] != role;
  roles_[conn_id] = role;
  if (changed) {
    char tag[16];
    std::snprintf(tag, sizeof(tag), "conn%llu",
                  static_cast<unsigned long long>(conn_id));
    obs::FlightRecorder::global().record(
        obs::FlightEventKind::kRoleChange, dpid_,
        static_cast<std::uint64_t>(role), tag);
  }
  return role;
}

openflow::ControllerRole Switch::controller_role(std::uint64_t conn_id) const {
  const auto it = roles_.find(conn_id);
  return it == roles_.end() ? openflow::ControllerRole::Equal : it->second;
}

openflow::FeaturesReply Switch::features() const {
  openflow::FeaturesReply reply;
  reply.datapath_id = dpid_;
  reply.n_buffers = static_cast<std::uint32_t>(buffered_.size());
  reply.n_tables = static_cast<std::uint8_t>(tables_.size());
  reply.boot_id = boot_count_;
  reply.ports = ports();
  return reply;
}

openflow::FlowStatsReply Switch::flow_stats(
    const openflow::FlowStatsRequest& req, double now) const {
  openflow::FlowStatsReply reply;
  const auto add_table = [&](std::uint8_t id) {
    for (const auto& entry : tables_[id].entries()) {
      if (!entry->match.subsumed_by(req.match)) continue;
      openflow::FlowStatsEntry e;
      e.table_id = id;
      e.priority = entry->priority;
      e.cookie = entry->cookie;
      e.packet_count = entry->packet_count;
      e.byte_count = entry->byte_count;
      e.duration_sec = static_cast<std::uint32_t>(
          std::max(0.0, now - entry->created_at));
      e.match = entry->match;
      e.instructions = entry->instructions;
      reply.entries.push_back(std::move(e));
    }
  };
  if (req.table_id == openflow::kTableAll) {
    for (std::uint8_t i = 0; i < tables_.size(); ++i) add_table(i);
  } else if (req.table_id < tables_.size()) {
    add_table(req.table_id);
  }
  return reply;
}

openflow::PortStatsReply Switch::port_stats(
    const openflow::PortStatsRequest& req) const {
  openflow::PortStatsReply reply;
  for (const auto& [no, state] : ports_) {
    if (req.port_no != openflow::Ports::kAny && req.port_no != no) continue;
    reply.entries.push_back(state.stats);
  }
  return reply;
}

openflow::TableStatsReply Switch::table_stats() const {
  openflow::TableStatsReply reply;
  for (std::uint8_t i = 0; i < tables_.size(); ++i) {
    openflow::TableStatsEntry e;
    e.table_id = i;
    e.active_count = static_cast<std::uint32_t>(tables_[i].size());
    e.lookup_count = tables_[i].lookup_count();
    e.matched_count = tables_[i].matched_count();
    reply.entries.push_back(e);
  }
  return reply;
}

void Switch::reset() {
  for (auto& table : tables_) table.clear();
  groups_.clear();
  meters_.clear();
  cache_.clear();
  for (auto& slot : buffered_) slot.clear();
  next_buffer_id_ = 0;
  vacancy_down_.assign(tables_.size(), false);
  pending_table_status_.clear();
  normal_fib_.clear();
  flood_recent_.clear();
  update_occupancy_gauge();
  roles_.clear();
  generation_seen_ = false;
  last_generation_ = 0;
  ++version_;
  ++boot_count_;
}

std::vector<openflow::FlowRemoved> Switch::expire_flows(double now) {
  std::vector<openflow::FlowRemoved> events;
  bool any = false;
  for (std::uint8_t i = 0; i < tables_.size(); ++i) {
    for (const auto& victim : tables_[i].expire(now)) {
      any = true;
      report_removed(&events, *victim, i,
                     (victim->hard_timeout > 0 &&
                      now - victim->created_at >= victim->hard_timeout)
                         ? openflow::FlowRemovedReason::HardTimeout
                         : openflow::FlowRemovedReason::IdleTimeout);
    }
  }
  if (any) {
    ++version_;
    for (std::uint8_t i = 0; i < tables_.size(); ++i) check_vacancy(i);
    update_occupancy_gauge();
  }
  return events;
}

}  // namespace zen::dataplane
