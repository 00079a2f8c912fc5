// Southbound protocol messages.
//
// Each message is a value struct with encode_body/decode_body; the wire
// layer (wire.h) adds the common header and batch framing. Message is
// the closed variant the control plane and switch agent dispatch on.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "openflow/actions.h"
#include "openflow/constants.h"
#include "openflow/match.h"

namespace zen::openflow {

using Bytes = std::vector<std::uint8_t>;

struct Hello {
  std::uint8_t version = kProtocolVersion;
  friend bool operator==(const Hello&, const Hello&) = default;
};

struct ErrorMsg {
  ErrorType type = ErrorType::BadRequest;
  std::uint16_t code = 0;
  Bytes data;  // first bytes of the offending message
  friend bool operator==(const ErrorMsg&, const ErrorMsg&) = default;
};

// Canonical name used by the transactional southbound API (completion
// callbacks receive an Error on failure).
using Error = ErrorMsg;

// True for the typed failure a bounded flow table reports when it has no
// room and eviction could not free any (the signal the FlowRuleStore's
// table-full repair strategy keys on).
inline bool is_table_full(const Error& err) noexcept {
  return err.type == ErrorType::FlowModFailed &&
         err.code == flow_mod_failed_code::kTableFull;
}

struct EchoRequest {
  Bytes data;
  friend bool operator==(const EchoRequest&, const EchoRequest&) = default;
};

struct EchoReply {
  Bytes data;
  // Datapath boot epoch (dataplane::Switch::boot_count): bumped by every
  // power cycle, so the controller can detect a crash/reboot that was
  // shorter than the heartbeat-miss window and still re-audit.
  std::uint64_t boot_id = 0;
  friend bool operator==(const EchoReply&, const EchoReply&) = default;
};

// Vendor-extension escape hatch (OF 1.3 OFPT_EXPERIMENTER shape): an opaque
// payload scoped by (experimenter_id, exp_type). zen_telemetry uses it to
// carry flow/path export batches northbound without widening the protocol.
struct Experimenter {
  std::uint32_t experimenter_id = 0;
  std::uint32_t exp_type = 0;
  Bytes payload;
  friend bool operator==(const Experimenter&, const Experimenter&) = default;
};

struct FeaturesRequest {
  friend bool operator==(const FeaturesRequest&, const FeaturesRequest&) = default;
};

struct PortDesc {
  std::uint32_t port_no = 0;
  net::MacAddress hw_addr;
  std::string name;
  bool link_up = true;
  std::uint32_t curr_speed_mbps = 10000;
  friend bool operator==(const PortDesc&, const PortDesc&) = default;
};

struct FeaturesReply {
  std::uint64_t datapath_id = 0;
  std::uint32_t n_buffers = 256;
  std::uint8_t n_tables = 4;
  // Datapath boot epoch at handshake time (see EchoReply::boot_id).
  std::uint64_t boot_id = 0;
  std::vector<PortDesc> ports;
  friend bool operator==(const FeaturesReply&, const FeaturesReply&) = default;
};

struct FlowMod {
  std::uint64_t cookie = 0;
  std::uint8_t table_id = 0;
  FlowModCommand command = FlowModCommand::Add;
  std::uint16_t idle_timeout = 0;  // seconds; 0 = never
  std::uint16_t hard_timeout = 0;
  std::uint16_t priority = 0;
  std::uint32_t buffer_id = kNoBuffer;
  std::uint32_t out_port = Ports::kAny;  // filter for Delete
  std::uint16_t flags = 0;
  // Eviction precedence under EvictionPolicy::Importance (OVS shape):
  // when a bounded table must make room, the entry with the lowest
  // importance goes first, and an incoming Add can never displace an
  // entry more important than itself.
  std::uint16_t importance = 0;
  Match match;
  InstructionList instructions;
  friend bool operator==(const FlowMod&, const FlowMod&) = default;
};

struct PacketIn {
  std::uint32_t buffer_id = kNoBuffer;
  PacketInReason reason = PacketInReason::NoMatch;
  std::uint8_t table_id = 0;
  std::uint64_t cookie = 0;
  std::uint32_t in_port = 0;
  std::uint16_t total_len = 0;  // original frame length
  Bytes data;                   // (possibly truncated) frame
  friend bool operator==(const PacketIn&, const PacketIn&) = default;
};

struct PacketOut {
  std::uint32_t buffer_id = kNoBuffer;
  std::uint32_t in_port = Ports::kController;
  ActionList actions;
  Bytes data;  // ignored when buffer_id != kNoBuffer
  friend bool operator==(const PacketOut&, const PacketOut&) = default;
};

struct FlowRemoved {
  std::uint64_t cookie = 0;
  std::uint16_t priority = 0;
  FlowRemovedReason reason = FlowRemovedReason::IdleTimeout;
  std::uint8_t table_id = 0;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
  Match match;
  friend bool operator==(const FlowRemoved&, const FlowRemoved&) = default;
};

struct PortStatus {
  PortReason reason = PortReason::Modify;
  PortDesc desc;
  friend bool operator==(const PortStatus&, const PortStatus&) = default;
};

struct Bucket {
  std::uint16_t weight = 1;  // Select groups pick proportional to weight
  // FastFailover groups: the bucket is live iff this port is up
  // (Ports::kAny = unconditionally live).
  std::uint32_t watch_port = Ports::kAny;
  ActionList actions;
  friend bool operator==(const Bucket&, const Bucket&) = default;
};

struct GroupMod {
  GroupModCommand command = GroupModCommand::Add;
  GroupType type = GroupType::All;
  std::uint32_t group_id = 0;
  std::vector<Bucket> buckets;
  friend bool operator==(const GroupMod&, const GroupMod&) = default;
};

struct MeterMod {
  MeterModCommand command = MeterModCommand::Add;
  std::uint32_t meter_id = 0;
  std::uint64_t rate_kbps = 0;
  std::uint64_t burst_kbits = 0;
  friend bool operator==(const MeterMod&, const MeterMod&) = default;
};

struct BarrierRequest {
  friend bool operator==(const BarrierRequest&, const BarrierRequest&) = default;
};

struct BarrierReply {
  // Per-xid ack: the controller xids of state-modifying messages the
  // switch agent successfully processed, oldest first (a bounded recent
  // window, see SwitchAgent::kMaxAckedMods). On a lossy or reordering
  // channel this is what lets the controller distinguish "mod applied"
  // from "barrier overtook (or outlived) the mod" — and, unlike a
  // high-water mark, a delivered later mod can never vouch for an
  // earlier lost one.
  std::vector<std::uint32_t> acked;
  friend bool operator==(const BarrierReply&, const BarrierReply&) = default;
};

struct FlowStatsRequest {
  std::uint8_t table_id = kTableAll;
  Match match;  // only entries subsumed by this match are reported
  friend bool operator==(const FlowStatsRequest&, const FlowStatsRequest&) = default;
};

struct FlowStatsEntry {
  std::uint8_t table_id = 0;
  std::uint16_t priority = 0;
  std::uint64_t cookie = 0;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
  std::uint32_t duration_sec = 0;
  Match match;
  InstructionList instructions;
  friend bool operator==(const FlowStatsEntry&, const FlowStatsEntry&) = default;
};

struct FlowStatsReply {
  std::vector<FlowStatsEntry> entries;
  friend bool operator==(const FlowStatsReply&, const FlowStatsReply&) = default;
};

struct PortStatsRequest {
  std::uint32_t port_no = Ports::kAny;
  friend bool operator==(const PortStatsRequest&, const PortStatsRequest&) = default;
};

struct PortStatsEntry {
  std::uint32_t port_no = 0;
  std::uint64_t rx_packets = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_dropped = 0;
  std::uint64_t tx_dropped = 0;
  friend bool operator==(const PortStatsEntry&, const PortStatsEntry&) = default;
};

struct PortStatsReply {
  std::vector<PortStatsEntry> entries;
  friend bool operator==(const PortStatsReply&, const PortStatsReply&) = default;
};

struct TableStatsRequest {
  friend bool operator==(const TableStatsRequest&, const TableStatsRequest&) = default;
};

struct TableStatsEntry {
  std::uint8_t table_id = 0;
  std::uint32_t active_count = 0;
  std::uint64_t lookup_count = 0;
  std::uint64_t matched_count = 0;
  friend bool operator==(const TableStatsEntry&, const TableStatsEntry&) = default;
};

struct TableStatsReply {
  std::vector<TableStatsEntry> entries;
  friend bool operator==(const TableStatsReply&, const TableStatsReply&) = default;
};

struct RoleRequest {
  ControllerRole role = ControllerRole::Equal;
  // Monotonic master-election epoch: stale generations are refused.
  std::uint64_t generation_id = 0;
  friend bool operator==(const RoleRequest&, const RoleRequest&) = default;
};

struct RoleReply {
  ControllerRole role = ControllerRole::Equal;  // role actually granted
  std::uint64_t generation_id = 0;
  bool accepted = true;
  friend bool operator==(const RoleReply&, const RoleReply&) = default;
};

using Message =
    std::variant<Hello, ErrorMsg, EchoRequest, EchoReply, Experimenter,
                 FeaturesRequest, FeaturesReply, FlowMod, PacketIn, PacketOut,
                 FlowRemoved, PortStatus, GroupMod, MeterMod, BarrierRequest,
                 BarrierReply, FlowStatsRequest, FlowStatsReply,
                 PortStatsRequest, PortStatsReply, TableStatsRequest,
                 TableStatsReply, RoleRequest, RoleReply>;

MsgType type_of(const Message& msg) noexcept;
std::string type_name(MsgType type);

// Body (past the common header) serialization; used by wire.h.
void encode_body(const Message& msg, util::ByteWriter& w);
util::Result<Message> decode_body(MsgType type, util::ByteReader& r);

}  // namespace zen::openflow
