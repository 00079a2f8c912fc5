// Protocol constants for the zen southbound protocol.
//
// The wire format is OpenFlow-1.3-shaped: an 8-byte header
// (version, type, length, xid) followed by a message body, with matches as
// TLV field lists. Values below mirror OpenFlow where a counterpart exists,
// so the encoding is familiar, but the protocol is self-contained.
#pragma once

#include <cstdint>

namespace zen::openflow {

inline constexpr std::uint8_t kProtocolVersion = 0x04;
inline constexpr std::size_t kHeaderSize = 10;
// Hard upper bound on a framed message; protects frame parsing from
// corrupt length fields.
inline constexpr std::size_t kMaxMessageSize = 1 << 20;

enum class MsgType : std::uint8_t {
  Hello = 0,
  Error = 1,
  EchoRequest = 2,
  EchoReply = 3,
  Experimenter = 4,
  FeaturesRequest = 5,
  FeaturesReply = 6,
  PacketIn = 10,
  FlowRemoved = 11,
  PortStatus = 12,
  PacketOut = 13,
  FlowMod = 14,
  GroupMod = 15,
  PortMod = 16,
  MeterMod = 29,
  BarrierRequest = 20,
  BarrierReply = 21,
  FlowStatsRequest = 30,
  FlowStatsReply = 31,
  PortStatsRequest = 32,
  PortStatsReply = 33,
  TableStatsRequest = 34,
  TableStatsReply = 35,
  RoleRequest = 36,
  RoleReply = 37,
};

// Controller roles (multi-controller redundancy, OF 1.3 shape).
enum class ControllerRole : std::uint8_t {
  Equal = 0,   // full access, receives all async messages
  Master = 1,  // full access; demotes any previous master to slave
  Slave = 2,   // read-only: no mods, no PacketIns (port status still flows)
};

// Reserved port numbers (subset of OpenFlow's OFPP_*).
struct Ports {
  static constexpr std::uint32_t kMax = 0xffffff00;
  static constexpr std::uint32_t kInPort = 0xfffffff8;   // bounce back out ingress
  static constexpr std::uint32_t kTable = 0xfffffff9;    // resubmit to pipeline
  static constexpr std::uint32_t kNormal = 0xfffffffa;   // L2 learning + flood
  static constexpr std::uint32_t kFlood = 0xfffffffb;    // all ports except ingress
  static constexpr std::uint32_t kAll = 0xfffffffc;      // all ports including ingress
  static constexpr std::uint32_t kController = 0xfffffffd;
  static constexpr std::uint32_t kAny = 0xffffffff;      // wildcard in requests
};

enum class FlowModCommand : std::uint8_t {
  Add = 0,
  Modify = 1,
  ModifyStrict = 2,
  Delete = 3,
  DeleteStrict = 4,
};

enum class PacketInReason : std::uint8_t {
  NoMatch = 0,
  Action = 1,
  InvalidTtl = 2,
};

enum class FlowRemovedReason : std::uint8_t {
  IdleTimeout = 0,
  HardTimeout = 1,
  Delete = 2,
  // The table was full and the eviction policy sacrificed this entry to
  // make room (OFPRR_EVICTION). Controllers must treat it differently from
  // timeout expiry: blindly reinstalling recreates the pressure that
  // evicted it.
  Eviction = 3,
};

enum class PortReason : std::uint8_t { Add = 0, Delete = 1, Modify = 2 };

enum class GroupModCommand : std::uint8_t { Add = 0, Modify = 1, Delete = 2 };

enum class GroupType : std::uint8_t {
  All = 0,           // replicate to every bucket (multicast/flood)
  Select = 1,        // hash-pick one bucket (ECMP / load-balance)
  Indirect = 2,      // single bucket indirection
  FastFailover = 3,  // first bucket whose watch_port is live (local repair)
};

enum class MeterModCommand : std::uint8_t { Add = 0, Modify = 1, Delete = 2 };

enum class ErrorType : std::uint16_t {
  HelloFailed = 0,
  BadRequest = 1,
  BadAction = 2,
  BadInstruction = 3,
  BadMatch = 4,
  FlowModFailed = 5,
  GroupModFailed = 6,
  MeterModFailed = 12,
  BundleFailed = 13,
};

// ErrorType::FlowModFailed codes.
namespace flow_mod_failed_code {
inline constexpr std::uint16_t kBadTableId = 1;
// The table has no room and eviction is off or could not free space.
inline constexpr std::uint16_t kTableFull = 2;
}  // namespace flow_mod_failed_code

// ErrorType::BundleFailed codes. Only bundle-mechanism failures use these;
// a member mod that fails during commit surfaces its own error type/code
// (e.g. FlowModFailed/kTableFull) so existing repair ladders apply.
namespace bundle_failed_code {
inline constexpr std::uint16_t kUnknownBundle = 1;
// Commit's member count disagrees with what was staged (lost/reordered adds).
inline constexpr std::uint16_t kBundleIncomplete = 2;
// A staged member is not a mod message.
inline constexpr std::uint16_t kBadMember = 3;
inline constexpr std::uint16_t kTooManyMembers = 4;
}  // namespace bundle_failed_code

// FlowMod flags.
inline constexpr std::uint16_t kFlagSendFlowRemoved = 0x0001;

inline constexpr std::uint32_t kNoBuffer = 0xffffffff;
inline constexpr std::uint8_t kTableAll = 0xff;

}  // namespace zen::openflow
