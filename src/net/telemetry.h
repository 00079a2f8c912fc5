// INT-style telemetry trailer: per-hop records riding on sampled packets.
//
// A sampled packet carries a trailer *appended after* the original frame
// bytes, so every existing parser (headers, flow keys, payload offsets)
// sees the frame unchanged. Switches push one TelemetryHop per traversed
// hop; the simulator re-stamps the newest record at link dequeue so the
// timestamp and queue depth reflect what the packet actually experienced.
// The sink (last hop before the destination host) strips the trailer and
// turns it into a path record for export to the controller's collector.
//
// Wire layout (big-endian), from the end of the frame backwards:
//   hop records   hop_count * kHopRecordSize bytes (oldest first)
//   footer        u32 magic | u8 version | u8 hop_count | u16 record_bytes
//
// The footer is last so a receiver can detect/parse the trailer without
// knowing the original frame length. `record_bytes` double-checks
// hop_count against the frame size, making accidental magic collisions in
// ordinary payloads vanishingly unlikely.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/buffer.h"

namespace zen::net {

using Bytes = std::vector<std::uint8_t>;

// One per-hop measurement, stamped by the fabric at link dequeue.
struct TelemetryHop {
  std::uint64_t switch_id = 0;
  std::uint32_t ingress_port = 0;
  std::uint32_t egress_port = 0;
  std::uint64_t timestamp_ns = 0;        // virtual time at dequeue
  std::uint32_t queue_depth_bytes = 0;   // egress queue backlog at dequeue

  friend bool operator==(const TelemetryHop&, const TelemetryHop&) = default;
};

inline constexpr std::uint32_t kTelemetryMagic = 0x5a454e54;  // "ZENT"
inline constexpr std::uint8_t kTelemetryVersion = 1;
inline constexpr std::size_t kHopRecordSize = 28;
inline constexpr std::size_t kTelemetryFooterSize = 8;
// Hard cap on hops per trailer (a 32-hop path is far beyond any sim fabric).
inline constexpr std::size_t kMaxTelemetryHops = 32;

// The hop record codec, kHopRecordSize bytes big-endian: u64 switch id,
// u32 ingress port, u32 egress port, u64 timestamp, u32 queue depth. The
// trailer and the telemetry export batch both carry hops in this layout.
void write_hop(util::ByteWriter& w, const TelemetryHop& hop);
TelemetryHop read_hop(util::ByteReader& r);

// True if `frame` ends in a well-formed telemetry trailer.
bool has_telemetry_trailer(std::span<const std::uint8_t> frame) noexcept;

// Appends an empty trailer (footer only, zero hops). The frame is then
// "marked" as sampled; switches along the path add hops to it.
void append_telemetry_trailer(Bytes& frame);

// Pushes one hop record onto the trailer. Returns false (frame unchanged)
// if there is no trailer or the trailer is full.
bool append_telemetry_hop(Bytes& frame, const TelemetryHop& hop);

// Rewrites the newest hop's timestamp and queue depth in place (dequeue
// re-stamp). Returns false if there is no trailer or it has no hops.
bool restamp_last_hop(Bytes& frame, std::uint64_t timestamp_ns,
                      std::uint32_t queue_depth_bytes);

// Parses the hop list without modifying the frame; nullopt if no trailer.
std::optional<std::vector<TelemetryHop>> peek_telemetry_hops(
    std::span<const std::uint8_t> frame);

// Parses and removes the trailer, restoring the original frame bytes;
// nullopt (frame unchanged) if there is no trailer.
std::optional<std::vector<TelemetryHop>> strip_telemetry_trailer(Bytes& frame);

}  // namespace zen::net
