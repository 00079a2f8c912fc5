#include "net/telemetry.h"

namespace zen::net {

namespace {

struct Footer {
  std::uint8_t hop_count = 0;
  std::size_t trailer_size = 0;  // records + footer, bytes
};

// Validates the footer at the end of `frame`; nullopt if absent/corrupt.
std::optional<Footer> parse_footer(std::span<const std::uint8_t> frame) {
  if (frame.size() < kTelemetryFooterSize) return std::nullopt;
  util::ByteReader r(frame.subspan(frame.size() - kTelemetryFooterSize));
  const std::uint32_t magic = r.u32();
  const std::uint8_t version = r.u8();
  const std::uint8_t hop_count = r.u8();
  const std::uint16_t record_bytes = r.u16();
  if (magic != kTelemetryMagic || version != kTelemetryVersion)
    return std::nullopt;
  if (record_bytes != hop_count * kHopRecordSize) return std::nullopt;
  const std::size_t trailer_size = kTelemetryFooterSize + record_bytes;
  if (frame.size() < trailer_size) return std::nullopt;
  return Footer{hop_count, trailer_size};
}

void write_footer(util::ByteWriter& w, std::uint8_t hop_count) {
  w.u32(kTelemetryMagic);
  w.u8(kTelemetryVersion);
  w.u8(hop_count);
  w.u16(static_cast<std::uint16_t>(hop_count * kHopRecordSize));
}

}  // namespace

void write_hop(util::ByteWriter& w, const TelemetryHop& hop) {
  w.u64(hop.switch_id);
  w.u32(hop.ingress_port);
  w.u32(hop.egress_port);
  w.u64(hop.timestamp_ns);
  w.u32(hop.queue_depth_bytes);
}

TelemetryHop read_hop(util::ByteReader& r) {
  TelemetryHop hop;
  hop.switch_id = r.u64();
  hop.ingress_port = r.u32();
  hop.egress_port = r.u32();
  hop.timestamp_ns = r.u64();
  hop.queue_depth_bytes = r.u32();
  return hop;
}

bool has_telemetry_trailer(std::span<const std::uint8_t> frame) noexcept {
  return parse_footer(frame).has_value();
}

void append_telemetry_trailer(Bytes& frame) {
  util::ByteWriter w(frame);
  write_footer(w, 0);
}

bool append_telemetry_hop(Bytes& frame, const TelemetryHop& hop) {
  const auto footer = parse_footer(frame);
  if (!footer || footer->hop_count >= kMaxTelemetryHops) return false;
  // Drop the old footer, append the new hop, rewrite the footer.
  frame.resize(frame.size() - kTelemetryFooterSize);
  util::ByteWriter w(frame);
  write_hop(w, hop);
  write_footer(w, static_cast<std::uint8_t>(footer->hop_count + 1));
  return true;
}

bool restamp_last_hop(Bytes& frame, std::uint64_t timestamp_ns,
                      std::uint32_t queue_depth_bytes) {
  const auto footer = parse_footer(frame);
  if (!footer || footer->hop_count == 0) return false;
  // The newest hop sits just before the footer; timestamp_ns is at offset
  // 16 within the record, queue_depth_bytes at 24.
  const std::size_t hop_start =
      frame.size() - kTelemetryFooterSize - kHopRecordSize;
  Bytes patch;
  util::ByteWriter w(patch);
  w.u64(timestamp_ns);
  w.u32(queue_depth_bytes);
  std::copy(patch.begin(), patch.end(), frame.begin() + hop_start + 16);
  return true;
}

std::optional<std::vector<TelemetryHop>> peek_telemetry_hops(
    std::span<const std::uint8_t> frame) {
  const auto footer = parse_footer(frame);
  if (!footer) return std::nullopt;
  std::vector<TelemetryHop> hops;
  hops.reserve(footer->hop_count);
  util::ByteReader r(frame.subspan(frame.size() - footer->trailer_size,
                                   footer->hop_count * kHopRecordSize));
  for (std::uint8_t i = 0; i < footer->hop_count; ++i)
    hops.push_back(read_hop(r));
  return hops;
}

std::optional<std::vector<TelemetryHop>> strip_telemetry_trailer(Bytes& frame) {
  const auto footer = parse_footer(frame);
  if (!footer) return std::nullopt;
  auto hops = peek_telemetry_hops(frame);
  frame.resize(frame.size() - footer->trailer_size);
  return hops;
}

}  // namespace zen::net
